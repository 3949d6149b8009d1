//! `serve_mem`: the embedded daemon (`fracdram_serve::start`, no WAL)
//! under the seven-op `serve_bench` mix over loopback.
//!
//! Each repetition starts a fresh server and sends three phases of
//! traffic, all generated from the seed:
//!
//! 1. warm-up: one request per die, so every die is built (set-up);
//! 2. open loop: one pipelined connection at a fixed offered rate; a
//!    sender thread sends each request at its due time and a receiver
//!    thread times each response from that due time;
//! 3. closed loop: two connections, each sending its next request when
//!    the previous one is answered (as `serve_bench` does).
//!
//! The end-to-end figures come from replaying each repetition's
//! request log through a fresh `ShardState`, as `run_replay` does: the
//! pool's request rate on one thread, the p50 and p90 of its
//! per-request service time, and the first touch of every die as
//! set-up. The network figures — closed-loop rate and round trips,
//! open-loop latency from due time, generator lateness — are printed
//! beside them and kept as per-layer metrics: on a shared 2-vCPU host
//! every vCPU stall lands on them, and between ten-run sets the
//! closed-loop rate halved and its p90 round trip moved by 0.43.
//!
//! The traced run also journals the run's request log through the
//! write-ahead log at the run's drain batching and recovers it, which
//! measures the WAL layers (append + commit, read, replay) without the
//! fsync-per-drain noise of a live journaled server.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fracdram_experiments::Json;
use fracdram_serve::{
    recover, run_replay, start, wal, Request, ServeConfig, ShardState, StatusBoard,
};
use fracdram_stats::rng::mix;

use crate::report::{Outcome, SERVE_OPS};
use crate::{stats, sys, trace, Args, Clock};

/// Dies in the pool (`serve_bench`'s embedded default).
const DIES: usize = 8;
/// Shard threads (`serve_bench`'s embedded default).
const SHARDS: usize = 2;
/// Closed-loop requests per connection per repetition.
const CLOSED_PER_CONN: usize = 1500;
/// Tail level of the per-request service time and the closed-loop
/// round trips (thousands of samples per repetition).
const TAIL: f64 = 0.9;
/// Receive timeout after which a missing response counts as lost.
const LOST_AFTER: Duration = Duration::from_secs(10);

/// Offered open-loop rate, requests per second: a tenth of the
/// closed-loop capacity, so a shard stalled for up to 64 ms (its queue
/// of 64 filling at 1000 req/s) still sheds nothing.
const RATE: f64 = 2000.0;
/// Open-loop requests per repetition (two seconds at [`RATE`]).
const OPEN_REQUESTS: usize = 4000;

/// Per-shard queue bound. The default 64 sheds when a shard thread is
/// descheduled for 64 ms at this rate, which a busy shared host does
/// now and then; a shed request fails the run, so a host hiccup would
/// read as a program failure. 1024 takes a one-second stall to fill.
const QUEUE_DEPTH: usize = 1024;

fn config(wal_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        dies: DIES,
        shards: SHARDS,
        queue_depth: QUEUE_DEPTH,
        wal_dir,
        ..ServeConfig::default()
    }
}

/// The k-th request of die `die`'s seven-op cycle (trng, write, read,
/// puf, copy, enroll, verify), rows drawn from the seed within
/// `serve_bench`'s ranges. Storage stays on bank 1, clear of the TRNG
/// rows in bank 0; a die always enrolls before it verifies.
pub fn request_line(seed: u64, die: usize, k: usize) -> String {
    let r = mix(seed, &[die as u64, k as u64]) as usize;
    let doc = Json::obj().field("op", SERVE_OPS[k % 7]).field("die", die);
    let doc = match k % 7 {
        0 => doc.field("bits", 64usize),
        1 => doc
            .field("bank", 1usize)
            .field("row", 3 + r % 16)
            .field("fill", r.is_multiple_of(2))
            .field("frac", (r >> 8) % 3),
        2 => doc.field("bank", 1usize).field("row", 3 + r % 16),
        3 => doc.field("bank", 1usize).field("row", 40 + r % 20),
        4 => doc
            .field("bank", 1usize)
            .field("src", 3 + r % 16)
            .field("dst", 20 + (r >> 8) % 4),
        5 => doc
            .field("bank", 1usize)
            .field("row", 44usize)
            .field("reps", 3usize),
        _ => doc.field("bank", 1usize).field("row", 44usize),
    };
    doc.to_string()
}

/// The three traffic phases of one repetition, as `(die, line)` lists.
pub struct Plan {
    warmup: Vec<(usize, String)>,
    open: Vec<(usize, String)>,
    closed: [Vec<(usize, String)>; 2],
}

/// Builds the traffic of one repetition from the seed: every die's
/// requests follow its own cycle, and the die of each open-loop slot is
/// drawn from the seed.
pub fn plan(seed: u64, open_requests: usize) -> Plan {
    let mut next = [0usize; DIES];
    let mut take = |die: usize| {
        let line = request_line(seed, die, next[die]);
        next[die] += 1;
        (die, line)
    };
    let warmup = (0..DIES).map(&mut take).collect();
    let open = (0..open_requests)
        .map(|i| take(mix(seed, &[0x6f70_656e, i as u64]) as usize % DIES))
        .collect();
    // Closed loop: connection c owns the dies with (die / 2) % 2 == c,
    // so both connections reach both shards.
    let mut closed = [Vec::new(), Vec::new()];
    for (c, conn) in closed.iter_mut().enumerate() {
        let owned: Vec<usize> = (0..DIES).filter(|d| (d / 2) % 2 == c).collect();
        for i in 0..CLOSED_PER_CONN {
            let pick = mix(seed, &[0x636c_6f73, c as u64, i as u64]) as usize % owned.len();
            conn.push(take(owned[pick]));
        }
    }
    Plan {
        warmup,
        open,
        closed,
    }
}

/// Open-loop bookkeeping: which request each response answers, and how
/// late the request was sent and answered against its due time.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per die, the plan indices still awaiting a response, in order.
    waiting: BTreeMap<usize, VecDeque<usize>>,
    /// Due time of each plan index, ns from the phase start.
    due: Vec<u64>,
    /// Response latency from the due time, ns, in arrival order.
    pub latency_ns: Vec<f64>,
    /// How late each request was sent, ns.
    pub late_ns: Vec<f64>,
    /// Responses that were not `ok` or answered no known request.
    pub failed: u64,
    /// Responses matched so far.
    pub answered: usize,
}

impl OpenLoop {
    /// Bookkeeping for requests to `dies` due at `due` (ns).
    pub fn new(dies: &[usize], due: Vec<u64>) -> OpenLoop {
        let mut waiting: BTreeMap<usize, VecDeque<usize>> = BTreeMap::new();
        for (i, &die) in dies.iter().enumerate() {
            waiting.entry(die).or_default().push_back(i);
        }
        OpenLoop {
            waiting,
            due,
            ..OpenLoop::default()
        }
    }

    /// Notes that request `index` left at `sent_ns`.
    pub fn sent(&mut self, index: usize, sent_ns: u64) {
        self.late_ns
            .push(sent_ns.saturating_sub(self.due[index]) as f64);
    }

    /// Matches a response for `die` (FIFO within a die) that arrived at
    /// `at_ns`; a response naming no waiting die fails the oldest
    /// request still waiting, so the count of answered requests stays
    /// exact.
    pub fn received(&mut self, die: Option<usize>, ok: bool, at_ns: u64) {
        let index = match die.and_then(|d| self.waiting.get_mut(&d)) {
            Some(queue) if !queue.is_empty() => queue.pop_front(),
            _ => {
                self.failed += 1;
                let oldest = self
                    .waiting
                    .values_mut()
                    .filter(|q| !q.is_empty())
                    .min_by_key(|q| q[0])
                    .and_then(VecDeque::pop_front);
                if oldest.is_some() {
                    self.answered += 1;
                }
                return;
            }
        };
        let index = index.expect("non-empty queue");
        if !ok {
            self.failed += 1;
        }
        self.answered += 1;
        self.latency_ns
            .push(at_ns.saturating_sub(self.due[index]) as f64);
    }
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(LOST_AFTER))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

fn parse_reply(line: &str) -> (Option<usize>, Option<u64>, bool) {
    let doc = Json::parse(line).unwrap_or(Json::Null);
    (
        doc.get("die").and_then(Json::as_usize),
        doc.get("seq").and_then(Json::as_u64),
        doc.get("ok").and_then(Json::as_bool) == Some(true),
    )
}

/// Sends `lines` one at a time, waiting for each answer; returns the
/// answers (fewer than `lines` when the connection failed) and each
/// round trip in ns.
fn closed_loop(addr: &str, lines: &[(usize, String)]) -> (Vec<String>, Vec<f64>) {
    let mut answers = Vec::with_capacity(lines.len());
    let mut rtt = Vec::with_capacity(lines.len());
    let Ok((mut stream, mut reader)) = connect(addr) else {
        return (answers, rtt);
    };
    for (_, line) in lines {
        let t = Instant::now();
        if stream.write_all(format!("{line}\n").as_bytes()).is_err() {
            break;
        }
        let mut answer = String::new();
        match reader.read_line(&mut answer) {
            Ok(n) if n > 0 => answers.push(answer.trim_end().to_string()),
            _ => break,
        }
        rtt.push(t.elapsed().as_nanos() as f64);
    }
    (answers, rtt)
}

/// The open-loop phase: a sender thread keeps the schedule, the calling
/// thread receives. Returns the bookkeeping and every answer line.
fn open_loop(addr: &str, lines: &[(usize, String)], rate: f64) -> (OpenLoop, Vec<String>) {
    let spacing = 1e9 / rate;
    let due: Vec<u64> = (0..lines.len())
        .map(|i| (i as f64 * spacing) as u64)
        .collect();
    let dies: Vec<usize> = lines.iter().map(|(d, _)| *d).collect();
    let mut book = OpenLoop::new(&dies, due.clone());
    let mut answers = Vec::with_capacity(lines.len());
    let Ok((stream, mut reader)) = connect(addr) else {
        book.failed += lines.len() as u64;
        return (book, answers);
    };
    let t0 = Instant::now();
    let sent_at = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut stream = &stream;
            let mut sent_at = Vec::with_capacity(lines.len());
            for ((_, line), &due_ns) in lines.iter().zip(&due) {
                let now = t0.elapsed().as_nanos() as u64;
                if due_ns > now {
                    std::thread::sleep(Duration::from_nanos(due_ns - now));
                }
                sent_at.push(t0.elapsed().as_nanos() as u64);
                if stream.write_all(format!("{line}\n").as_bytes()).is_err() {
                    break;
                }
            }
            sent_at
        });
        while book.answered < lines.len() {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    let at = t0.elapsed().as_nanos() as u64;
                    let (die, _, ok) = parse_reply(line.trim_end());
                    book.received(die, ok, at);
                    answers.push(line.trim_end().to_string());
                }
                _ => break,
            }
        }
        sender.join().expect("open-loop sender thread panicked")
    });
    for (i, &at) in sent_at.iter().enumerate() {
        book.sent(i, at);
    }
    book.failed += (lines.len() - book.answered) as u64;
    (book, answers)
}

/// One repetition's measurements and logs.
struct Rep {
    book: OpenLoop,
    closed_rps: f64,
    /// Closed-loop round trips, ns.
    closed_rtt: Vec<f64>,
    failed: u64,
    attempted: u64,
    request_log: String,
    response_log: String,
    answers: Vec<String>,
    queue_hwm: u64,
    drain_mean: f64,
}

fn rep(seed: u64) -> Result<Rep, String> {
    let traffic = plan(seed, OPEN_REQUESTS);
    let cfg = config(None);
    let handle = start(cfg).map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = handle.addr().to_string();
    let (mut answers, _) = closed_loop(&addr, &traffic.warmup);

    let (book, open_answers) = open_loop(&addr, &traffic.open, RATE);
    answers.extend(open_answers);

    let started = Instant::now();
    let closed: Vec<(Vec<String>, Vec<f64>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = traffic
            .closed
            .iter()
            .map(|lines| scope.spawn(|| closed_loop(&addr, lines)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    });
    let closed_wall = started.elapsed().as_secs_f64();
    let mut closed_rtt = Vec::new();
    for (lines, rtt) in closed {
        answers.extend(lines);
        closed_rtt.extend(rtt);
    }

    let board = handle.board();
    let queue_hwm = board.queue_hwms().into_iter().max().unwrap_or(0);
    let hist = board.batch_histogram();
    let drains: u64 = hist.iter().sum();
    let drained: u64 = hist.iter().enumerate().map(|(n, c)| n as u64 * c).sum();
    let report = handle.join();
    // Every request either got an `ok` answer or failed: refused,
    // errored, or never answered.
    let attempted = (traffic.warmup.len() + traffic.open.len() + 2 * CLOSED_PER_CONN) as u64;
    let ok = answers.iter().filter(|a| parse_reply(a).2).count() as u64;
    Ok(Rep {
        closed_rps: closed_rtt.len() as f64 / closed_wall,
        closed_rtt,
        failed: attempted - ok,
        attempted,
        book,
        request_log: report.request_log,
        response_log: report.response_log,
        answers,
        queue_hwm,
        drain_mean: drained as f64 / drains.max(1) as f64,
    })
}

/// A repetition's request log replayed through a fresh `ShardState`
/// (the calls `run_replay` makes), timed per request.
struct Replay {
    response_log: String,
    /// Service time of each request (parse + execute), ns.
    service_ns: Vec<f64>,
    /// First touch of each die (the request that builds it), ns summed.
    bring_up_ns: f64,
    wall_s: f64,
}

fn timed_replay(requests: &str) -> Replay {
    let started = Instant::now();
    let mut state = ShardState::new(config(None), Arc::new(StatusBoard::default()), false);
    let mut touched = [false; DIES];
    let mut replies = Vec::new();
    let mut service_ns = Vec::new();
    let mut bring_up_ns = 0.0;
    for line in requests.lines() {
        let t = Instant::now();
        let req = Request::parse(line).expect("logged requests parse");
        replies.push(state.execute(&req));
        let ns = t.elapsed().as_nanos() as f64;
        let die = req.die().expect("logged requests name a die");
        if !std::mem::replace(&mut touched[die], true) {
            bring_up_ns += ns;
        }
        service_ns.push(ns);
    }
    replies.sort_by_key(|r| (r.die, r.seq));
    Replay {
        response_log: replies.into_iter().map(|r| r.line + "\n").collect(),
        service_ns,
        bring_up_ns,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Output checks of one repetition: the live response log replays
/// byte for byte, and every answer a client saw is the logged response
/// for its `(die, seq)`.
fn check_rep(out: &mut Outcome, r: &Rep) {
    let replayed = run_replay(&config(None), &r.request_log);
    out.check(replayed.as_deref() == Ok(r.response_log.as_str()), || {
        "serve: run_replay of the request log differs from the live response log".to_string()
    });
    let logged: BTreeMap<(usize, u64), &str> = r
        .response_log
        .lines()
        .filter_map(|l| match parse_reply(l) {
            (Some(d), Some(s), _) => Some(((d, s), l)),
            _ => None,
        })
        .collect();
    let unmatched = r
        .answers
        .iter()
        .filter(|a| match parse_reply(a) {
            (Some(d), Some(s), _) => logged.get(&(d, s)) != Some(&a.as_str()),
            _ => true,
        })
        .count();
    out.check(unmatched == 0 && logged.len() == r.answers.len(), || {
        format!(
            "serve: {unmatched} client answer(s) differ from the logged responses ({} logged, {} answered)",
            logged.len(),
            r.answers.len()
        )
    });
}

/// The untraced run: repetitions until the clock runs out.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let clock = Clock::start(args.seconds);
    let mut setups = Vec::new();
    let mut rps = Vec::new();
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let (mut rates, mut rtt_p50s, mut rtt_p90s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut open_p50s, mut open_p99s) = (Vec::new(), Vec::new());
    let mut rss = Vec::new();
    let mut late = Vec::new();
    let mut first_log: Option<String> = None;
    while setups.len() < 3 || !clock.done() {
        sys::reset_peak_rss();
        let r = rep(args.seed);
        rss.push(sys::peak_rss_mb());
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || e);
                break;
            }
        };
        check_rep(&mut out, &r);
        let replay = timed_replay(&r.request_log);
        out.check(replay.response_log == r.response_log, || {
            "serve: the timed replay differs from the live response log".to_string()
        });
        match &first_log {
            None => first_log = Some(r.response_log.clone()),
            Some(log) => out.check(*log == r.response_log, || {
                format!(
                    "serve seed {}: repetition {} answered differently from repetition 0",
                    args.seed,
                    setups.len()
                )
            }),
        }
        out.attempted += r.attempted;
        out.failed += r.failed;
        setups.push(replay.bring_up_ns / 1e9);
        rates.push(replay.service_ns.len() as f64 / replay.wall_s);
        let q = |level| stats::quantile(&replay.service_ns, level);
        if let (Some(p50), Some(tail)) = (q(0.5), q(TAIL)) {
            out.check(tail.reportable(), || {
                format!("serve: only {} requests beyond p90", tail.beyond)
            });
            p50s.push(p50.value);
            p90s.push(tail.value);
        }
        rps.push(r.closed_rps);
        let q = |level| stats::quantile(&r.closed_rtt, level);
        if let (Some(p50), Some(p90)) = (q(0.5), q(TAIL)) {
            rtt_p50s.push(p50.value);
            rtt_p90s.push(p90.value);
        }
        let q = |level| stats::quantile(&r.book.latency_ns, level);
        if let (Some(p50), Some(p99)) = (q(0.5), q(0.99)) {
            open_p50s.push(p50.value);
            open_p99s.push(p99.value);
        }
        late.extend(&r.book.late_ns);
    }
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    out.set("setup_s", med(&setups));
    out.set("work_per_s", med(&rates));
    out.set("p50_ms", med(&p50s) / 1e6);
    out.set("tail_ms", med(&p90s) / 1e6);
    out.set("peak_rss_mb", med(&rss));
    out.line(format!(
        "serve_mem: {} repetition(s); open loop {OPEN_REQUESTS} req at {RATE:.0} req/s on 1 connection, closed loop 2 x {CLOSED_PER_CONN} req; work item = one request",
        setups.len(),
    ));
    out.line(format!(
        "  medians over repetitions: replay {:.0} req/s, service time p50 {:.4} ms, tail = p90 {:.4} ms, die bring-up {:.4} ms; closed loop {:.0} req/s, round trip p50 {:.4} ms, p90 {:.4} ms; open loop from due time p50 {:.4} ms, p99 {:.4} ms; generator late p99 {:.4} ms; peak RSS {:.2} MB",
        med(&rates),
        med(&p50s) / 1e6,
        med(&p90s) / 1e6,
        med(&setups) * 1e3,
        med(&rps),
        med(&rtt_p50s) / 1e6,
        med(&rtt_p90s) / 1e6,
        med(&open_p50s) / 1e6,
        med(&open_p99s) / 1e6,
        stats::quantile(&late, 0.99).map_or(0.0, |q| q.value / 1e6),
        med(&rss)
    ));
    out
}

/// Span name of each op's `ShardState::execute`.
fn execute_span(req: &Request) -> &'static str {
    match req.op() {
        "trng" => "serve.pool.execute.trng",
        "write" => "serve.pool.execute.write",
        "read" => "serve.pool.execute.read",
        "puf" => "serve.pool.execute.puf",
        "copy" => "serve.pool.execute.copy",
        "enroll" => "serve.pool.execute.enroll",
        "verify" => "serve.pool.execute.verify",
        _ => "serve.pool.execute.other",
    }
}

/// `recover`, re-done from its public parts with a span per call: read
/// each shard's journal, then parse and execute its entries in order.
fn traced_recover(cfg: &ServeConfig, dir: &Path) -> String {
    let fingerprint = wal::fingerprint(cfg);
    let mut replies = Vec::new();
    for shard in 0..cfg.shards.max(1) {
        let path = wal::shard_path(dir, shard);
        let log = trace::span("serve.wal.read_shard", || {
            wal::read_shard(&path, &fingerprint)
        })
        .expect("journal reads back");
        let mut state = ShardState::new(cfg.clone(), Arc::new(StatusBoard::default()), false);
        for entry in &log.entries {
            let req = trace::span("serve.protocol.parse", || Request::parse(&entry.request))
                .expect("journaled requests parse");
            replies.push(trace::span(execute_span(&req), || state.execute(&req)));
        }
    }
    replies.sort_by_key(|r| (r.die, r.seq));
    replies.into_iter().map(|r| r.line + "\n").collect()
}

/// A journal of one repetition, written through `WalWriter` from its
/// request log the way the live server would have journaled it.
struct Journal {
    /// Mean ms per `commit` (one write + fdatasync).
    commit_ms: f64,
    /// Commits per entry.
    commits_per_entry: f64,
    entries: u64,
    bytes: u64,
}

/// Journals the request log (sorted by `(die, seq)`) into `dir`: each
/// die's requests go to its shard's log in order, staged with
/// `WalWriter::log` and committed `batch` at a time (the live run's
/// mean drain size).
fn write_journal(cfg: &ServeConfig, dir: &Path, requests: &[&str], batch: usize) -> Journal {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the journal directory");
    let shards = cfg.shards.max(1);
    let mut writers: Vec<wal::WalWriter> = (0..shards)
        .map(|k| wal::WalWriter::create(dir, k, cfg, &[]).expect("create a shard journal"))
        .collect();
    let mut staged = vec![0usize; shards];
    let mut seqs = vec![0u64; cfg.dies];
    let mut commits = Vec::new();
    let mut commit = |writer: &mut wal::WalWriter| {
        let t = Instant::now();
        writer.commit().expect("commit the journal");
        commits.push(t.elapsed().as_secs_f64() * 1e3);
    };
    for line in requests {
        let die = Request::parse(line)
            .ok()
            .and_then(|r| r.die())
            .expect("logged requests name a die");
        let shard = cfg.shard_of(die);
        writers[shard].log(die, seqs[die], line);
        seqs[die] += 1;
        staged[shard] += 1;
        if staged[shard] == batch.max(1) {
            commit(&mut writers[shard]);
            staged[shard] = 0;
        }
    }
    for (writer, staged) in writers.iter_mut().zip(&staged) {
        if *staged > 0 {
            commit(writer);
        }
    }
    let entries = writers.iter().map(wal::WalWriter::entries).sum();
    let bytes = writers.iter().map(wal::WalWriter::bytes).sum();
    for writer in writers {
        writer.seal().expect("seal the journal");
    }
    Journal {
        commit_ms: stats::mean(&commits),
        commits_per_entry: commits.len() as f64 / requests.len().max(1) as f64,
        entries,
        bytes,
    }
}

/// Highest offered rate on a fixed ladder whose p99 from due time stays
/// under the latency limit with no growing backlog (the last quarter's
/// median no more than twice the first quarter's).
fn slo_rps(seed: u64, out: &mut Outcome) -> f64 {
    const LADDER: [f64; 5] = [2000.0, 4000.0, 8000.0, 12000.0, 16000.0];
    const LIMIT_MS: f64 = 1.0;
    let mut best = 0.0;
    for rate in LADDER {
        let handle = match start(config(None)) {
            Ok(h) => h,
            Err(e) => {
                out.check(false, || {
                    format!("serve: cannot start the ladder server: {e}")
                });
                return best;
            }
        };
        let addr = handle.addr().to_string();
        let traffic = plan(seed, (rate / 2.0) as usize);
        let _ = closed_loop(&addr, &traffic.warmup);
        let (book, _) = open_loop(&addr, &traffic.open, rate);
        handle.join();
        let q = book.latency_ns.len() / 4;
        let (head, tail) = (
            &book.latency_ns[..q],
            &book.latency_ns[book.latency_ns.len() - q..],
        );
        let p99 = stats::quantile(&book.latency_ns, 0.99).map_or(f64::INFINITY, |q| q.value / 1e6);
        let growing = stats::median(tail).unwrap_or(0.0) > 2.0 * stats::median(head).unwrap_or(0.0);
        out.line(format!(
            "  ladder {rate:.0} req/s: p99 {p99:.4} ms, backlog {}",
            if growing { "growing" } else { "steady" }
        ));
        if book.failed > 0 || p99 > LIMIT_MS || growing {
            break;
        }
        best = rate;
    }
    best
}

/// The traced run: one live repetition; its request log journaled
/// through the WAL; then the journal recovered by the library
/// (`recover`, untraced) and by [`traced_recover`] (spans), which must
/// both reproduce the live response log.
pub fn run_traced(args: &Args, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let r = match rep(args.seed) {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    check_rep(&mut out, &r);
    out.attempted = r.attempted;
    out.failed = r.failed;
    let requests: Vec<&str> = r.request_log.lines().collect();
    let dir = scratch.join("wal");
    let cfg = config(Some(dir.clone()));
    let journal = write_journal(&cfg, &dir, &requests, r.drain_mean.round() as usize);

    let clock = Clock::start(args.seconds);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let (pass, responses) = loop {
        let t = Instant::now();
        let recovered = recover(&cfg, &dir).map(|rec| rec.response_log);
        untraced.push(t.elapsed().as_secs_f64());
        out.check(recovered.as_deref() == Ok(r.response_log.as_str()), || {
            "serve: recover() of the journal differs from the live response log".to_string()
        });
        let (responses, pass) = trace::Pass::record(|| traced_recover(&cfg, &dir));
        traced.push(pass.wall_ns() as f64 / 1e9);
        if clock.done() {
            break (pass, responses);
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    out.check(responses == r.response_log, || {
        "serve: traced recovery differs from the live response log".to_string()
    });

    let n = requests.len().max(1) as f64;
    let by_name = trace::self_by_name(&pass.spans);
    let ns = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;
    let parse_us = ns("serve.protocol.parse") / 1e3 / n;
    let mut execute_ns = 0.0;
    for op in SERVE_OPS {
        let name = format!("serve.pool.execute.{op}");
        let count = pass.spans.iter().filter(|s| s.name == name).count().max(1) as f64;
        out.set(
            &format!("serve.pool.execute_us.{op}"),
            ns(&name) / 1e3 / count,
        );
        execute_ns += ns(&name);
    }
    let execute_us = execute_ns / 1e3 / n;
    let unattributed = crate::layer_table(&mut out, &pass);
    let mean_latency_us = stats::mean(&r.closed_rtt) / 1e3;
    out.set("serve.protocol.parse_us", parse_us);
    out.set(
        "serve.unattributed_us",
        mean_latency_us - parse_us - execute_us,
    );
    out.set("serve.queue_hwm", r.queue_hwm as f64);
    out.set("serve.drain_batch_mean", r.drain_mean);
    out.set("serve.gen_late_ms", stats::mean(&r.book.late_ns) / 1e6);
    let open = |level| stats::quantile(&r.book.latency_ns, level).map_or(0.0, |q| q.value / 1e6);
    out.set("serve.open_p50_ms", open(0.5));
    out.set("serve.open_p99_ms", open(0.99));
    let rtt = |level| stats::quantile(&r.closed_rtt, level).map_or(0.0, |q| q.value / 1e6);
    out.set("serve.rtt_p50_ms", rtt(0.5));
    out.set("serve.rtt_p90_ms", rtt(TAIL));
    out.set("serve.closed_rps", r.closed_rps);
    let slo = slo_rps(args.seed, &mut out);
    out.set("serve.slo_rps", slo);
    out.set("serve.replay_unattributed_ms", unattributed / 1e6);
    out.set("serve.wal.commit_ms", journal.commit_ms);
    out.set("serve.wal.syncs_per_req", journal.commits_per_entry);
    out.set("serve.recover.read_ms", ns("serve.wal.read_shard") / 1e6);
    out.set(
        "serve.recover.replay_us_per_entry",
        (ns("serve.protocol.parse") + execute_ns) / 1e3 / n,
    );
    out.set(
        "serve.recovery_s",
        stats::median(&untraced).expect("recover() ran"),
    );
    out.set("serve.requests", requests.len() as f64);
    out.set("serve.wal.entries", journal.entries as f64);
    out.set("serve.wal.bytes", journal.bytes as f64);
    let (traced_wall, untraced_wall) = (
        stats::median(&traced).expect("traced recovery ran"),
        stats::median(&untraced).expect("recover() ran"),
    );
    out.set("trace_overhead_frac", traced_wall / untraced_wall - 1.0);
    out.line(format!(
        "serve_mem: traced recovery {traced_wall:.4} s vs recover() {untraced_wall:.4} s (medians of {} pair(s)) over a {}-entry journal; closed-loop round trip mean {mean_latency_us:.1} us = parse {parse_us:.1} + execute {execute_us:.1} + unattributed (TCP, queue, reply)",
        traced.len(),
        journal.entries,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_responses_from_their_due_time() {
        // Three requests due at 0, 100 and 200 ns to dies 1, 2, 1.
        let mut book = OpenLoop::new(&[1, 2, 1], vec![0, 100, 200]);
        book.sent(0, 0);
        book.sent(1, 150); // the generator ran 50 ns late
        book.sent(2, 200);
        // Die 1's first answer belongs to request 0, its second to 2.
        book.received(Some(1), true, 40);
        book.received(Some(1), true, 260);
        // Request 1 was sent late; its latency still counts from due.
        book.received(Some(2), true, 190);
        assert_eq!(book.late_ns, vec![0.0, 50.0, 0.0]);
        assert_eq!(book.latency_ns, vec![40.0, 60.0, 90.0]);
        assert_eq!(book.answered, 3);
        assert_eq!(book.failed, 0);
    }

    #[test]
    fn open_loop_counts_refusals_and_strays() {
        let mut book = OpenLoop::new(&[0, 1], vec![0, 10]);
        book.received(Some(1), false, 30); // a 503 for die 1
        book.received(None, false, 40); // a front-end error: no die
        assert_eq!(book.failed, 2);
        assert_eq!(book.answered, 2);
        assert_eq!(book.latency_ns, vec![20.0]);
    }

    #[test]
    fn plan_is_seeded_and_every_die_enrolls_before_verifying() {
        let a = plan(5, 300);
        let b = plan(5, 300);
        assert_eq!(a.open, b.open);
        assert_ne!(plan(6, 300).open, a.open);
        let mut first_enroll = [usize::MAX; DIES];
        let all = a
            .warmup
            .iter()
            .chain(&a.open)
            .chain(a.closed.iter().flatten());
        for (i, (die, line)) in all.enumerate() {
            let req = Request::parse(line).expect("generated requests parse");
            assert_eq!(req.die(), Some(*die));
            match req.op() {
                "enroll" => first_enroll[*die] = first_enroll[*die].min(i),
                "verify" => assert!(
                    first_enroll[*die] < i,
                    "die {die} verifies before enrolling"
                ),
                _ => {}
            }
        }
        // Closed-loop connections own disjoint dies.
        for (die, _) in &a.closed[0] {
            assert!(a.closed[1].iter().all(|(d, _)| d != die));
        }
    }
}
