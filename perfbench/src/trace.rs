//! In-memory span tracing for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public
//! functions in a named span. Spans are kept in a per-thread buffer,
//! moved to a shared store by [`flush`], and analysed after the run:
//!
//! - [`self_times`]: a span's duration minus the part of it that its
//!   child spans (same thread, nested inside it) cover;
//! - [`wall_table`]: splits the traced wall time among the spans that
//!   were running at each instant, so the rows plus an `unattributed`
//!   row add up to the wall time exactly, even when worker threads run
//!   in parallel.
//!
//! A *passive* span marks a thread that waits on others (the main
//! thread blocked in a fleet call, or the root of the run). It never
//! counts as running: while no active span runs anywhere, the time goes
//! to the innermost passive span of the root thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The name the wall table gives to time no span claims.
pub const UNATTRIBUTED: &str = "unattributed";

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name: `<layer>.<call>`.
    pub name: &'static str,
    /// Small integer id of the recording thread.
    pub thread: usize,
    /// Start, in ns since the trace epoch.
    pub start: u64,
    /// End, in ns since the trace epoch.
    pub end: u64,
    /// Whether the thread only waits inside this span.
    pub passive: bool,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
static STORE: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static BUFFER: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the trace epoch.
fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn record<R>(name: &'static str, passive: bool, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let start = now();
    let out = f();
    let end = now();
    let thread = THREAD.with(|t| *t);
    BUFFER.with(|b| {
        b.borrow_mut().push(Span {
            name,
            thread,
            start,
            end,
            passive,
        })
    });
    out
}

/// Runs `f` inside an active span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    record(name, false, f)
}

/// Runs `f` inside a passive span: the thread waits on other threads.
pub fn wait_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    record(name, true, f)
}

/// Moves this thread's buffered spans to the shared store. Call it at
/// the end of every unit of work a library-owned thread runs.
pub fn flush() {
    let spans = BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if !spans.is_empty() {
        STORE
            .lock()
            .expect("trace store lock poisoned by a panicking thread")
            .extend(spans);
    }
}

/// Flushes this thread and takes every span recorded so far.
pub fn take() -> Vec<Span> {
    flush();
    std::mem::take(
        &mut *STORE
            .lock()
            .expect("trace store lock poisoned by a panicking thread"),
    )
}

/// Indices of `spans` on each thread, ordered so that a parent comes
/// before its children (start ascending, longer first on ties).
fn by_thread(spans: &[Span]) -> Vec<Vec<usize>> {
    let threads = spans.iter().map(|s| s.thread + 1).max().unwrap_or(0);
    let mut out = vec![Vec::new(); threads];
    for (i, s) in spans.iter().enumerate() {
        out[s.thread].push(i);
    }
    for list in &mut out {
        list.sort_by_key(|&i| (spans[i].start, std::cmp::Reverse(spans[i].end)));
    }
    out
}

/// Self time of every span (same order as `spans`): its duration minus
/// the union of the intervals its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // Per open parent: how far its children already cover it.
    let mut stack: Vec<(usize, u64)> = Vec::new();
    for list in by_thread(spans) {
        stack.clear();
        for i in list {
            let s = spans[i];
            while let Some(&(top, _)) = stack.last() {
                if spans[top].end <= s.start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some((parent, until)) = stack.last_mut() {
                let from = s.start.max(*until);
                let to = s.end.min(spans[*parent].end);
                if to > from {
                    covered[*parent] += to - from;
                    *until = to;
                }
            }
            stack.push((i, s.start));
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.duration().saturating_sub(*c))
        .collect()
}

/// Splits the wall interval `[from, to)` among spans. At each instant,
/// every thread whose innermost open span is active shares the instant
/// equally with the others; when none is, the instant goes to the
/// innermost passive span on `root_thread`, and to [`UNATTRIBUTED`]
/// when that span is named `root` or the thread has none open. The
/// returned `(name, ns)` rows sum to `to - from`.
pub fn wall_table(
    spans: &[Span],
    root: &str,
    root_thread: usize,
    from: u64,
    to: u64,
) -> Vec<(String, f64)> {
    // (time, is_start, span): ends sort before starts at equal times.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start, true, i));
        events.push((s.end, false, i));
    }
    events.sort_by_key(|&(t, is_start, i)| (t, is_start, std::cmp::Reverse(spans[i].end), i));
    let threads = spans
        .iter()
        .map(|s| s.thread + 1)
        .max()
        .unwrap_or(0)
        .max(root_thread + 1);
    let mut open: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut rows: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    let mut credit = |open: &Vec<Vec<usize>>, a: u64, b: u64| {
        let (a, b) = (a.max(from), b.min(to));
        if b <= a {
            return;
        }
        let dt = (b - a) as f64;
        let running: Vec<usize> = open
            .iter()
            .filter_map(|stack| stack.last().copied())
            .filter(|&i| !spans[i].passive)
            .collect();
        if running.is_empty() {
            let name = match open[root_thread].last() {
                Some(&i) if spans[i].name != root => spans[i].name,
                _ => UNATTRIBUTED,
            };
            *rows.entry(name.to_string()).or_default() += dt;
        } else {
            let share = dt / running.len() as f64;
            for i in running {
                *rows.entry(spans[i].name.to_string()).or_default() += share;
            }
        }
    };
    let mut last = from;
    for (t, is_start, i) in events {
        credit(&open, last, t);
        last = last.max(t);
        let stack = &mut open[spans[i].thread];
        if is_start {
            stack.push(i);
        } else if let Some(pos) = stack.iter().rposition(|&j| j == i) {
            stack.remove(pos);
        }
    }
    credit(&open, last, to);
    rows.entry(UNATTRIBUTED.to_string()).or_default();
    rows.into_iter().collect()
}

/// Name of the passive span a traced pass runs in.
pub const ROOT: &str = "root";

/// One traced pass: the spans recorded while it ran inside a passive
/// [`ROOT`] span, and that span's wall interval.
pub struct Pass {
    /// Every span of the pass, the root included.
    pub spans: Vec<Span>,
    /// Root start, ns since the trace epoch.
    pub from: u64,
    /// Root end, ns since the trace epoch.
    pub to: u64,
}

impl Pass {
    /// Runs `f` with recording on, inside the root span; spans recorded
    /// before the pass are discarded.
    pub fn record<R>(f: impl FnOnce() -> R) -> (R, Pass) {
        let _ = take();
        set_enabled(true);
        let out = wait_span(ROOT, f);
        set_enabled(false);
        let spans = take();
        let root = *spans
            .iter()
            .rev()
            .find(|s| s.name == ROOT)
            .expect("the root span was recorded");
        let pass = Pass {
            spans,
            from: root.start,
            to: root.end,
        };
        (out, pass)
    }

    /// The pass's wall time in ns.
    pub fn wall_ns(&self) -> u64 {
        self.to - self.from
    }

    /// The pass's layer table (see [`wall_table`]).
    pub fn table(&self) -> Vec<(String, f64)> {
        let root_thread = self
            .spans
            .iter()
            .find(|s| s.name == ROOT)
            .map_or(0, |s| s.thread);
        wall_table(&self.spans, ROOT, root_thread, self.from, self.to)
    }
}

/// Sum of self times per span name.
pub fn self_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, u64> {
    let mut out = std::collections::BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_default() += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, thread: usize, start: u64, end: u64, passive: bool) -> Span {
        Span {
            name,
            thread,
            start,
            end,
            passive,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            sp("root", 0, 0, 100, true),
            sp("a", 0, 10, 40, false),
            sp("a.child", 0, 15, 25, false),
            sp("a.child", 0, 30, 35, false),
            sp("b", 0, 50, 90, false),
            // Another thread's span never counts as a child.
            sp("w", 1, 0, 100, false),
        ];
        let times = self_times(&spans);
        assert_eq!(times, vec![30, 15, 10, 5, 40, 100]);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["a.child"], 15);
    }

    #[test]
    fn wall_table_sums_to_wall_across_threads() {
        let spans = [
            sp("root", 0, 0, 100, true),
            sp("fleet", 0, 10, 90, true),
            sp("work", 1, 10, 60, false),
            sp("work", 2, 20, 80, false),
            sp("reduce", 0, 50, 55, false),
        ];
        let table = wall_table(&spans, "root", 0, 0, 100);
        let total: f64 = table.iter().map(|(_, ns)| ns).sum();
        assert!((total - 100.0).abs() < 1e-9, "rows sum to {total}");
        let get = |name: &str| table.iter().find(|(n, _)| n == name).unwrap().1;
        // 0..10 and 90..100: nothing runs, root owns it.
        // 10..20: only worker 1 runs (fleet waits); 80..90: fleet alone.
        assert!((get(UNATTRIBUTED) - 20.0).abs() < 1e-9);
        assert!((get("fleet") - 10.0).abs() < 1e-9);
        // 50..55: three threads share; reduce gets a third.
        assert!((get("reduce") - 5.0 / 3.0).abs() < 1e-9);
        assert!((get("work") - (70.0 - 5.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn recorded_pass_nests_spans_under_its_root() {
        let (value, pass) =
            Pass::record(|| span("t.outer", || span("t.inner", || std::hint::black_box(1))));
        span("t.ignored", || ());
        assert_eq!(value, 1);
        let names: Vec<&str> = pass.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["t.inner", "t.outer", ROOT]);
        assert!(pass.spans[2].passive && !pass.spans[1].passive);
        let total: u64 = self_times(&pass.spans).iter().sum();
        assert_eq!(total, pass.spans[2].duration());
        assert_eq!(pass.spans[2].duration(), pass.wall_ns());
        let rows: f64 = pass.table().iter().map(|(_, ns)| ns).sum();
        assert!((rows - pass.wall_ns() as f64).abs() < 1e-6);
    }
}
