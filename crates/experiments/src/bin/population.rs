//! `population` — population-scale streaming fleet study.
//!
//! Streams die seeds through [`fracdram_experiments::fleet::run_stream`]
//! with O(1) memory per worker and answers three questions the paper's
//! 582-chip census couldn't: Frac-PUF inter-HD uniqueness and
//! birthday-bound collision probability at fleet scale, enrollment
//! database sizing, and a vendor/origin nearest-centroid classifier
//! over the 12 groups (the counterfeit-DRAM identification scenario).
//!
//! Aggregate stdout is byte-identical at any `--jobs N`: chunk
//! accumulators merge in ascending chunk order, the reservoir sample is
//! a pure function of `(seed, index)`, and the binary store is written
//! by the single-threaded reducer in chunk order. `--replay STORE`
//! re-aggregates a previous run's store — same chunk structure, same
//! merge tree, bit-identical aggregate block — without re-simulating.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin population \
//!   [-- --dies 1M --chunk 2k --jobs 8 --store pop.bin]
//! ```

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Instant;

use fracdram_experiments::fleet::{item_seed, run_stream, StreamConfig};
use fracdram_experiments::population as pop;
use fracdram_experiments::store::{StoreHeader, StoreReader, StoreWriter, RECORD_LEN};
use fracdram_experiments::{render, Args, Json};
use fracdram_model::GroupId;

/// Enrollment populations for the sizing table.
const ENROLL_SIZES: [(u64, &str); 6] = [
    (1_000, "1k"),
    (10_000, "10k"),
    (100_000, "100k"),
    (1_000_000, "1M"),
    (10_000_000, "10M"),
    (100_000_000, "100M"),
];

fn exit_store_error(what: &str, path: &std::path::Path, err: &std::io::Error) -> ! {
    eprintln!("error: could not {what} store {}: {err}", path.display());
    std::process::exit(1)
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "population",
        "population-scale streaming study: Frac-PUF uniqueness, enrollment sizing, \
         vendor/origin classifier",
        &[
            ("dies", "dies to stream (k/M/G suffixes; default 2400)"),
            ("chunk", "dies per chunk (default 600)"),
            ("jobs", "worker threads (default: all cores)"),
            ("seed", "base seed (default 42)"),
            ("sample", "fingerprint reservoir capacity (default 256)"),
            ("store", "write the binary result store to this path"),
            ("replay", "re-aggregate an existing store (no simulation)"),
            ("json", "dump aggregates and counters as JSON"),
            ("bench-json", "write the population/dies_per_s bench record"),
        ],
    ) {
        return;
    }
    let seed = args.u64("seed", 42);
    let dies = args.u64("dies", 2400);
    let chunk = args.u64("chunk", 600);
    let jobs = args.jobs();
    let sample = args.usize("sample", 256);
    let store_arg = args.str("store").map(PathBuf::from);
    let replay_arg = args.str("replay").map(PathBuf::from);
    let json_path = args.json_path().map(String::from);
    let bench_json = args.str("bench-json").map(String::from);
    args.reject_unknown();

    // The classifier's second pass reads the store back, so simulation
    // always writes one; without --store it lives in a scratch path.
    let scratch = store_arg.is_none() && replay_arg.is_none();
    let store_path = replay_arg.clone().unwrap_or_else(|| {
        store_arg.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("fracdram_population_{}.bin", std::process::id()))
        })
    });

    let (accum, header, digest, records, sim_wall) = if replay_arg.is_some() {
        let (accum, header, digest, records) = replay(&store_path, sample);
        (accum, header, digest, records, None)
    } else {
        let (accum, header, digest, records, wall) =
            simulate(&store_path, seed, dies, chunk, jobs, sample);
        (accum, header, digest, records, Some(wall))
    };

    // ── aggregate block (byte-identical across jobs and replay) ──────
    println!(
        "population — streaming die fleet: Frac-PUF uniqueness, enrollment sizing, \
         vendor/origin classifier"
    );
    println!(
        "dies {}  chunk {}  seed {}  sample {}",
        header.dies, header.chunk, header.base_seed, sample
    );
    println!("store: {records} record(s), digest {digest:016x}\n");

    println!(
        "{}",
        render::header("per-group fingerprint features (mean ± std)")
    );
    println!(
        "{:<6}{:>8}  {:>15}  {:>15}  {:>15}  {:>15}",
        "group",
        "dies",
        pop::FEATURES[0],
        pop::FEATURES[1],
        pop::FEATURES[2],
        pop::FEATURES[3]
    );
    for (g, group) in accum.groups.iter().enumerate() {
        let cells: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    "{:.4} ± {:.4}",
                    group.features[i].mean(),
                    group.features[i].std_dev()
                )
            })
            .collect();
        println!(
            "{:<6}{:>8}  {:>15}  {:>15}  {:>15}  {:>15}",
            GroupId::ALL[g].to_string(),
            group.count,
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }

    println!(
        "\n{}",
        render::header("PUF Hamming-weight distribution (frac-capable dies)")
    );
    let total_hist = accum.hw_hist.total().max(1);
    for i in 0..accum.hw_hist.counts().len() {
        let count = accum.hw_hist.counts()[i];
        if count == 0 {
            continue;
        }
        let share = count as f64 / total_hist as f64;
        println!(
            "[{:.2},{:.2})  {}  {count}",
            accum.hw_hist.bin_lo(i),
            accum.hw_hist.bin_hi(i),
            render::bar(share, 30)
        );
    }

    println!("\n{}", render::header("Frac-PUF population uniqueness"));
    let unique = pop::uniqueness(&accum.reservoir);
    match unique {
        Some(u) => {
            println!(
                "sampled {} of {} fingerprint(s) (seed-keyed reservoir), {} pair(s)",
                u.sampled, accum.puf_valid, u.pairs
            );
            println!(
                "inter-HD mean {:.4}  std {:.4}  min {:.4}  max {:.4}  (ideal 0.5)",
                u.mean_hd, u.std_hd, u.min_hd, u.max_hd
            );
            println!(
                "pair match probability {:.3e} (independent-bit model, {} bits)",
                u.p_match,
                pop::FINGERPRINT_BITS
            );

            println!(
                "\n{}",
                render::header("enrollment database sizing (birthday bound)")
            );
            println!(
                "{:<12}{:>14}{:>14}",
                "population", "P(collision)", "store bytes"
            );
            for (n, label) in ENROLL_SIZES {
                println!(
                    "{label:<12}{:>14.3e}{:>14}",
                    pop::collision_probability(n, u.p_match),
                    n * RECORD_LEN as u64
                );
            }
        }
        None => println!("not enough frac-capable fingerprints sampled"),
    }

    // ── classification pass: read the store back, score the test split.
    let centroids = pop::Centroids::from_accum(&accum);
    let confusion = classify(&store_path, &header, &centroids);
    println!(
        "\n{}",
        render::header("vendor/origin classifier (nearest centroid, z-scored features)")
    );
    println!(
        "train {} die(s), test {} die(s)",
        accum.train_dies,
        confusion.total()
    );
    println!("confusion matrix (rows = true group, cols = predicted):");
    let cols: String = GroupId::ALL
        .iter()
        .map(|g| format!("{:>6}", g.to_string()))
        .collect();
    println!("    {cols}");
    for (g, row) in confusion.counts.iter().enumerate() {
        let cells: String = row.iter().map(|c| format!("{c:>6}")).collect();
        println!("{:<4}{cells}", GroupId::ALL[g].to_string());
    }
    let frac_capable: Vec<usize> = (0..pop::GROUPS)
        .filter(|&g| GroupId::ALL[g].profile().supports_frac())
        .collect();
    let guarded: Vec<usize> = (0..pop::GROUPS)
        .filter(|&g| !GroupId::ALL[g].profile().supports_frac())
        .collect();
    println!(
        "accuracy {:.4} overall — frac-capable (A-I) {:.4}, timing-guarded (J-L) {:.4}",
        confusion.accuracy(),
        confusion.accuracy_over(frac_capable.iter().copied()),
        confusion.accuracy_over(guarded.iter().copied())
    );

    // ── observability (stderr + dumps; not part of the figure) ───────
    let stats = &accum.stats;
    let perf = &accum.perf;
    eprintln!(
        "population: {} DRAM commands ({} ACT, {} RD, {} WR); cache {}h/{}m, {} shared; \
         leak {} skips",
        stats.commands,
        stats.activates,
        stats.reads,
        stats.writes,
        perf.cache_hits,
        perf.cache_misses,
        perf.cache_share_hits,
        perf.leak_row_skips,
    );
    let ns_per_die = sim_wall.map(|wall| {
        let ns = wall.as_nanos() as f64 / header.dies.max(1) as f64;
        eprintln!(
            "population: {} die(s) in {:.3}s — {:.0} dies/s, {:.0} ns/die",
            header.dies,
            wall.as_secs_f64(),
            1e9 / ns.max(1e-9),
            ns
        );
        ns
    });

    if let Some(path) = &json_path {
        let mut doc = Json::obj()
            .field("experiment", "population")
            .field("dies", header.dies)
            .field("chunk", header.chunk)
            .field("base_seed", header.base_seed)
            .field("jobs", jobs)
            .field("store_records", records)
            .field("store_digest", format!("{digest:016x}"))
            .field("puf_valid", accum.puf_valid)
            .field("train_dies", accum.train_dies)
            .field("test_dies", confusion.total())
            .field("accuracy", confusion.accuracy())
            .field("commands", stats.commands)
            .field("cache_share_hits", perf.cache_share_hits);
        if let Some(u) = unique {
            doc = doc
                .field("inter_hd_mean", u.mean_hd)
                .field("inter_hd_min", u.min_hd)
                .field("p_match", u.p_match);
        }
        if let Some(ns) = ns_per_die {
            doc = doc.field("ns_per_die", ns);
        }
        if let Err(err) = std::fs::write(path, format!("{doc}\n")) {
            fracdram_experiments::exit_json_write_error(path, &err);
        }
    }

    if let Some(path) = &bench_json {
        // Record shape matches the kernel bench harness; the gated
        // metric is ns-per-die (smaller is better), and dies/s =
        // 1e9 / median_ns. Replay has no simulation wall, so the
        // record only exists on simulated runs.
        match ns_per_die {
            Some(ns) => {
                let body = format!(
                    "[\n{{\"bench\":\"population/dies_per_s\",\"median_ns\":{ns:.1},\"iters\":{}}}\n]\n",
                    header.dies
                );
                if let Err(err) = std::fs::write(path, body) {
                    fracdram_experiments::exit_json_write_error(path, &err);
                }
            }
            None => eprintln!("population: --bench-json ignored on --replay (no simulation wall)"),
        }
    }

    if scratch {
        std::fs::remove_file(&store_path).ok();
    }
}

/// Simulated pass: stream dies through the fleet, write the store in
/// chunk order, return the merged accumulator.
fn simulate(
    store_path: &std::path::Path,
    seed: u64,
    dies: u64,
    chunk: u64,
    jobs: usize,
    sample: usize,
) -> (pop::PopAccum, StoreHeader, u64, u64, std::time::Duration) {
    let header = StoreHeader {
        chunk,
        base_seed: seed,
        dies,
    };
    let writer = match StoreWriter::create(store_path, header) {
        Ok(w) => RefCell::new(w),
        Err(err) => exit_store_error("create", store_path, &err),
    };
    let flush = |acc: &mut pop::PopAccum| {
        if acc.records.is_empty() {
            return;
        }
        if let Err(err) = writer.borrow_mut().append_chunk(&acc.records) {
            exit_store_error("append to", store_path, &err);
        }
        acc.records.clear();
    };

    let cfg = StreamConfig {
        items: dies,
        chunk,
        jobs,
        base_seed: seed,
        window: 0,
    };
    let started = Instant::now();
    let run = run_stream(
        &cfg,
        |_, range| {
            let mut acc = pop::PopAccum::new(seed, sample);
            for i in range {
                let die_seed = item_seed(seed, i);
                let (record, metrics) = pop::simulate_die(pop::group_of(i), die_seed);
                acc.stats.accumulate(&metrics.cycles);
                acc.perf.accumulate(&metrics.model);
                acc.push(seed, i, &record);
            }
            acc
        },
        |total, mut incoming| {
            // The reducer calls this in ascending chunk order; writing
            // both pending buffers here keeps the store in global die
            // order (total's records are only non-empty on the first
            // merge, holding chunk 0).
            flush(total);
            flush(&mut incoming);
            total.merge(&incoming);
        },
    );
    let wall = started.elapsed();
    if !run.failures.is_empty() {
        for f in &run.failures {
            eprintln!("population: FAILED {f}");
        }
        std::process::exit(1);
    }
    let mut accum = run
        .result
        .unwrap_or_else(|| pop::PopAccum::new(seed, sample));
    // Single-chunk runs never call merge; drain the leftover buffer.
    flush(&mut accum);
    let (records, digest) = match writer.into_inner().finish() {
        Ok(done) => done,
        Err(err) => exit_store_error("finish", store_path, &err),
    };
    eprintln!(
        "population: stream done — {} chunk(s), peak {} pending accumulator(s) (bound {})",
        run.chunks,
        run.peak_pending,
        cfg.jobs * 4
    );
    (accum, header, digest, records, wall)
}

/// Replay pass: fold the store's records with the same chunk structure
/// and merge order as the run that wrote it — the aggregate block comes
/// out bit-identical, with zero simulation.
fn replay(store_path: &std::path::Path, sample: usize) -> (pop::PopAccum, StoreHeader, u64, u64) {
    let mut reader = match StoreReader::open(store_path) {
        Ok(r) => r,
        Err(err) => exit_store_error("open", store_path, &err),
    };
    let header = *reader.header();
    let mut total: Option<pop::PopAccum> = None;
    let mut index = 0u64;
    loop {
        let mut acc = pop::PopAccum::new(header.base_seed, sample);
        let mut folded = 0u64;
        while folded < header.chunk {
            match reader.next_record() {
                Ok(Some(record)) => {
                    acc.push(header.base_seed, index, &record);
                    index += 1;
                    folded += 1;
                }
                Ok(None) => break,
                Err(err) => exit_store_error("read", store_path, &err),
            }
        }
        if folded == 0 {
            break;
        }
        acc.records.clear();
        match &mut total {
            Some(t) => t.merge(&acc),
            None => total = Some(acc),
        }
        if folded < header.chunk {
            break;
        }
    }
    if reader.torn() {
        eprintln!(
            "population: store tail is torn — replayed the valid prefix ({} of {} records)",
            reader.records_read(),
            header.dies
        );
    }
    eprintln!(
        "population: replayed {} record(s) from {}",
        reader.records_read(),
        store_path.display()
    );
    (
        total.unwrap_or_else(|| pop::PopAccum::new(header.base_seed, sample)),
        header,
        reader.digest(),
        reader.records_read(),
    )
}

/// Classification pass: sequential read of the store, scoring the test
/// split against the trained centroids.
fn classify(
    store_path: &std::path::Path,
    header: &StoreHeader,
    centroids: &pop::Centroids,
) -> pop::Confusion {
    let mut reader = match StoreReader::open(store_path) {
        Ok(r) => r,
        Err(err) => exit_store_error("re-open", store_path, &err),
    };
    let mut confusion = pop::Confusion::default();
    let mut index = 0u64;
    loop {
        match reader.next_record() {
            Ok(Some(record)) => {
                if !pop::is_train(header.base_seed, index) {
                    confusion.record(record.group as usize, centroids.classify(&record.features));
                }
                index += 1;
            }
            Ok(None) => break,
            Err(err) => exit_store_error("read", store_path, &err),
        }
    }
    confusion
}
