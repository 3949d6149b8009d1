//! Process and machine facts read from `/proc`: CPU time, peak resident
//! memory, and the fingerprint that stamps every result.

use std::path::Path;

/// Clock ticks per second for `/proc/<pid>/stat`, read from the
/// auxiliary vector (`AT_CLKTCK`), falling back to the usual 100.
fn clock_ticks() -> f64 {
    const AT_CLKTCK: u64 = 17;
    if let Ok(aux) = std::fs::read("/proc/self/auxv") {
        for pair in aux.chunks_exact(16) {
            let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte key"));
            let value = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte value"));
            if key == AT_CLKTCK && value > 0 {
                return value as f64;
            }
        }
    }
    100.0
}

/// User plus system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / clock_ticks(),
        _ => 0.0,
    }
}

/// Resets the peak resident set size (`VmHWM`) to the current one, so
/// the next [`peak_rss_mb`] reads the peak of what ran in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a short command, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest over every file under `dir` (sorted paths, path and
/// contents), identifying the source tree when no git metadata exists.
fn tree_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    fracdram_experiments::store::fnv1a64(&bytes)
}

/// The machine and source fingerprint printed beside every result.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git_rev={} crates_digest={:016x}",
        command_line("rustc", &["-V"]),
        if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "--short=12", "HEAD"])
        } else {
            "none".to_string()
        },
        tree_digest(Path::new("crates")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_positive() {
        let spin: u64 = (0..2_000_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(clock_ticks() > 0.0);
    }
}
