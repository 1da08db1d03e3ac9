//! Host facts recorded with every run, so results can state how noisy
//! the host was: core count, load average, a fixed calibration loop, and
//! process memory from `/proc`.

use std::hint::black_box;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The one-minute load average.
pub fn load1() -> Result<f64, String> {
    let text = read("/proc/loadavg")?;
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable /proc/loadavg: {text:?}"))
}

/// Cumulative CPU time stolen by the hypervisor, and all CPU time, in
/// ticks, from the first line of `/proc/stat`.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let text = read("/proc/stat")?;
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    match ticks.get(7) {
        Some(&steal) => Ok((steal, ticks.iter().sum())),
        None => Err("no steal column in /proc/stat".into()),
    }
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings, in %.
pub fn steal_pct((steal0, total0): (u64, u64), (steal1, total1): (u64, u64)) -> f64 {
    100.0 * steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64
}

/// Median time in ms of three runs of a fixed integer loop. It does the
/// same work on every host and build, so it moves only with the speed
/// the host gives this process.
pub fn calib_ms() -> f64 {
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..20_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// Resident set size now, in MiB.
pub fn rss_mib() -> Result<f64, String> {
    status_kib("VmRSS:").map(|k| k / 1024.0)
}

/// The process's resident high-water mark, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    status_kib("VmHWM:").map(|k| k / 1024.0)
}

fn status_kib(key: &str) -> Result<f64, String> {
    let text = read("/proc/self/status")?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {key} line in /proc/self/status"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}
