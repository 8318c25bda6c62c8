//! Plain timing harness for the kernel microbenchmarks (the
//! workspace's `criterion` replacement).
//!
//! Keeps the parts we actually used: warm-up, many timed samples,
//! median/mean reporting, and a grouped naming scheme. It prints to
//! stdout and writes no file: performance is gated by the ledger
//! (`BENCHMARK.json`), and these medians are for a developer's eye. Run via
//! `cargo bench -p mars-bench --bench kernels`; pass `--smoke` for a
//! single-iteration correctness pass (used by `scripts/verify.sh`).

use mars_telemetry::summary::fmt_ns;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parsed command-line options for a bench binary.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// One iteration per benchmark, no statistics: proves the bench
    /// code runs without paying measurement time.
    pub smoke: bool,
    /// Substring filter over benchmark names (first free argument).
    pub filter: Option<String>,
}

impl BenchOpts {
    /// Parse `std::env::args`, ignoring harness flags cargo forwards
    /// (e.g. `--bench`).
    pub fn from_args() -> Self {
        let mut smoke = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--smoke" => smoke = true,
                s if s.starts_with("--") => {}
                s => filter = Some(s.to_string()),
            }
        }
        BenchOpts { smoke, filter }
    }

    /// Whether `name` passes the filter.
    pub fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }
}

/// `rel` under the workspace root, wherever the bench runs from (cargo
/// runs benches with the crate directory as CWD).
pub(crate) fn workspace_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

/// Time `f` and print a one-line summary (median and mean per
/// iteration); in smoke mode run it once. Does nothing when filtered out.
pub fn bench<F: FnMut()>(opts: &BenchOpts, name: &str, mut f: F) {
    if !opts.selected(name) {
        return;
    }
    if opts.smoke {
        let t0 = Instant::now();
        f();
        println!("{name:<44} smoke ok ({})", fmt_ns(t0.elapsed().as_nanos() as u64));
        return;
    }

    // Warm-up for ~300 ms, measuring a rough per-iter cost.
    let warmup = Duration::from_millis(300);
    let t0 = Instant::now();
    let mut warm_iters = 0u32;
    while t0.elapsed() < warmup {
        f();
        warm_iters += 1;
    }
    let rough = t0.elapsed() / warm_iters.max(1);

    // Aim for ~2 s of measurement across up to 60 samples.
    let target = Duration::from_secs(2);
    let iters = ((target.as_nanos() / rough.as_nanos().max(1)) as u32).clamp(5, 10_000);
    let mut times: Vec<Duration> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        times.push(t.elapsed());
    }
    times.sort_unstable();
    let median = times[times.len() / 2];
    let mean = times.iter().sum::<Duration>() / iters;
    println!(
        "{name:<44} median {:>12}   mean {:>12}   ({iters} iters)",
        fmt_ns(median.as_nanos() as u64),
        fmt_ns(mean.as_nanos() as u64)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        let opts = BenchOpts { smoke: true, filter: None };
        let mut count = 0;
        bench(&opts, "noop", || count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn filter_skips_non_matching() {
        let opts = BenchOpts { smoke: true, filter: Some("matmul".into()) };
        let mut ran = false;
        bench(&opts, "simulate_step", || ran = true);
        assert!(!ran);
        assert!(opts.selected("matmul/128"));
    }

    #[test]
    fn measured_mode_times_at_least_five_iterations() {
        let opts = BenchOpts { smoke: false, filter: None };
        // A cheap body: the harness clamps iteration counts, so this
        // stays fast even with the 300 ms warm-up.
        let mut count = 0u32;
        bench(&opts, "spin", || count += 1);
        assert!(count > 5, "warm-up plus at least five timed iterations: {count}");
    }
}
