//! Plain timing harness for the kernel microbenchmarks (the
//! workspace's `criterion` replacement).
//!
//! Keeps the parts we actually used: warm-up, many timed samples,
//! median/mean reporting, and a grouped naming scheme. Run via
//! `cargo bench -p mars-bench --bench kernels`; pass `--smoke` for a
//! single-iteration correctness pass (used by `scripts/verify.sh`).

use mars_json::Json;
use std::io::Write;
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
    /// Record a telemetry JSONL capture to this path (`--telemetry`).
    pub telemetry: Option<String>,
}

impl BenchOpts {
    /// Parse `std::env::args`, ignoring harness flags cargo forwards
    /// (e.g. `--bench`).
    pub fn from_args() -> Self {
        let mut smoke = false;
        let mut filter = None;
        let mut telemetry = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--telemetry" => telemetry = args.next(),
                "--bench" | "--test" => {}
                s if s.starts_with("--") => {}
                s => filter = Some(s.to_string()),
            }
        }
        BenchOpts { smoke, filter, telemetry }
    }

    /// Install the file recorder when `--telemetry <path>` was given.
    /// Call [`BenchOpts::finish`] at the end of the bench to flush it.
    pub fn install_telemetry(&self) {
        if let Some(path) = &self.telemetry {
            if let Err(e) = mars_telemetry::install_file(path) {
                eprintln!("cannot open telemetry sink '{path}': {e}");
            }
        }
    }

    /// Flush and close the telemetry recorder, if one was installed.
    pub fn finish(&self) {
        if let Some(path) = &self.telemetry {
            if mars_telemetry::uninstall() {
                println!("(telemetry written to {path})");
            }
        }
    }

    /// Whether `name` passes the filter.
    pub fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }
}

/// Timing summary of one benchmark.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark name.
    pub name: String,
    /// Number of timed iterations.
    pub iters: u32,
    /// Median per-iteration time.
    pub median: Duration,
    /// Mean per-iteration time.
    pub mean: Duration,
    /// 10th-percentile per-iteration time.
    pub p10: Duration,
    /// 90th-percentile per-iteration time.
    pub p90: Duration,
}

impl Sample {
    /// JSON record for the machine-readable sample log.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.as_str().into()),
            ("iters", (self.iters as f64).into()),
            ("median_ns", (self.median.as_nanos() as f64).into()),
            ("mean_ns", (self.mean.as_nanos() as f64).into()),
            ("p10_ns", (self.p10.as_nanos() as f64).into()),
            ("p90_ns", (self.p90.as_nanos() as f64).into()),
        ])
    }
}

/// `rel` under the workspace root, wherever the bench runs from (cargo
/// runs benches with the crate directory as CWD).
pub(crate) fn workspace_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

/// Write a `BENCH_*.json` perf baseline at the repository root: one
/// record per benchmark (median + p10/p90 nanoseconds). These files are
/// the trajectory future PRs compare against; `basename` must be the
/// bare file name, e.g. `"BENCH_kernels.json"`.
pub fn write_baseline(basename: &str, samples: &[Sample]) {
    let json = Json::obj([("benchmarks", Json::arr(samples.iter().map(Sample::to_json)))]);
    let path = workspace_path(basename);
    match std::fs::write(&path, format!("{json}\n")) {
        Ok(()) => println!("(baseline written to {basename})"),
        Err(e) => eprintln!("cannot write '{}': {e}", path.display()),
    }
}

/// Append one sample to `target/experiments/bench_samples.jsonl` so
/// runs accumulate a machine-readable history next to the table JSON.
fn append_sample_jsonl(sample: &Sample) {
    let dir = workspace_path("target/experiments");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    if let Ok(mut f) =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join("bench_samples.jsonl"))
    {
        let _ = writeln!(f, "{}", sample.to_json());
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Time `f`, printing a one-line summary. In smoke mode runs a single
/// iteration. Returns `None` when filtered out or in smoke mode.
pub fn bench<F: FnMut()>(opts: &BenchOpts, name: &str, mut f: F) -> Option<Sample> {
    if !opts.selected(name) {
        return None;
    }
    if opts.smoke {
        let t0 = Instant::now();
        f();
        println!("{name:<44} smoke ok ({})", fmt_duration(t0.elapsed()));
        return None;
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
    let p10 = times[times.len() / 10];
    let p90 = times[(times.len() * 9 / 10).min(times.len() - 1)];
    println!(
        "{name:<44} median {:>12}   mean {:>12}   ({iters} iters)",
        fmt_duration(median),
        fmt_duration(mean)
    );
    let sample = Sample { name: name.to_string(), iters, median, mean, p10, p90 };
    append_sample_jsonl(&sample);
    Some(sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        let opts = BenchOpts { smoke: true, filter: None, telemetry: None };
        let mut count = 0;
        let r = bench(&opts, "noop", || count += 1);
        assert!(r.is_none());
        assert_eq!(count, 1);
    }

    #[test]
    fn filter_skips_non_matching() {
        let opts = BenchOpts { smoke: true, filter: Some("matmul".into()), telemetry: None };
        let mut ran = false;
        bench(&opts, "simulate_step", || ran = true);
        assert!(!ran);
        assert!(opts.selected("matmul/128"));
    }

    #[test]
    fn measured_mode_reports_stats() {
        let opts = BenchOpts { smoke: false, filter: None, telemetry: None };
        // A cheap body: the harness clamps iteration counts, so this
        // stays fast even with the 300 ms warm-up.
        let sample = bench(&opts, "spin", || {
            std::hint::black_box(2u64.pow(10));
        })
        .expect("sample");
        assert!(sample.iters >= 5);
        assert!(sample.median <= sample.mean * 10);
    }

    #[test]
    fn duration_formatting_scales() {
        assert!(fmt_duration(Duration::from_nanos(50)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(20)).ends_with(" s"));
    }
}
