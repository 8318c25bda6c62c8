//! Reading what the program already records — the span aggregate and
//! the counters — plus process-level facts: peak RSS, provenance, and
//! the FNV checksum used to compare two commits' traces by eye.

use crate::report::Run;
use mars_telemetry::spans;
use std::collections::HashMap;
use std::process::Command;

/// The span aggregate rolled up by span name. The registry keys spans
/// by call path, so one kernel appears once under each caller; a
/// layer's self time is the sum over every path that ends in its name.
pub struct Rollup(HashMap<String, (u64, u64)>);

impl Rollup {
    pub fn capture() -> Rollup {
        let mut by_name: HashMap<String, (u64, u64)> = HashMap::new();
        for (path, stat) in spans::snapshot() {
            let name = path.rsplit('/').next().unwrap_or(&path).to_string();
            let e = by_name.entry(name).or_default();
            e.0 += stat.count;
            e.1 += stat.self_ns;
        }
        Rollup(by_name)
    }

    pub fn calls(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0 as f64)
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1 as f64 * 1e-9)
    }

    /// Every per-layer metric that is read straight from the span
    /// aggregate: `<span>.self_s`, and call counts where a count is the
    /// layer's work.
    pub fn report(&self, run: &mut Run) {
        for span in [
            "tensor.ops.matmul",
            "tensor.ops.matmul_nt",
            "tensor.ops.matmul_tn",
            "tensor.ops.spmm",
            "tensor.ops.spmm_t",
            "tensor.pool.par_chunks_mut",
            "autograd.tape.backward",
            "nn.lstm.bi_run",
            "nn.attention.read",
            "nn.gcn.forward",
            "sim.engine.simulate",
            "core.agent.update",
            "core.agent.sample",
            "core.dgi.pretrain",
            "core.infer.policy_probs",
            "serve.request",
            "serve.engine.place",
        ] {
            run.set(format!("{span}.self_s"), self.self_s(span));
        }
        run.set("autograd.tape.backward.calls", self.calls("autograd.tape.backward"));
        run.set("core.infer.calls", self.calls("core.infer.policy_probs"));
    }

    /// Summed self time of every span whose name starts with `prefix`
    /// (a whole crate: `"tensor."`).
    pub fn layer_self_s(&self, prefix: &str) -> f64 {
        // `+ 0.0`: an empty float sum is -0.0, which prints as "-0.0%".
        self.0
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, e)| e.1 as f64 * 1e-9)
            .sum::<f64>()
            + 0.0
    }
}

/// Current value of one of the program's always-on counters.
pub fn counter(name: &str) -> u64 {
    mars_telemetry::counter(name).get()
}

/// `VmHWM` of this process in MiB. The driver runs one workload per
/// process, so the high-water mark belongs to that workload alone.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of 64-bit words (the wire protocol's frame
/// checksum), as 16 hex digits.
pub fn fnv_hex(words: impl Iterator<Item = u64>) -> String {
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    format!("{:016x}", mars_net::frame::checksum(&bytes))
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers came from. `MARS_THREADS` and `MARS_KERNEL` are
/// left as the caller set them (normally unset) and only recorded.
pub fn provenance() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let pool_threads =
        std::env::var("MARS_THREADS").ok().and_then(|s| s.trim().parse::<usize>().ok());
    vec![
        ("commit", first_line_of("git", &["rev-parse", "HEAD"])),
        ("rustc", first_line_of("rustc", &["--version"])),
        ("cores", cores.to_string()),
        ("kernel_backend", mars_tensor::kernel::backend().name().to_string()),
        ("pool_threads", pool_threads.filter(|&n| n > 0).unwrap_or(cores).to_string()),
        ("MARS_THREADS", env("MARS_THREADS")),
        ("MARS_KERNEL", env("MARS_KERNEL")),
    ]
}
