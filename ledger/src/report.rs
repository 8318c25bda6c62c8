//! The metric contract (`BENCHMARK.json`), order statistics, and the
//! result a workload hands back to `main`.

use mars_json::Json;
use std::time::Instant;

/// `BENCHMARK.json` is the single source of metric names, units and
/// bounds: the ledger refuses to print a result whose names disagree
/// with it, so the file the driver reads and the binary cannot drift.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the median by which an end-to-end metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    pub fn load() -> Contract {
        let j = Json::parse(CONTRACT).expect("BENCHMARK.json parses");
        let specs = |key: &str| -> Vec<MetricSpec> {
            j[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| MetricSpec {
                    name: m["name"].as_str().expect("metric name").to_string(),
                    unit: m["unit"].as_str().expect("metric unit").to_string(),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            run_seconds: j["run_seconds"].as_f64().expect("run_seconds"),
            end_to_end: specs("end_to_end"),
            per_layer: specs("per_layer"),
        }
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Run {
    /// Operations attempted (PPO rounds, DGI runs, requests) and how
    /// many of them failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Run-level check failures, one line each; empty means correct.
    pub errors: Vec<String>,
    /// Metric values by contract name. End-to-end metrics are always
    /// filled; per-layer metrics a workload does not exercise stay
    /// absent and print as 0.
    pub values: Vec<(String, f64)>,
    /// Human-readable context printed above the result line: sample
    /// counts, which percentile the tail is, quality and checksums.
    pub notes: Vec<(&'static str, String)>,
}

impl Run {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().rev().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the metrics being the contract's list for this mode.
    /// A name this run produced that the contract lacks, or an
    /// end-to-end metric it failed to produce, is a bug in the ledger.
    pub fn result_line(&self, contract: &Contract, traced: bool) -> Result<String, String> {
        let known =
            |n: &str| contract.end_to_end.iter().chain(&contract.per_layer).any(|s| s.name == n);
        if let Some((n, _)) = self.values.iter().find(|(n, _)| !known(n)) {
            return Err(format!("metric '{n}' is not in BENCHMARK.json"));
        }
        let specs = if traced { &contract.per_layer } else { &contract.end_to_end };
        let mut metrics = Vec::with_capacity(specs.len());
        for s in specs {
            let value = match self.get(&s.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric '{}' was not measured", s.name)),
            };
            metrics.push((
                s.name.clone(),
                Json::obj([("value", Json::from(value)), ("unit", Json::from(s.unit.as_str()))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::from(self.errors.is_empty() && self.failed == 0)),
            ("attempted", Json::from(self.attempted as f64)),
            ("failed", Json::from(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string())
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median wall time of `f` over `n` calls, in the given unit per second.
pub fn median_of(n: usize, per_s: f64, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_secs_f64() * per_s
        })
        .collect();
    median(&samples)
}

/// The tail a sample supports: p99, or with fewer than 1000 samples the
/// highest order statistic that still has ten samples beyond it, or
/// the maximum when there are not even eleven. Returns the value and
/// the percentile it stands for.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    let p99 = (n * 99).div_ceil(100).saturating_sub(1);
    let idx = if n >= 11 { p99.min(n - 11) } else { n - 1 };
    (sorted[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        let v: Vec<f64> = (0..10).map(|i| (1u32 << i) as f64).collect();
        assert_eq!(quartiles(&v), [3.5, 24.0, 160.0]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (30.0, 75.0));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), (1980.0, 99.0));
        assert_eq!(tail(&[5.0, 7.0]).0, 7.0);
    }

    #[test]
    fn contract_parses_and_names_are_unique() {
        let c = Contract::load();
        let mut names: Vec<&str> =
            c.end_to_end.iter().chain(&c.per_layer).map(|s| s.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(c.end_to_end.iter().all(|s| s.bound.is_some()));
    }
}
