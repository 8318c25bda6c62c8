//! Deterministic fault injection for the evaluation environment.
//!
//! Real placement-measurement fleets lose devices, hit transient
//! launcher errors, and suffer stragglers; an agent trained against
//! such a fleet must survive all three without its training trace
//! becoming machine-dependent. A [`FaultPlan`] describes *when* faults
//! happen purely in terms of the environment's global evaluation index,
//! and every probabilistic draw is seeded from `(env seed, evaluation
//! index)` with the same SplitMix64 folding scheme the measurement
//! noise uses. A run under a plan is therefore bit-identical to every
//! same-seed rerun under the same plan.
//!
//! Two fault classes exist:
//!
//! * **Boundary faults** ([`FaultKind::DeviceFailure`],
//!   [`FaultKind::AgentCrash`]) fire *between* evaluations — the
//!   environment degrades its cluster or flags a crash before the
//!   indexed evaluation starts.
//! * **Commit faults** ([`FaultKind::Transient`],
//!   [`FaultKind::Straggler`]) perturb a single evaluation's outcome
//!   and machine-time cost at commit time, after the pure computation
//!   is in hand.

use crate::device::{Cluster, DeviceId, DeviceKind};
use mars_rng::rngs::SplitMix64;
use mars_rng::RngCore;

/// Domain-separation salt for fault draws ("MARSFALT").
const FAULT_SALT: u64 = 0x4d41_5253_4641_4c54;

/// What kind of fault an event injects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The device permanently drops out of the cluster.
    DeviceFailure {
        /// Which device dies.
        device: DeviceId,
    },
    /// The training process is killed (checkpoint/resume exercise).
    AgentCrash,
    /// The indexed evaluation fails `failures` times before succeeding.
    Transient {
        /// Consecutive failed attempts before one would succeed.
        failures: u32,
    },
    /// The indexed evaluation runs `slowdown`× slower end to end.
    Straggler {
        /// Machine-time multiplication factor (≥ 1).
        slowdown: f64,
    },
}

/// One scheduled fault: `kind` strikes at global evaluation `at_eval`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    /// Global evaluation index (the environment's evaluation counter).
    pub at_eval: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults plus background fault rates.
///
/// Parsed from a compact spec string (see [`FaultPlan::parse`]):
///
/// ```text
/// fail:2@40            device 2 dies before evaluation 40
/// crash@60             agent crash before evaluation 60
/// transient@10         evaluation 10 fails once, then succeeds
/// transient:0.05       every evaluation fails once w.p. 0.05
/// straggler:8@25       evaluation 25 runs 8× slower
/// straggler:0.02x6     every evaluation straggles 6× w.p. 0.02
/// ```
///
/// Clauses are comma-separated and freely mixed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, sorted by [`Fault::at_eval`].
    pub events: Vec<Fault>,
    /// Per-evaluation probability of a background transient error.
    pub transient_p: f64,
    /// Failed attempts per background transient error.
    pub transient_failures: u32,
    /// Per-evaluation probability of a background straggler.
    pub straggler_p: f64,
    /// Slowdown factor of background stragglers (≥ 1).
    pub straggler_slowdown: f64,
}

impl FaultPlan {
    /// The empty plan: no faults, ever.
    pub fn none() -> Self {
        FaultPlan {
            events: Vec::new(),
            transient_p: 0.0,
            transient_failures: 1,
            straggler_p: 0.0,
            straggler_slowdown: 4.0,
        }
    }

    /// True when the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.transient_p <= 0.0 && self.straggler_p <= 0.0
    }

    /// Parse the spec grammar documented on [`FaultPlan`]. Returns a
    /// descriptive error naming the offending clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            plan.parse_clause(clause)?;
        }
        plan.events.sort_by_key(|f| f.at_eval);
        Ok(plan)
    }

    fn parse_clause(&mut self, clause: &str) -> Result<(), String> {
        let bad = |what: &str| format!("fault plan: {what} in clause '{clause}'");
        if let Some(rest) = clause.strip_prefix("fail:") {
            let (dev, at) =
                rest.split_once('@').ok_or_else(|| bad("expected 'fail:<dev>@<eval>'"))?;
            let device: DeviceId = dev.parse().map_err(|_| bad("bad device id"))?;
            let at_eval: u64 = at.parse().map_err(|_| bad("bad evaluation index"))?;
            self.events.push(Fault { at_eval, kind: FaultKind::DeviceFailure { device } });
        } else if let Some(rest) = clause.strip_prefix("crash@") {
            let at_eval: u64 = rest.parse().map_err(|_| bad("bad evaluation index"))?;
            self.events.push(Fault { at_eval, kind: FaultKind::AgentCrash });
        } else if let Some(rest) = clause.strip_prefix("transient@") {
            let at_eval: u64 = rest.parse().map_err(|_| bad("bad evaluation index"))?;
            self.events.push(Fault { at_eval, kind: FaultKind::Transient { failures: 1 } });
        } else if let Some(rest) = clause.strip_prefix("transient:") {
            let p: f64 = rest.parse().map_err(|_| bad("bad probability"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(bad("probability must be in [0, 1]"));
            }
            self.transient_p = p;
        } else if let Some(rest) = clause.strip_prefix("straggler:") {
            if let Some((slow, at)) = rest.split_once('@') {
                let slowdown: f64 = slow.parse().map_err(|_| bad("bad slowdown factor"))?;
                if slowdown < 1.0 || slowdown.is_nan() {
                    return Err(bad("slowdown must be ≥ 1"));
                }
                let at_eval: u64 = at.parse().map_err(|_| bad("bad evaluation index"))?;
                self.events.push(Fault { at_eval, kind: FaultKind::Straggler { slowdown } });
            } else if let Some((p, slow)) = rest.split_once('x') {
                let p: f64 = p.parse().map_err(|_| bad("bad probability"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(bad("probability must be in [0, 1]"));
                }
                let slowdown: f64 = slow.parse().map_err(|_| bad("bad slowdown factor"))?;
                if slowdown < 1.0 || slowdown.is_nan() {
                    return Err(bad("slowdown must be ≥ 1"));
                }
                self.straggler_p = p;
                self.straggler_slowdown = slowdown;
            } else {
                return Err(bad("expected 'straggler:<slow>@<eval>' or 'straggler:<p>x<slow>'"));
            }
        } else {
            return Err(bad("unknown clause"));
        }
        Ok(())
    }

    /// Reject plans that cannot be applied to `cluster`: out-of-range
    /// device ids and CPU failures (the host never "fails away" — ops
    /// without a GPU kernel need somewhere to live).
    pub fn validate(&self, cluster: &Cluster) -> Result<(), String> {
        for f in &self.events {
            if let FaultKind::DeviceFailure { device } = f.kind {
                if device >= cluster.num_devices() {
                    return Err(format!(
                        "fault plan: device {device} out of range (cluster has {})",
                        cluster.num_devices()
                    ));
                }
                if cluster.device(device).kind == DeviceKind::Cpu {
                    return Err(format!("fault plan: device {device} is the CPU; it cannot fail"));
                }
            }
        }
        Ok(())
    }

    /// The boundary faults (device failures and crashes), in firing
    /// order. The environment walks this list with a cursor.
    pub fn boundaries(&self) -> Vec<Fault> {
        self.events
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::DeviceFailure { .. } | FaultKind::AgentCrash))
            .cloned()
            .collect()
    }

    /// Uniform draw in `[0, 1)` for `(seed, eval, stream)` — a pure
    /// function of its arguments, independent of draw order.
    fn u01(seed: u64, eval: u64, stream: u64) -> f64 {
        let mixed = seed ^ FAULT_SALT ^ eval.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (stream << 56);
        (SplitMix64::new(mixed).next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Failed attempts evaluation `eval` must absorb: the scheduled
    /// count if a `transient@` event targets it, else a background draw.
    pub fn transient_failures_at(&self, seed: u64, eval: u64) -> u32 {
        for f in &self.events {
            if f.at_eval == eval {
                if let FaultKind::Transient { failures } = f.kind {
                    return failures;
                }
            }
        }
        if self.transient_p > 0.0 && Self::u01(seed, eval, 1) < self.transient_p {
            self.transient_failures
        } else {
            0
        }
    }

    /// Straggler slowdown for evaluation `eval`, if any: the scheduled
    /// factor if a `straggler:<slow>@` event targets it, else a
    /// background draw.
    pub fn straggler_at(&self, seed: u64, eval: u64) -> Option<f64> {
        for f in &self.events {
            if f.at_eval == eval {
                if let FaultKind::Straggler { slowdown } = f.kind {
                    return Some(slowdown);
                }
            }
        }
        if self.straggler_p > 0.0 && Self::u01(seed, eval, 2) < self.straggler_p {
            Some(self.straggler_slowdown)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let p = FaultPlan::parse(
            "fail:2@40, crash@60, transient@10, transient:0.05, \
                                  straggler:8@25, straggler:0.02x6",
        )
        .expect("valid spec");
        assert_eq!(p.events.len(), 4);
        // Sorted by firing index.
        assert_eq!(p.events[0].at_eval, 10);
        assert_eq!(p.events[3].kind, FaultKind::AgentCrash);
        assert_eq!(p.transient_p, 0.05);
        assert_eq!(p.straggler_p, 0.02);
        assert_eq!(p.straggler_slowdown, 6.0);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_spec_is_no_faults() {
        let p = FaultPlan::parse("").expect("empty ok");
        assert!(p.is_empty());
        assert_eq!(p, FaultPlan::none());
    }

    #[test]
    fn parse_errors_name_the_clause() {
        for bad in [
            "fail:2",
            "fail:x@3",
            "crash@soon",
            "transient:1.5",
            "straggler:0.5x0.5",
            "straggler:nope",
            "bogus",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.contains(bad), "error for '{bad}' should quote it: {err}");
        }
    }

    #[test]
    fn validate_rejects_cpu_and_out_of_range() {
        let c = Cluster::p100_quad();
        assert!(FaultPlan::parse("fail:0@5").unwrap().validate(&c).is_err(), "CPU");
        assert!(FaultPlan::parse("fail:9@5").unwrap().validate(&c).is_err(), "range");
        assert!(FaultPlan::parse("fail:2@5").unwrap().validate(&c).is_ok());
    }

    #[test]
    fn draws_are_pure_functions_of_seed_and_index() {
        let p = FaultPlan::parse("transient:0.3, straggler:0.3x4").unwrap();
        for eval in 0..64 {
            assert_eq!(
                p.transient_failures_at(7, eval),
                p.transient_failures_at(7, eval),
                "eval {eval}"
            );
            assert_eq!(p.straggler_at(7, eval), p.straggler_at(7, eval), "eval {eval}");
        }
        // Different seeds decorrelate.
        let hits_a: u32 = (0..256).map(|e| p.transient_failures_at(1, e)).sum();
        let hits_b: u32 = (0..256).map(|e| p.transient_failures_at(2, e)).sum();
        assert!(hits_a > 0 && hits_b > 0);
        let differs =
            (0..256).any(|e| p.transient_failures_at(1, e) != p.transient_failures_at(2, e));
        assert!(differs, "seeds must decorrelate draws");
    }

    #[test]
    fn background_rates_are_roughly_calibrated() {
        let p = FaultPlan::parse("transient:0.25, straggler:0.25x4").unwrap();
        let n = 2000u64;
        let transients = (0..n).filter(|&e| p.transient_failures_at(3, e) > 0).count();
        let stragglers = (0..n).filter(|&e| p.straggler_at(3, e).is_some()).count();
        for hits in [transients, stragglers] {
            let rate = hits as f64 / n as f64;
            assert!((0.18..0.32).contains(&rate), "rate {rate}");
        }
    }

    #[test]
    fn scheduled_events_override_background() {
        let p = FaultPlan::parse("transient@5, straggler:7@9").unwrap();
        assert_eq!(p.transient_failures_at(0, 5), 1);
        assert_eq!(p.transient_failures_at(0, 6), 0, "no background rate");
        assert_eq!(p.straggler_at(0, 9), Some(7.0));
        assert_eq!(p.straggler_at(0, 8), None);
    }

    #[test]
    fn boundaries_filter_keeps_order() {
        let p = FaultPlan::parse("transient@1, fail:2@3, crash@8, straggler:5@4").unwrap();
        let b = p.boundaries();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0], Fault { at_eval: 3, kind: FaultKind::DeviceFailure { device: 2 } });
        assert_eq!(b[1], Fault { at_eval: 8, kind: FaultKind::AgentCrash });
    }
}
