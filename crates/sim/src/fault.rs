//! Deterministic device failure for the evaluation environment.
//!
//! A real placement-measurement fleet can lose a GPU mid-search; an
//! agent trained against such a fleet must keep placing on the devices
//! left without its training trace becoming machine-dependent. A
//! [`FaultPlan`] says *when* devices fail purely in terms of the
//! environment's global evaluation index. A failure fires between
//! evaluations: the environment degrades its cluster before the indexed
//! evaluation starts, and every later placement is remapped off the
//! dead device. The plan draws nothing at random, so a run under a plan
//! is bit-identical to every same-seed rerun under the same plan.

use crate::device::{Cluster, DeviceId, DeviceKind};

/// One scheduled fault: `device` permanently drops out of the cluster
/// before global evaluation `at_eval`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    /// Global evaluation index (the environment's evaluation counter).
    pub at_eval: u64,
    /// Which device dies.
    pub device: DeviceId,
}

/// A deterministic schedule of device failures.
///
/// Parsed from a compact spec string (see [`FaultPlan::parse`]):
///
/// ```text
/// fail:2@40            device 2 dies before evaluation 40
/// ```
///
/// Clauses are comma-separated.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, sorted by [`Fault::at_eval`]: the order in
    /// which the environment fires them.
    pub events: Vec<Fault>,
}

impl FaultPlan {
    /// Parse the spec grammar documented on [`FaultPlan`]. Returns a
    /// descriptive error naming the offending clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut events = spec
            .split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(Self::parse_clause)
            .collect::<Result<Vec<_>, _>>()?;
        events.sort_by_key(|f| f.at_eval);
        Ok(FaultPlan { events })
    }

    fn parse_clause(clause: &str) -> Result<Fault, String> {
        let bad = |what: &str| format!("fault plan: {what} in clause '{clause}'");
        let (dev, at) = clause
            .strip_prefix("fail:")
            .and_then(|rest| rest.split_once('@'))
            .ok_or_else(|| bad("expected 'fail:<dev>@<eval>'"))?;
        let device: DeviceId = dev.parse().map_err(|_| bad("bad device id"))?;
        let at_eval: u64 = at.parse().map_err(|_| bad("bad evaluation index"))?;
        Ok(Fault { at_eval, device })
    }

    /// Reject plans that cannot be applied to `cluster`: out-of-range
    /// device ids, CPU failures (the host never "fails away" — ops
    /// without a GPU kernel need somewhere to live), and a device
    /// scheduled to fail more than once.
    pub fn validate(&self, cluster: &Cluster) -> Result<(), String> {
        for (i, f) in self.events.iter().enumerate() {
            let device = f.device;
            if device >= cluster.num_devices() {
                return Err(format!(
                    "fault plan: device {device} out of range (cluster has {})",
                    cluster.num_devices()
                ));
            }
            if cluster.device(device).kind == DeviceKind::Cpu {
                return Err(format!("fault plan: device {device} is the CPU; it cannot fail"));
            }
            if self.events[..i].iter().any(|e| e.device == device) {
                return Err(format!("fault plan: device {device} is scheduled to fail twice"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sorts_by_firing_index() {
        let p = FaultPlan::parse("fail:2@40, fail:3@10").expect("valid spec");
        assert_eq!(p.events, [Fault { at_eval: 10, device: 3 }, Fault { at_eval: 40, device: 2 }]);
    }

    #[test]
    fn empty_spec_is_no_faults() {
        let p = FaultPlan::parse("").expect("empty ok");
        assert!(p.events.is_empty());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn parse_errors_name_the_clause() {
        for bad in ["fail:2", "fail:x@3", "fail:2@soon", "crash@5", "straggler:8@2", "bogus"] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.contains(bad), "error for '{bad}' should quote it: {err}");
        }
    }

    #[test]
    fn validate_rejects_cpu_and_out_of_range() {
        let c = Cluster::p100_quad();
        assert!(FaultPlan::parse("fail:0@5").unwrap().validate(&c).is_err(), "CPU");
        assert!(FaultPlan::parse("fail:9@5").unwrap().validate(&c).is_err(), "range");
        let twice = FaultPlan::parse("fail:2@3, fail:2@5").unwrap().validate(&c);
        assert!(twice.as_ref().is_err_and(|e| e.contains("device 2")), "twice: {twice:?}");
        assert!(FaultPlan::parse("fail:2@5").unwrap().validate(&c).is_ok());
    }
}
