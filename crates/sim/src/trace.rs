//! Execution traces: per-device timelines of one simulated step.
//!
//! [`simulate_traced`] runs [`crate::simulate`]'s own event loop with a
//! recorder attached, so the timeline it returns is the schedule the
//! engine measured: every op execution and tensor transfer, for
//! Gantt-style inspection of a placement (which devices idle, where
//! communication serializes).

use crate::device::Cluster;
use crate::engine::{run, StepReport};
use crate::placement::Placement;
use mars_graph::{CompGraph, NodeId};

/// One op execution on a device.
#[derive(Clone, Debug)]
pub struct OpSpan {
    /// Executed op.
    pub node: NodeId,
    /// Device it ran on.
    pub device: usize,
    /// Start time (s).
    pub start_s: f64,
    /// End time (s).
    pub end_s: f64,
}

/// One tensor transfer between devices.
#[derive(Clone, Debug)]
pub struct TransferSpan {
    /// Edge index in the graph.
    pub edge: usize,
    /// Source device.
    pub from: usize,
    /// Destination device.
    pub to: usize,
    /// Start time (s).
    pub start_s: f64,
    /// End time (s).
    pub end_s: f64,
    /// Bytes moved.
    pub bytes: u64,
}

/// A full step trace.
#[derive(Clone, Debug)]
pub struct StepTrace {
    /// Makespan and utilization summary.
    pub makespan_s: f64,
    /// All op executions, in start order.
    pub ops: Vec<OpSpan>,
    /// All transfers, in start order.
    pub transfers: Vec<TransferSpan>,
}

impl StepTrace {
    /// Idle fraction of a device within the makespan.
    pub fn idle_fraction(&self, device: usize) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        let busy: f64 =
            self.ops.iter().filter(|o| o.device == device).map(|o| o.end_s - o.start_s).sum();
        1.0 - busy / self.makespan_s
    }

    /// Render a coarse ASCII Gantt chart (`width` columns).
    pub fn ascii_gantt(&self, num_devices: usize, width: usize) -> String {
        let mut out = String::new();
        let scale = width as f64 / self.makespan_s.max(1e-12);
        for d in 0..num_devices {
            let mut row = vec![' '; width];
            for op in self.ops.iter().filter(|o| o.device == d) {
                let s = (op.start_s * scale) as usize;
                let e = ((op.end_s * scale) as usize).min(width.saturating_sub(1));
                for cell in row.iter_mut().take(e + 1).skip(s.min(width - 1)) {
                    *cell = '#';
                }
            }
            out.push_str(&format!("dev{d} |{}|\n", row.iter().collect::<String>()));
        }
        out
    }
}

/// [`crate::simulate`] with a recorder: the report is the untraced
/// engine's, bit for bit, and the trace lists the spans it scheduled.
pub fn simulate_traced(
    graph: &CompGraph,
    placement: &Placement,
    cluster: &Cluster,
) -> (StepReport, StepTrace) {
    let mut trace = StepTrace {
        makespan_s: 0.0,
        ops: Vec::with_capacity(graph.num_nodes()),
        transfers: Vec::new(),
    };
    let report = run(graph, placement, cluster, Some(&mut trace));
    trace.makespan_s = report.makespan_s;
    trace.ops.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    trace.transfers.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use mars_graph::generators::{Profile, Workload};

    fn setup() -> (CompGraph, Placement, Cluster) {
        let g = Workload::InceptionV3.build(Profile::Reduced);
        let c = Cluster::p100_quad();
        let mut p = Placement::round_robin(&g, &[1, 2]);
        p.enforce_compatibility(&g, &c);
        (g, p, c)
    }

    /// The recorder never touches the schedule: every workload, both
    /// profiles, both cluster presets, structured and random placements.
    #[test]
    fn traced_report_matches_untraced() {
        use mars_rng::{rngs::StdRng, SeedableRng};
        let bits = |r: &StepReport| {
            let busy = r.device_busy_s.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
            (r.makespan_s.to_bits(), r.comm_s.to_bits(), r.num_transfers, busy)
        };
        let mut rng = StdRng::seed_from_u64(27);
        for w in Workload::ALL {
            for profile in [Profile::Reduced, Profile::Paper] {
                let g = w.build(profile);
                for c in [Cluster::p100_quad(), Cluster::heterogeneous()] {
                    let gpus = c.gpu_ids();
                    let mut placements = vec![
                        Placement::round_robin(&g, &gpus),
                        Placement::blocked(&g, &gpus),
                        Placement::all_on(&g, gpus[0]),
                        Placement::all_on(&g, c.cpu_id()),
                    ];
                    placements.extend((0..8).map(|_| Placement::random(&g, &c, &mut rng)));
                    for mut p in placements {
                        p.enforce_compatibility(&g, &c);
                        let (traced, _) = simulate_traced(&g, &p, &c);
                        assert_eq!(bits(&simulate(&g, &p, &c)), bits(&traced), "{}", g.name);
                    }
                }
            }
        }
    }

    #[test]
    fn trace_covers_every_op_exactly_once() {
        let (g, p, c) = setup();
        let (_, trace) = simulate_traced(&g, &p, &c);
        assert_eq!(trace.ops.len(), g.num_nodes());
        let mut seen = vec![false; g.num_nodes()];
        for span in &trace.ops {
            assert!(!seen[span.node], "op {} executed twice", span.node);
            seen[span.node] = true;
            assert!(span.end_s >= span.start_s);
            assert!(span.end_s <= trace.makespan_s + 1e-12);
        }
    }

    #[test]
    fn spans_respect_dependencies() {
        let (g, p, c) = setup();
        let (_, trace) = simulate_traced(&g, &p, &c);
        let mut end = vec![0.0f64; g.num_nodes()];
        let mut start = vec![0.0f64; g.num_nodes()];
        for s in &trace.ops {
            end[s.node] = s.end_s;
            start[s.node] = s.start_s;
        }
        for e in g.edges() {
            assert!(
                start[e.dst] >= end[e.src] - 1e-9,
                "op {} started before its input {} finished",
                e.dst,
                e.src
            );
        }
    }

    #[test]
    fn no_device_overlap() {
        let (g, p, c) = setup();
        let (_, trace) = simulate_traced(&g, &p, &c);
        for d in 0..c.num_devices() {
            let mut spans: Vec<&OpSpan> = trace.ops.iter().filter(|s| s.device == d).collect();
            spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
            for w in spans.windows(2) {
                assert!(
                    w[1].start_s >= w[0].end_s - 1e-9,
                    "device {d} overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn idle_fraction_and_gantt() {
        let (g, p, c) = setup();
        let (_, trace) = simulate_traced(&g, &p, &c);
        for d in 0..c.num_devices() {
            let f = trace.idle_fraction(d);
            assert!((0.0..=1.0).contains(&f), "idle fraction {f}");
        }
        let gantt = trace.ascii_gantt(c.num_devices(), 60);
        assert_eq!(gantt.lines().count(), c.num_devices());
        assert!(gantt.contains('#'));
    }
}
