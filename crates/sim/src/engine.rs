//! The event-driven makespan engine.

use crate::cost::op_time;
use crate::device::Cluster;
use crate::placement::Placement;
use crate::trace::{OpSpan, StepTrace, TransferSpan};
use mars_graph::{CompGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of simulating one training step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// End-to-end step time in seconds.
    pub makespan_s: f64,
    /// Busy (computing) seconds per device.
    pub device_busy_s: Vec<f64>,
    /// Total seconds of link occupancy.
    pub comm_s: f64,
    /// Number of cross-device tensor transfers.
    pub num_transfers: usize,
}

impl StepReport {
    /// Fraction of the makespan the busiest device spent computing.
    pub fn peak_device_utilization(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.device_busy_s.iter().copied().fold(0.0, f64::max) / self.makespan_s
    }
}

/// Totally-ordered finite f64 for the event queue.
#[derive(Clone, Copy, PartialEq)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("simulation times are finite")
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    OpDone(NodeId),
    /// Transfer of edge index `usize` has arrived at the destination device.
    TransferDone(usize),
}

/// Simulate one training step of `graph` under `placement`.
///
/// The placement must already be compatibility-enforced
/// ([`Placement::enforce_compatibility`]); memory is *not* checked here
/// (see [`crate::memory::check_memory`]).
///
/// Scheduling model: one op at a time per device, ready ops picked by
/// topological rank; cross-device edges occupy the directed link
/// between the endpoint devices (latency + bytes/bandwidth, serialized
/// per link direction).
pub fn simulate(graph: &CompGraph, placement: &Placement, cluster: &Cluster) -> StepReport {
    run(graph, placement, cluster, None)
}

/// The event loop behind [`simulate`] and [`crate::simulate_traced`]:
/// with `trace`, each op execution and transfer is also recorded as the
/// loop starts it. Recording reads the schedule and never changes it.
pub(crate) fn run(
    graph: &CompGraph,
    placement: &Placement,
    cluster: &Cluster,
    mut trace: Option<&mut StepTrace>,
) -> StepReport {
    let _span = mars_telemetry::span("sim.engine.simulate");
    let n = graph.num_nodes();
    assert_eq!(placement.len(), n, "placement length mismatch");
    debug_assert!(
        placement.0.iter().all(|&d| cluster.is_alive(d)),
        "placement references a failed device; remap it first (Placement::remap_failed)"
    );
    let order = graph.topo_order().expect("graph must be a DAG");
    let mut rank = vec![0usize; n];
    for (r, &node) in order.iter().enumerate() {
        rank[node] = r;
    }

    let out_edges = graph.out_edges();
    let mut pending = graph.in_degrees();

    let nd = cluster.num_devices();
    let mut ready: Vec<BinaryHeap<Reverse<(usize, NodeId)>>> =
        (0..nd).map(|_| BinaryHeap::new()).collect();
    let mut device_busy = vec![false; nd];
    let mut device_busy_s = vec![0.0f64; nd];
    // Directed link occupancy, keyed by src_dev * nd + dst_dev.
    let mut link_free_at = vec![0.0f64; nd * nd];

    let mut events: BinaryHeap<Reverse<(Time, usize, Event)>> = BinaryHeap::new();
    let mut seq = 0usize;
    let mut comm_s = 0.0f64;
    let mut num_transfers = 0usize;
    let mut makespan = 0.0f64;
    let mut completed = 0usize;

    // Seed sources.
    for i in 0..n {
        if pending[i] == 0 {
            ready[placement.device(i)].push(Reverse((rank[i], i)));
        }
    }

    // Start any idle device that has ready work.
    macro_rules! try_start {
        ($dev:expr, $now:expr) => {{
            let dev = $dev;
            if !device_busy[dev] {
                if let Some(Reverse((_, node))) = ready[dev].pop() {
                    let dur = op_time(graph.node(node), cluster.device(dev));
                    device_busy[dev] = true;
                    device_busy_s[dev] += dur;
                    if let Some(t) = trace.as_deref_mut() {
                        t.ops.push(OpSpan { node, device: dev, start_s: $now, end_s: $now + dur });
                    }
                    seq += 1;
                    events.push(Reverse((Time($now + dur), seq, Event::OpDone(node))));
                }
            }
        }};
    }

    for d in 0..nd {
        try_start!(d, 0.0);
    }

    while let Some(Reverse((Time(now), _, ev))) = events.pop() {
        makespan = makespan.max(now);
        match ev {
            Event::OpDone(node) => {
                completed += 1;
                let dev = placement.device(node);
                device_busy[dev] = false;
                // Same-device consumers wake first, then every
                // cross-device edge enqueues its own transfer, both in
                // edge order. Events tied in time pop in push order, so
                // this order is part of the schedule.
                for &ei in &out_edges[node] {
                    let dst = graph.edges()[ei].dst;
                    if placement.device(dst) == dev {
                        pending[dst] -= 1;
                        if pending[dst] == 0 {
                            ready[dev].push(Reverse((rank[dst], dst)));
                            try_start!(dev, now);
                        }
                    }
                }
                for &ei in &out_edges[node] {
                    let e = graph.edges()[ei];
                    let dst_dev = placement.device(e.dst);
                    if dst_dev == dev {
                        continue;
                    }
                    let key = dev * nd + dst_dev;
                    let start = link_free_at[key].max(now);
                    let dur = cluster.link(dev, dst_dev).transfer_time(e.bytes);
                    link_free_at[key] = start + dur;
                    comm_s += dur;
                    num_transfers += 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.transfers.push(TransferSpan {
                            edge: ei,
                            from: dev,
                            to: dst_dev,
                            start_s: start,
                            end_s: start + dur,
                            bytes: e.bytes,
                        });
                    }
                    seq += 1;
                    events.push(Reverse((Time(start + dur), seq, Event::TransferDone(ei))));
                }
                try_start!(dev, now);
            }
            Event::TransferDone(ei) => {
                let dst = graph.edges()[ei].dst;
                let dst_dev = placement.device(dst);
                pending[dst] -= 1;
                if pending[dst] == 0 {
                    ready[dst_dev].push(Reverse((rank[dst], dst)));
                    try_start!(dst_dev, now);
                }
            }
        }
    }

    assert_eq!(completed, n, "deadlock: only {completed}/{n} ops completed");
    StepReport { makespan_s: makespan, device_busy_s, comm_s, num_transfers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_graph::{shape, GraphBuilder, OpKind};

    fn chain(name: &str, k: usize, flops: f64) -> CompGraph {
        let mut b = GraphBuilder::new(name);
        let mut prev = None;
        for i in 0..k {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.compute(OpKind::MatMul, format!("op{i}"), shape![64, 64], flops, &deps));
        }
        b.build()
    }

    #[test]
    fn single_device_is_serial() {
        let g = chain("serial", 10, 1e9);
        let c = Cluster::p100_quad();
        let p = Placement::all_on(&g, 1);
        let rep = simulate(&g, &p, &c);
        let expected: f64 = g.nodes().iter().map(|nd| crate::cost::op_time(nd, c.device(1))).sum();
        assert!((rep.makespan_s - expected).abs() < 1e-9);
        assert_eq!(rep.num_transfers, 0);
        assert_eq!(rep.comm_s, 0.0);
    }

    #[test]
    fn independent_chains_run_in_parallel() {
        // Two disjoint chains joined by a zero-cost sink.
        let mut b = GraphBuilder::new("par");
        let mut last = Vec::new();
        for chain_id in 0..2 {
            let mut prev: Option<usize> = None;
            for i in 0..5 {
                let deps: Vec<_> = prev.into_iter().collect();
                prev = Some(b.compute(
                    OpKind::MatMul,
                    format!("c{chain_id}/op{i}"),
                    shape![1],
                    1e9,
                    &deps,
                ));
            }
            last.push(prev.expect("chain built"));
        }
        b.compute(OpKind::Identity, "sink", shape![1], 0.0, &last);
        let g = b.build();
        let c = Cluster::p100_quad();

        let serial = simulate(&g, &Placement::all_on(&g, 1), &c);
        let mut split = vec![1usize; g.num_nodes()];
        for (i, nd) in g.nodes().iter().enumerate() {
            if nd.name.starts_with("c1") {
                split[i] = 2;
            }
        }
        let parallel = simulate(&g, &Placement(split), &c);
        assert!(
            parallel.makespan_s < 0.62 * serial.makespan_s,
            "parallel {} vs serial {}",
            parallel.makespan_s,
            serial.makespan_s
        );
    }

    #[test]
    fn cross_device_edge_pays_transfer() {
        let g = chain("pair", 2, 1e9);
        let c = Cluster::p100_quad();
        let colocated = simulate(&g, &Placement(vec![1, 1]), &c);
        let split = simulate(&g, &Placement(vec![1, 2]), &c);
        let link = c.link(1, 2);
        let bytes = g.edges()[0].bytes;
        let expected_extra = link.transfer_time(bytes);
        assert!(
            (split.makespan_s - colocated.makespan_s - expected_extra).abs() < 1e-9,
            "extra {} vs expected {}",
            split.makespan_s - colocated.makespan_s,
            expected_extra
        );
        assert_eq!(split.num_transfers, 1);
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let g = mars_graph::generators::Workload::InceptionV3
            .build(mars_graph::generators::Profile::Reduced);
        let c = Cluster::p100_quad();
        let mut p = Placement::round_robin(&g, &[1, 2, 3, 4]);
        p.enforce_compatibility(&g, &c);
        let rep = simulate(&g, &p, &c);
        // Lower bound: critical-path flops at ideal peak on the fastest
        // device, ignoring overheads.
        let fastest = c.devices().iter().map(|d| d.peak_gflops).fold(0.0, f64::max);
        let lb = g.critical_path_flops() / (fastest * 1e9);
        assert!(rep.makespan_s >= lb, "makespan {} < lower bound {lb}", rep.makespan_s);
    }

    #[test]
    fn utilization_bounded() {
        let g = chain("u", 6, 1e9);
        let c = Cluster::p100_quad();
        let rep = simulate(&g, &Placement::all_on(&g, 1), &c);
        let u = rep.peak_device_utilization();
        assert!(u > 0.9 && u <= 1.0 + 1e-9, "{u}");
    }
}
