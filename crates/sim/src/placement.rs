//! Placement: the action of the RL agent.

use crate::device::{Cluster, DeviceId};
use mars_graph::CompGraph;
use mars_rng::Rng;

/// An assignment of every op to a device.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Placement(pub Vec<DeviceId>);

impl Placement {
    /// All ops on one device.
    pub fn all_on(graph: &CompGraph, device: DeviceId) -> Self {
        Placement(vec![device; graph.num_nodes()])
    }

    /// Round-robin over the given devices in node order.
    pub fn round_robin(graph: &CompGraph, devices: &[DeviceId]) -> Self {
        assert!(!devices.is_empty());
        Placement((0..graph.num_nodes()).map(|i| devices[i % devices.len()]).collect())
    }

    /// Contiguous blocks of roughly equal node count over the given
    /// devices (a crude model-parallel split).
    pub fn blocked(graph: &CompGraph, devices: &[DeviceId]) -> Self {
        assert!(!devices.is_empty());
        let n = graph.num_nodes();
        let per = n.div_ceil(devices.len());
        Placement((0..n).map(|i| devices[(i / per).min(devices.len() - 1)]).collect())
    }

    /// Uniformly random placement over all cluster devices.
    pub fn random(graph: &CompGraph, cluster: &Cluster, rng: &mut impl Rng) -> Self {
        Placement((0..graph.num_nodes()).map(|_| rng.gen_range(0..cluster.num_devices())).collect())
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Device of op `i`.
    pub fn device(&self, i: usize) -> DeviceId {
        self.0[i]
    }

    /// Number of edges whose endpoints land on different devices.
    pub fn cut_edges(&self, graph: &CompGraph) -> usize {
        graph.edges().iter().filter(|e| self.0[e.src] != self.0[e.dst]).count()
    }

    /// Bytes crossing device boundaries.
    pub fn cut_bytes(&self, graph: &CompGraph) -> u64 {
        graph.edges().iter().filter(|e| self.0[e.src] != self.0[e.dst]).map(|e| e.bytes).sum()
    }

    /// Distinct devices actually used.
    pub fn devices_used(&self) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self.0.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Rewrite CPU-incompatible assignments: ops without a GPU kernel
    /// are forced onto the CPU (TensorFlow's "soft placement"). Returns
    /// the number of ops moved.
    pub fn enforce_compatibility(&mut self, graph: &CompGraph, cluster: &Cluster) -> usize {
        let cpu = cluster.cpu_id();
        let mut moved = 0;
        for (i, node) in graph.nodes().iter().enumerate() {
            if !node.gpu_compatible && self.0[i] != cpu {
                self.0[i] = cpu;
                moved += 1;
            }
        }
        moved
    }

    /// Rewrite assignments on failed devices: GPU-compatible ops move
    /// round-robin over the surviving GPUs; everything else (and
    /// everything when no GPU survives) falls back to the CPU. A pure
    /// function of `(placement, graph, failure mask)` — remapping the
    /// same placement on the same degraded cluster always produces the
    /// identical result. Returns the number of ops moved.
    pub fn remap_failed(&mut self, graph: &CompGraph, cluster: &Cluster) -> usize {
        if !cluster.has_failures() {
            return 0;
        }
        let live_gpus = cluster.live_gpu_ids();
        let cpu = cluster.cpu_id();
        let mut moved = 0;
        for (i, node) in graph.nodes().iter().enumerate() {
            if cluster.is_alive(self.0[i]) {
                continue;
            }
            self.0[i] = if node.gpu_compatible && !live_gpus.is_empty() {
                live_gpus[moved % live_gpus.len()]
            } else {
                cpu
            };
            moved += 1;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_graph::generators::{Profile, Workload};
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    fn graph() -> CompGraph {
        Workload::InceptionV3.build(Profile::Reduced)
    }

    #[test]
    fn all_on_single_device() {
        let g = graph();
        let p = Placement::all_on(&g, 1);
        assert_eq!(p.len(), g.num_nodes());
        assert_eq!(p.cut_edges(&g), 0);
        assert_eq!(p.devices_used(), vec![1]);
    }

    #[test]
    fn round_robin_cuts_most_edges() {
        let g = graph();
        let p = Placement::round_robin(&g, &[1, 2, 3, 4]);
        assert!(p.cut_edges(&g) > g.num_edges() / 2);
        assert_eq!(p.devices_used(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn blocked_cuts_few_edges() {
        let g = graph();
        let p = Placement::blocked(&g, &[1, 2]);
        assert!(p.cut_edges(&g) < g.num_edges() / 4, "{}", p.cut_edges(&g));
    }

    #[test]
    fn random_is_seed_deterministic() {
        let g = graph();
        let c = Cluster::p100_quad();
        let a = Placement::random(&g, &c, &mut StdRng::seed_from_u64(1));
        let b = Placement::random(&g, &c, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn compatibility_moves_cpu_only_ops() {
        let g = graph();
        let c = Cluster::p100_quad();
        let mut p = Placement::all_on(&g, 1);
        let moved = p.enforce_compatibility(&g, &c);
        assert!(moved >= 1, "inception has a CPU-only pipeline op");
        let idx = g.nodes().iter().position(|n| !n.gpu_compatible).expect("cpu-only");
        assert_eq!(p.device(idx), c.cpu_id());
    }

    #[test]
    fn remap_moves_only_dead_assignments() {
        let g = graph();
        let mut c = Cluster::p100_quad();
        c.fail_device(2);
        let mut p = Placement::round_robin(&g, &[1, 2, 3, 4]);
        let before = p.clone();
        let moved = p.remap_failed(&g, &c);
        assert!(moved > 0);
        for i in 0..p.len() {
            assert!(c.is_alive(p.device(i)), "op {i} still on a dead device");
            if before.device(i) != 2 {
                assert_eq!(p.device(i), before.device(i), "op {i} moved needlessly");
            }
        }
        // Healthy cluster: remap is a no-op.
        let mut q = Placement::round_robin(&g, &[1, 2]);
        assert_eq!(q.remap_failed(&g, &Cluster::p100_quad()), 0);
    }

    #[test]
    fn remap_falls_back_to_cpu_when_no_gpu_survives() {
        let g = graph();
        let mut c = Cluster::p100_quad();
        for d in c.gpu_ids() {
            c.fail_device(d);
        }
        let mut p = Placement::round_robin(&g, &[1, 2, 3, 4]);
        p.remap_failed(&g, &c);
        assert_eq!(p.devices_used(), vec![c.cpu_id()]);
    }

    #[test]
    fn cut_bytes_zero_on_colocated() {
        let g = graph();
        assert_eq!(Placement::all_on(&g, 2).cut_bytes(&g), 0);
    }
}
