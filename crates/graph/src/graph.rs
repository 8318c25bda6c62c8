//! The computational-graph DAG.

use crate::op::OpKind;

/// Index of a node within a [`CompGraph`].
pub type NodeId = usize;

/// Shape of an operation's output tensor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TensorShape(pub Vec<usize>);

impl TensorShape {
    /// Scalar shape.
    pub fn scalar() -> Self {
        TensorShape(vec![1])
    }

    /// Number of elements.
    pub fn num_elements(&self) -> u64 {
        self.0.iter().map(|&d| d as u64).product()
    }

    /// Size in bytes assuming f32 elements.
    pub fn bytes(&self) -> u64 {
        self.num_elements() * 4
    }

    /// Largest dimension.
    pub fn max_dim(&self) -> usize {
        self.0.iter().copied().max().unwrap_or(1)
    }
}

/// Convenience constructor: `shape![24, 384, 768]`.
#[macro_export]
macro_rules! shape {
    ($($d:expr),* $(,)?) => {
        $crate::graph::TensorShape(vec![$($d),*])
    };
}

/// One operation node.
#[derive(Clone, Debug)]
pub struct OpNode {
    /// Human-readable name (`"layer3/conv2d"`).
    pub name: String,
    /// Operation kind.
    pub kind: OpKind,
    /// Output tensor shape.
    pub output_shape: TensorShape,
    /// Compute cost in FLOPs (forward + backward folded together — the
    /// placement granularity of the paper colocates an op with its
    /// gradient ops).
    pub flops: f64,
    /// Persistent parameter bytes resident on the op's device.
    pub param_bytes: u64,
    /// Live activation bytes held for the backward pass.
    pub activation_bytes: u64,
    /// Whether a GPU kernel exists for the op.
    pub gpu_compatible: bool,
}

/// A data-flow edge carrying `bytes` from `src` to `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Producing node.
    pub src: NodeId,
    /// Consuming node.
    pub dst: NodeId,
    /// Tensor size transferred if the two ops land on different devices.
    pub bytes: u64,
}

/// A directed acyclic computational graph.
#[derive(Clone, Debug)]
pub struct CompGraph {
    /// Workload name (`"inception_v3"`).
    pub name: String,
    nodes: Vec<OpNode>,
    edges: Vec<Edge>,
}

impl CompGraph {
    /// Empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        CompGraph { name: name.into(), nodes: Vec::new(), edges: Vec::new() }
    }

    /// Append a node, returning its id.
    pub fn add_node(&mut self, node: OpNode) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Append an edge.
    ///
    /// # Panics
    /// If either endpoint is out of range or the edge is a self-loop.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, bytes: u64) {
        assert!(src < self.nodes.len(), "edge src {src} out of range");
        assert!(dst < self.nodes.len(), "edge dst {dst} out of range");
        assert_ne!(src, dst, "self-loop on node {src}");
        self.edges.push(Edge { src, dst, bytes });
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &OpNode {
        &self.nodes[id]
    }

    /// Mutable node accessor (cost calibration, test fixtures).
    pub fn node_mut(&mut self, id: NodeId) -> &mut OpNode {
        &mut self.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[OpNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Successor adjacency lists (edge indices per source node).
    pub fn out_edges(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            out[e.src].push(i);
        }
        out
    }

    /// Predecessor adjacency lists (edge indices per destination node).
    pub fn in_edges(&self) -> Vec<Vec<usize>> {
        let mut inn = vec![Vec::new(); self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            inn[e.dst].push(i);
        }
        inn
    }

    /// In-degree per node.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            d[e.dst] += 1;
        }
        d
    }

    /// Out-degree per node.
    pub fn out_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            d[e.src] += 1;
        }
        d
    }

    /// Kahn topological order.
    ///
    /// Returns `None` if the graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<NodeId>> {
        let mut indeg = self.in_degrees();
        let out = self.out_edges();
        let mut queue: std::collections::VecDeque<NodeId> =
            indeg.iter().enumerate().filter(|(_, &d)| d == 0).map(|(i, _)| i).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for &ei in &out[n] {
                let dst = self.edges[ei].dst;
                indeg[dst] -= 1;
                if indeg[dst] == 0 {
                    queue.push_back(dst);
                }
            }
        }
        (order.len() == self.nodes.len()).then_some(order)
    }

    /// Validate structural invariants: acyclic, all names non-empty,
    /// costs non-negative and finite.
    pub fn validate(&self) -> Result<(), String> {
        if self.topo_order().is_none() {
            return Err(format!("graph {} contains a cycle", self.name));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.name.is_empty() {
                return Err(format!("node {i} has an empty name"));
            }
            if !n.flops.is_finite() || n.flops < 0.0 {
                return Err(format!("node {} has invalid flops {}", n.name, n.flops));
            }
        }
        Ok(())
    }

    /// Total FLOPs over all nodes.
    pub fn total_flops(&self) -> f64 {
        self.nodes.iter().map(|n| n.flops).sum()
    }

    /// Total persistent parameter bytes.
    pub fn total_param_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.param_bytes).sum()
    }

    /// Total live activation bytes.
    pub fn total_activation_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.activation_bytes).sum()
    }

    /// Total memory footprint (parameters + activations).
    pub fn total_memory_bytes(&self) -> u64 {
        self.total_param_bytes() + self.total_activation_bytes()
    }

    /// Critical-path compute time lower bound given a per-flop rate
    /// (seconds per FLOP); ignores communication. Used by tests as a
    /// makespan lower bound.
    pub fn critical_path_flops(&self) -> f64 {
        let order = self.topo_order().expect("validated DAG");
        let inn = self.in_edges();
        let mut finish = vec![0.0f64; self.nodes.len()];
        let mut best: f64 = 0.0;
        for &n in &order {
            let start = inn[n].iter().map(|&ei| finish[self.edges[ei].src]).fold(0.0f64, f64::max);
            finish[n] = start + self.nodes[n].flops;
            best = best.max(finish[n]);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_node(name: &str) -> OpNode {
        OpNode {
            name: name.into(),
            kind: OpKind::Identity,
            output_shape: TensorShape(vec![1]),
            flops: 1.0,
            param_bytes: 0,
            activation_bytes: 4,
            gpu_compatible: true,
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut g = CompGraph::new("t");
        let a = g.add_node(mk_node("a"));
        let b = g.add_node(mk_node("b"));
        let c = g.add_node(mk_node("c"));
        g.add_edge(a, b, 4);
        g.add_edge(b, c, 4);
        g.add_edge(a, c, 4);
        let order = g.topo_order().expect("acyclic");
        let pos: Vec<usize> = (0..3).map(|n| order.iter().position(|&x| x == n).unwrap()).collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = CompGraph::new("c");
        let a = g.add_node(mk_node("a"));
        let b = g.add_node(mk_node("b"));
        g.add_edge(a, b, 4);
        g.add_edge(b, a, 4);
        assert!(g.topo_order().is_none());
        assert!(g.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = CompGraph::new("s");
        let a = g.add_node(mk_node("a"));
        g.add_edge(a, a, 4);
    }

    #[test]
    fn degrees_and_totals() {
        let mut g = CompGraph::new("d");
        let a = g.add_node(mk_node("a"));
        let b = g.add_node(mk_node("b"));
        g.add_edge(a, b, 16);
        assert_eq!(g.in_degrees(), vec![0, 1]);
        assert_eq!(g.out_degrees(), vec![1, 0]);
        assert_eq!(g.total_flops(), 2.0);
        assert_eq!(g.total_activation_bytes(), 8);
    }

    #[test]
    fn critical_path_on_diamond() {
        let mut g = CompGraph::new("dia");
        let a = g.add_node(mk_node("a"));
        let mut heavy = mk_node("b");
        heavy.flops = 10.0;
        let b = g.add_node(heavy);
        let c = g.add_node(mk_node("c"));
        let d = g.add_node(mk_node("d"));
        g.add_edge(a, b, 4);
        g.add_edge(a, c, 4);
        g.add_edge(b, d, 4);
        g.add_edge(c, d, 4);
        // Path a→b→d dominates: 1 + 10 + 1.
        assert_eq!(g.critical_path_flops(), 12.0);
    }

    #[test]
    fn shape_helpers() {
        let s = TensorShape(vec![24, 384, 768]);
        assert_eq!(s.num_elements(), 24 * 384 * 768);
        assert_eq!(s.bytes(), 24 * 384 * 768 * 4);
        assert_eq!(s.max_dim(), 768);
    }
}
