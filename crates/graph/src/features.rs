//! Node features and normalized adjacency for the GCN encoder.
//!
//! §3.1 of the paper: "we encode the operation types by one-hot
//! encoding and normalize the shapes by the largest dimension size of
//! all operations' input and output". We additionally expose
//! log-scaled cost features (output/parameter/activation bytes, FLOPs)
//! and normalized degrees, all bounded in `[0, 1]`.

use crate::graph::CompGraph;
use crate::op::OpKind;
use mars_tensor::ops::CsrMatrix;
use mars_tensor::Matrix;
use std::sync::Arc;

/// Width of the feature vector produced by [`node_features`].
pub const FEATURE_DIM: usize = OpKind::COUNT + 7;

fn log_norm(value: f64, max_value: f64) -> f32 {
    if value <= 0.0 || max_value <= 1.0 {
        return 0.0;
    }
    ((value.ln_1p()) / (max_value.ln_1p())) as f32
}

/// Build the `N × FEATURE_DIM` node-feature matrix.
///
/// Layout per row: one-hot op kind (`OpKind::COUNT`), then
/// `[max-dim ratio, output bytes, input bytes, FLOPs, param bytes,
/// in-degree, out-degree]`, each normalized into `[0, 1]`.
pub fn node_features(graph: &CompGraph) -> Matrix {
    let n = graph.num_nodes();
    let mut x = Matrix::zeros(n, FEATURE_DIM);

    let max_dim =
        graph.nodes().iter().map(|nd| nd.output_shape.max_dim()).max().unwrap_or(1) as f64;
    let max_out_bytes =
        graph.nodes().iter().map(|nd| nd.output_shape.bytes()).max().unwrap_or(1) as f64;
    let max_flops = graph.nodes().iter().map(|nd| nd.flops).fold(1.0f64, f64::max);
    let max_params = graph.nodes().iter().map(|nd| nd.param_bytes).max().unwrap_or(1) as f64;

    let in_deg = graph.in_degrees();
    let out_deg = graph.out_degrees();
    let max_in = in_deg.iter().copied().max().unwrap_or(1).max(1) as f32;
    let max_out = out_deg.iter().copied().max().unwrap_or(1).max(1) as f32;

    // Per-node input bytes = sum of incoming edge tensor sizes.
    let mut in_bytes = vec![0u64; n];
    for e in graph.edges() {
        in_bytes[e.dst] += e.bytes;
    }
    let max_in_bytes = in_bytes.iter().copied().max().unwrap_or(1) as f64;

    for (i, nd) in graph.nodes().iter().enumerate() {
        x.set(i, nd.kind.index(), 1.0);
        let base = OpKind::COUNT;
        x.set(i, base, (nd.output_shape.max_dim() as f64 / max_dim) as f32);
        x.set(i, base + 1, log_norm(nd.output_shape.bytes() as f64, max_out_bytes));
        x.set(i, base + 2, log_norm(in_bytes[i] as f64, max_in_bytes));
        x.set(i, base + 3, log_norm(nd.flops, max_flops));
        x.set(i, base + 4, log_norm(nd.param_bytes as f64, max_params));
        x.set(i, base + 5, in_deg[i] as f32 / max_in);
        x.set(i, base + 6, out_deg[i] as f32 / max_out);
    }
    x
}

/// Symmetrically-normalized adjacency with self-loops,
/// `D̂^{-1/2} Â D̂^{-1/2}` with `Â = A + Aᵀ + I`.
///
/// The paper's Eq. (1) uses `Â = A + I`; we symmetrize first so
/// information flows both along and against data-flow edges, which is
/// the standard GCN treatment of directed graphs (and what DGI assumes).
pub fn normalized_adjacency(graph: &CompGraph) -> Arc<CsrMatrix> {
    let n = graph.num_nodes();
    let mut undirected: Vec<(usize, usize)> =
        graph.edges().iter().map(|e| (e.src.min(e.dst), e.src.max(e.dst))).collect();
    undirected.sort_unstable();
    undirected.dedup();
    let mut degree = vec![1.0f32; n]; // self-loop contributes 1
    for &(a, b) in &undirected {
        degree[a] += 1.0;
        degree[b] += 1.0;
    }
    let mut triplets: Vec<(usize, usize, f32)> = Vec::with_capacity(2 * undirected.len() + n);
    for &(a, b) in &undirected {
        let w = 1.0 / (degree[a] * degree[b]).sqrt();
        triplets.push((a, b, w));
        triplets.push((b, a, w));
    }
    for (i, d) in degree.iter().enumerate() {
        triplets.push((i, i, 1.0 / d));
    }
    Arc::new(CsrMatrix::from_triplets(n, n, &triplets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::shape;

    fn small_graph() -> CompGraph {
        let mut b = GraphBuilder::new("feat-test");
        let a = b.compute(OpKind::Input, "in", shape![4, 8], 0.0, &[]);
        let c = b.layer(OpKind::Conv2d, "conv", shape![4, 8, 16], 1e9, 4096, &[a]);
        let r = b.compute(OpKind::Relu, "relu", shape![4, 8, 16], 1e6, &[c]);
        let m = b.layer(OpKind::MatMul, "fc", shape![4, 10], 2e9, 8192, &[r]);
        b.compute(OpKind::Loss, "loss", shape![1], 1e3, &[m]);
        b.build()
    }

    #[test]
    fn feature_matrix_shape_and_bounds() {
        let g = small_graph();
        let x = node_features(&g);
        assert_eq!(x.shape(), (5, FEATURE_DIM));
        assert!(x.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)), "features outside [0,1]");
    }

    #[test]
    fn one_hot_block_is_exactly_one() {
        let g = small_graph();
        let x = node_features(&g);
        for r in 0..x.rows() {
            let onehot_sum: f32 = x.row(r)[..OpKind::COUNT].iter().sum();
            assert_eq!(onehot_sum, 1.0, "row {r}");
        }
    }

    #[test]
    fn heavier_op_has_larger_flop_feature() {
        let g = small_graph();
        let x = node_features(&g);
        let flop_col = OpKind::COUNT + 3;
        // fc (2e9 flops) > conv (1e9) > relu (1e6).
        assert!(x.get(3, flop_col) > x.get(1, flop_col));
        assert!(x.get(1, flop_col) > x.get(2, flop_col));
    }

    #[test]
    fn adjacency_is_symmetric_and_row_bounded() {
        let g = small_graph();
        let adj = normalized_adjacency(&g);
        let d = adj.to_dense();
        assert!(d.max_abs_diff(&d.transpose()) < 1e-6, "not symmetric");
        // Row sums of a sym-normalized adjacency are ≤ slightly above 1.
        for r in 0..d.rows() {
            let s: f32 = d.row(r).iter().sum();
            assert!(s > 0.0 && s < 1.5, "row {r} sum {s}");
        }
    }

    /// `normalized_adjacency` as it was built, on a `HashSet` of edges.
    fn hashset_reference(graph: &CompGraph) -> CsrMatrix {
        let n = graph.num_nodes();
        let mut undirected = std::collections::HashSet::new();
        for e in graph.edges() {
            undirected.insert((e.src.min(e.dst), e.src.max(e.dst)));
        }
        let mut degree = vec![1.0f32; n];
        for &(a, b) in &undirected {
            degree[a] += 1.0;
            degree[b] += 1.0;
        }
        let mut triplets = Vec::new();
        for &(a, b) in &undirected {
            let w = 1.0 / (degree[a] * degree[b]).sqrt();
            triplets.extend([(a, b, w), (b, a, w)]);
        }
        triplets.extend(degree.iter().enumerate().map(|(i, d)| (i, i, 1.0 / d)));
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    #[test]
    fn adjacency_matches_hashset_reference_bitwise() {
        use crate::generators::{Profile, Workload};
        // Every workload graph at both profiles, and one whose op reads
        // the same input twice (a duplicate undirected edge).
        let mut b = GraphBuilder::new("twice");
        let a = b.compute(OpKind::Input, "in", shape![4, 8], 0.0, &[]);
        b.compute(OpKind::Add, "sum", shape![4, 8], 32.0, &[a, a]);
        let mut graphs = vec![b.build()];
        for w in Workload::ALL {
            graphs.extend([Profile::Reduced, Profile::Paper].map(|p| w.build(p)));
        }
        let bits = |m: &CsrMatrix| -> Vec<Vec<(usize, u32)>> {
            (0..m.rows()).map(|r| m.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect()).collect()
        };
        for g in &graphs {
            assert_eq!(bits(&normalized_adjacency(g)), bits(&hashset_reference(g)), "{}", g.name);
        }
    }
}
