//! Graph convolutional layer (Kipf & Welling), Eq. (1) of the paper.
//!
//! `GCN(X, Â) = σ(D̂^{-1/2} Â D̂^{-1/2} X Θ)` — the symmetric
//! normalization is pre-applied to the adjacency (see
//! `mars_graph::CompGraph::normalized_adjacency`), so a layer here is
//! `prelu(spmm(Â_norm, X · Θ) + b)` with a learnable PReLU slope, as
//! used by the Mars encoder.

use crate::ctx::FwdCtx;
use crate::param::{ParamId, ParamStore};
use mars_autograd::Var;
use mars_rng::Rng;
use mars_tensor::ops::CsrMatrix;
use mars_tensor::{init, Matrix};
use std::sync::Arc;

/// One graph-convolution layer with PReLU activation.
pub struct GcnLayer {
    w: ParamId,
    b: ParamId,
    alpha: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl GcnLayer {
    /// Register the layer's parameters. The PReLU slope starts at 0.25
    /// (the PyTorch default used by the paper's reference stack).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(format!("{name}.w"), init::xavier_uniform(in_dim, out_dim, rng));
        let b = store.add(format!("{name}.b"), Matrix::zeros(1, out_dim));
        let alpha = store.add(format!("{name}.alpha"), Matrix::from_vec(1, 1, vec![0.25]));
        GcnLayer { w, b, alpha, in_dim, out_dim }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward: `x` is `N × in_dim`, `adj` the normalized `N × N`
    /// adjacency; result is `N × out_dim`.
    pub fn forward(&self, ctx: &mut FwdCtx<'_>, adj: &Arc<CsrMatrix>, x: Var) -> Var {
        let _span = mars_telemetry::span("nn.gcn.forward");
        let w = ctx.p(self.w);
        let xw = ctx.tape.matmul(x, w);
        let agg = ctx.tape.spmm(adj.clone(), xw);
        let b = ctx.p(self.b);
        let z = ctx.tape.add_bias(agg, b);
        let alpha = ctx.p(self.alpha);
        ctx.tape.prelu(z, alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_autograd::Tape;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    fn tiny_adj() -> Arc<CsrMatrix> {
        // 3-node path graph with self-loops, row-normalized.
        Arc::new(CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 0.5),
                (0, 1, 0.5),
                (1, 0, 1.0 / 3.0),
                (1, 1, 1.0 / 3.0),
                (1, 2, 1.0 / 3.0),
                (2, 1, 0.5),
                (2, 2, 0.5),
            ],
        ))
    }

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = GcnLayer::new(&mut store, "g", 4, 6, &mut rng);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let x = ctx.tape.constant(Matrix::full(3, 4, 0.5));
        let y = layer.forward(&mut ctx, &tiny_adj(), x);
        assert_eq!(ctx.tape.value(y).shape(), (3, 6));
    }

    #[test]
    fn aggregation_mixes_neighbors() {
        // With identity weights, node 1's output must blend nodes 0 and 2
        // (nothing is negative, so the PReLU passes it through).
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GcnLayer::new(&mut store, "g", 2, 2, &mut rng);
        *store.value_mut(layer.w) = Matrix::eye(2);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let x = ctx.tape.constant(Matrix::from_vec(3, 2, vec![3.0, 0.0, 0.0, 0.0, 0.0, 9.0]));
        let y = layer.forward(&mut ctx, &tiny_adj(), x);
        let v = ctx.tape.value(y);
        assert!((v.get(1, 0) - 1.0).abs() < 1e-5);
        assert!((v.get(1, 1) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let layer = GcnLayer::new(&mut store, "g", 3, 3, &mut rng);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let x = ctx.tape.constant(Matrix::full(3, 3, -0.7));
        let y = layer.forward(&mut ctx, &tiny_adj(), x);
        let loss = ctx.tape.mean_all(y);
        let (grads, _) = ctx.into_grads(loss, 1.0);
        crate::ctx::apply_grads(&mut store, grads);
        assert!(store.grad(layer.w).frobenius_norm() > 0.0);
        assert!(store.grad(layer.b).frobenius_norm() > 0.0);
        // Negative inputs ensure the PReLU slope receives gradient.
        assert!(store.grad(layer.alpha).frobenius_norm() > 0.0);
    }
}
