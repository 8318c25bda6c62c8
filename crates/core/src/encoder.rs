//! Graph encoders.
//!
//! [`GcnEncoder`] is the Mars encoder of §3.1: a stack of GCN layers
//! with PReLU activations over the normalized adjacency.
//! [`SageEncoder`] is a GraphSAGE mean-aggregator encoder, used by the
//! Encoder-Placer baseline (GDP [33]). [`RawEncoder`] passes features
//! through unchanged (used by the Grouper-Placer baseline, which has no
//! graph encoder).

use crate::workload_input::WorkloadInput;
use mars_autograd::Var;
use mars_nn::{FwdCtx, GcnLayer, Linear, ParamStore};
use mars_rng::Rng;

/// A node-representation encoder.
pub trait Encoder {
    /// Encode the workload into per-op representations (`N × out_dim`).
    fn encode(&self, ctx: &mut FwdCtx<'_>, input: &WorkloadInput) -> Var;
    /// Width of the produced representations.
    fn out_dim(&self) -> usize;
}

/// The Mars GCN encoder: `encoder_layers` GCN layers with PReLU.
pub struct GcnEncoder {
    layers: Vec<GcnLayer>,
    out_dim: usize,
}

impl GcnEncoder {
    /// Register the encoder's parameters.
    pub fn new(
        store: &mut ParamStore,
        feature_dim: usize,
        hidden: usize,
        num_layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_layers >= 1);
        let mut layers = Vec::with_capacity(num_layers);
        let mut in_dim = feature_dim;
        for l in 0..num_layers {
            layers.push(GcnLayer::new(store, &format!("gcn{l}"), in_dim, hidden, rng));
            in_dim = hidden;
        }
        GcnEncoder { layers, out_dim: hidden }
    }
}

impl Encoder for GcnEncoder {
    fn encode(&self, ctx: &mut FwdCtx<'_>, input: &WorkloadInput) -> Var {
        let mut h = ctx.tape.leaf_from(&input.features, false);
        for layer in &self.layers {
            h = layer.forward(ctx, &input.adj, h);
        }
        h
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// GraphSAGE mean-aggregator encoder (Hamilton et al., 2017), as used
/// by GDP's encoder-placer. Each layer computes
/// `relu(W · [h ‖ mean_neighbors(h)])`; we reuse the normalized
/// adjacency as the (weighted) neighbor mean.
pub struct SageEncoder {
    self_proj: Vec<Linear>,
    neigh_proj: Vec<Linear>,
    out_dim: usize,
}

impl SageEncoder {
    /// Register the encoder's parameters.
    pub fn new(
        store: &mut ParamStore,
        feature_dim: usize,
        hidden: usize,
        num_layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut self_proj = Vec::new();
        let mut neigh_proj = Vec::new();
        let mut in_dim = feature_dim;
        for l in 0..num_layers {
            self_proj.push(Linear::new(store, &format!("sage{l}.self"), in_dim, hidden, true, rng));
            neigh_proj.push(Linear::new(
                store,
                &format!("sage{l}.neigh"),
                in_dim,
                hidden,
                false,
                rng,
            ));
            in_dim = hidden;
        }
        SageEncoder { self_proj, neigh_proj, out_dim: hidden }
    }
}

impl Encoder for SageEncoder {
    fn encode(&self, ctx: &mut FwdCtx<'_>, input: &WorkloadInput) -> Var {
        let mut h = ctx.tape.constant(input.features.clone());
        for (sp, np) in self.self_proj.iter().zip(&self.neigh_proj) {
            let neigh = ctx.tape.spmm(input.adj.clone(), h);
            let a = sp.forward(ctx, h);
            let b = np.forward(ctx, neigh);
            let s = ctx.tape.add(a, b);
            h = ctx.tape.relu(s);
        }
        h
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Identity encoder: raw node features (Grouper-Placer baseline).
pub struct RawEncoder {
    dim: usize,
}

impl RawEncoder {
    /// An encoder that passes `dim`-wide features straight through.
    pub fn new(dim: usize) -> Self {
        RawEncoder { dim }
    }
}

impl Encoder for RawEncoder {
    fn encode(&self, ctx: &mut FwdCtx<'_>, input: &WorkloadInput) -> Var {
        ctx.tape.constant(input.features.clone())
    }

    fn out_dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_graph::features::FEATURE_DIM;
    use mars_graph::generators::{Profile, Workload};
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    fn input() -> WorkloadInput {
        WorkloadInput::from_graph(&Workload::InceptionV3.build(Profile::Reduced))
    }

    #[test]
    fn gcn_encoder_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 16, 3, &mut rng);
        let inp = input();
        let mut ctx = FwdCtx::new(&store);
        let h = enc.encode(&mut ctx, &inp);
        assert_eq!(ctx.tape.value(h).shape(), (inp.num_ops, 16));
        assert!(ctx.tape.value(h).is_finite());
    }

    #[test]
    fn sage_encoder_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let enc = SageEncoder::new(&mut store, FEATURE_DIM, 12, 2, &mut rng);
        let inp = input();
        let mut ctx = FwdCtx::new(&store);
        let h = enc.encode(&mut ctx, &inp);
        assert_eq!(ctx.tape.value(h).shape(), (inp.num_ops, 12));
    }

    #[test]
    fn raw_encoder_is_identity() {
        let inp = input();
        let store = ParamStore::new();
        let enc = RawEncoder::new(FEATURE_DIM);
        let mut ctx = FwdCtx::new(&store);
        let h = enc.encode(&mut ctx, &inp);
        assert_eq!(ctx.tape.value(h), &inp.features);
    }

    #[test]
    fn gcn_differs_from_raw_features() {
        // The encoder must actually mix neighborhood information.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let enc = GcnEncoder::new(&mut store, FEATURE_DIM, FEATURE_DIM, 1, &mut rng);
        let inp = input();
        let mut ctx = FwdCtx::new(&store);
        let h = enc.encode(&mut ctx, &inp);
        assert!(ctx.tape.value(h).max_abs_diff(&inp.features) > 1e-3);
    }
}
