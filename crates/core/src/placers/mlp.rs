//! Two-layer MLP placer — the "simplest placer" the paper evaluates
//! and rejects (§3.3: "it easily overfits, gets stuck at a local
//! optimum and can never find a good placement").
//!
//! Kept as an ablation point: it scores each op independently, so it
//! cannot coordinate decisions across the sequence.

use crate::placers::PlacerNet;
use mars_autograd::Var;
use mars_nn::{FwdCtx, Linear, ParamStore};
use mars_rng::Rng;

/// Per-op two-layer MLP.
pub struct MlpPlacer {
    fc1: Linear,
    fc2: Linear,
    num_devices: usize,
}

impl MlpPlacer {
    /// Register parameters.
    pub fn new(
        store: &mut ParamStore,
        rep_dim: usize,
        hidden: usize,
        num_devices: usize,
        rng: &mut impl Rng,
    ) -> Self {
        MlpPlacer {
            fc1: Linear::new(store, "mlp.fc1", rep_dim, hidden, true, rng),
            fc2: Linear::new(store, "mlp.fc2", hidden, num_devices, true, rng),
            num_devices,
        }
    }
}

impl PlacerNet for MlpPlacer {
    fn logits(&self, ctx: &mut FwdCtx<'_>, reps: Var) -> Var {
        let h = self.fc1.forward(ctx, reps);
        let a = ctx.tape.relu(h);
        self.fc2.forward(ctx, a)
    }

    fn num_devices(&self) -> usize {
        self.num_devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_autograd::Tape;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_tensor::init;

    #[test]
    fn logits_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let p = MlpPlacer::new(&mut store, 6, 12, 5, &mut rng);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let reps = ctx.tape.constant(init::uniform(7, 6, 1.0, &mut rng));
        let l = p.logits(&mut ctx, reps);
        assert_eq!(ctx.tape.value(l).shape(), (7, 5));
    }

    #[test]
    fn per_op_independence() {
        // The defining weakness: op i's logits ignore every other op.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let p = MlpPlacer::new(&mut store, 4, 8, 3, &mut rng);
        let base = init::uniform(5, 4, 1.0, &mut rng);
        let mut altered = base.clone();
        altered.set(4, 0, altered.get(4, 0) + 1.0);
        let mut c1 = FwdCtx::new(Tape::new(), &store);
        let r1 = c1.tape.constant(base);
        let l1 = p.logits(&mut c1, r1);
        let mut c2 = FwdCtx::new(Tape::new(), &store);
        let r2 = c2.tape.constant(altered);
        let l2 = p.logits(&mut c2, r2);
        for r in 0..4 {
            assert_eq!(c1.tape.value(l1).row(r), c2.tape.value(l2).row(r));
        }
        assert_ne!(c1.tape.value(l1).row(4), c2.tape.value(l2).row(4));
    }
}
