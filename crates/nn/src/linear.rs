//! Fully-connected layer.

use crate::ctx::FwdCtx;
use crate::param::{ParamId, ParamStore};
use mars_autograd::Var;
use mars_rng::Rng;
use mars_tensor::{init, Matrix};

/// `y = x · W (+ b)` with Xavier-initialized `W` and zero bias.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Register a new linear layer's parameters in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(format!("{name}.w"), init::xavier_uniform(in_dim, out_dim, rng));
        let b = bias.then(|| store.add(format!("{name}.b"), Matrix::zeros(1, out_dim)));
        Linear { w, b, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight parameter handle.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Bias parameter handle, if the layer has one.
    pub fn bias(&self) -> Option<ParamId> {
        self.b
    }

    /// Forward pass: `x` is `m × in_dim`, result is `m × out_dim`.
    pub fn forward(&self, ctx: &mut FwdCtx<'_>, x: Var) -> Var {
        let w = ctx.p(self.w);
        let y = ctx.tape.matmul(x, w);
        match self.b {
            Some(b) => {
                let bv = ctx.p(b);
                ctx.tape.add_bias(y, bv)
            }
            None => y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use mars_autograd::Tape;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    #[test]
    fn shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut store, "l", 3, 5, true, &mut rng);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let x = ctx.tape.constant(Matrix::zeros(4, 3));
        let y = l.forward(&mut ctx, x);
        assert_eq!(ctx.tape.value(y).shape(), (4, 5));
    }

    #[test]
    fn learns_linear_regression() {
        // Fit y = x·W* with W* = [[1],[−2]] by gradient descent.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(&mut store, "l", 2, 1, true, &mut rng);
        let mut adam = Adam::new(0.05);
        let xs = Matrix::from_vec(4, 2, vec![1., 0., 0., 1., 1., 1., 0.5, -0.5]);
        let ys = Matrix::from_vec(4, 1, vec![1., -2., -1., 1.5]);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut ctx = FwdCtx::new(Tape::new(), &store);
            let x = ctx.tape.constant(xs.clone());
            let t = ctx.tape.constant(ys.clone());
            let pred = l.forward(&mut ctx, x);
            let err = ctx.tape.sub(pred, t);
            let sq = ctx.tape.mul(err, err);
            let loss = ctx.tape.mean_all(sq);
            last = ctx.tape.scalar(loss);
            let (grads, _) = ctx.into_grads(loss, 1.0);
            crate::ctx::apply_grads(&mut store, grads);
            adam.step(&mut store, 1.0);
        }
        assert!(last < 1e-3, "final loss {last}");
        let w = store.value(l.weight());
        assert!((w.get(0, 0) - 1.0).abs() < 0.05, "{w:?}");
        assert!((w.get(1, 0) + 2.0).abs() < 0.05, "{w:?}");
    }
}
