//! Forward-pass context: binds [`ParamStore`] parameters onto a tape.
//!
//! One [`FwdCtx`] lives for exactly one forward/backward pass. It
//! lazily inserts each parameter as a tape leaf (cached, so a parameter
//! used by several layers is a *single* leaf and its gradient
//! accumulates correctly). After the pass, [`FwdCtx::into_grads`]
//! consumes the context and hands back `(ParamId, gradient)` pairs to
//! apply to the (then mutably borrowable) store.

use crate::param::{ParamId, ParamStore};
use mars_autograd::{Tape, Var};
use mars_tensor::Matrix;

/// A parameter-binding wrapper around a [`Tape`] for one forward pass.
pub struct FwdCtx<'s> {
    /// The underlying tape; public so models can record arbitrary ops.
    pub tape: Tape,
    store: &'s ParamStore,
    /// Leaf of each bound parameter, indexed by the dense [`ParamId`]:
    /// gradients drain in ascending id, the same order on every run.
    bound: Vec<Option<Var>>,
}

impl<'s> FwdCtx<'s> {
    /// Start a forward pass against `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Self::with_tape(Tape::new(), store)
    }

    /// Start a forward pass on a caller-provided tape — how the serving
    /// path reuses one inference tape (and its pooled activation
    /// buffers) across requests. Pair with [`FwdCtx::into_tape`].
    pub fn with_tape(tape: Tape, store: &'s ParamStore) -> Self {
        FwdCtx { tape, store, bound: vec![None; store.len()] }
    }

    /// Recover the tape (e.g. to `reset_for_reuse` it between requests).
    pub fn into_tape(self) -> Tape {
        self.tape
    }

    /// Bind a parameter onto the tape (cached).
    pub fn p(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.bound[id.0] {
            return v;
        }
        // Copy into a pooled buffer either way (bit-identical to a
        // fresh clone); recording tapes keep the grad flag.
        let v = self.tape.leaf_from(self.store.value(id), self.tape.is_recording());
        self.bound[id.0] = Some(v);
        v
    }

    /// The bound parameters and their leaves, in ascending id.
    fn bound(bound: &[Option<Var>]) -> impl Iterator<Item = (ParamId, Var)> + '_ {
        bound.iter().enumerate().filter_map(|(i, v)| v.map(|v| (ParamId(i), v)))
    }

    /// Read-only access to the backing store.
    pub fn store(&self) -> &ParamStore {
        self.store
    }

    /// Run backward from `loss`, consume the context, and return the
    /// parameter gradients scaled by `scale` (use e.g. `1/k` when
    /// averaging `k` sample losses). Apply them with [`apply_grads`].
    pub fn into_grads(mut self, loss: Var, scale: f32) -> Vec<(ParamId, Matrix)> {
        self.tape.backward(loss);
        let mut out = Vec::new();
        for (id, var) in Self::bound(&self.bound) {
            if let Some(g) = self.tape.grad(var) {
                let g = if scale == 1.0 { g.clone() } else { g.scale(scale) };
                out.push((id, g));
            }
        }
        out
    }

    /// Like [`FwdCtx::into_grads`], but also hands the tape back so a
    /// persistent training loop can `reset_for_reuse` it and keep its
    /// scratch arena warm across updates. Parameter gradients are moved
    /// out of the tape (no clone) and scaled in place — bit-identical
    /// to [`FwdCtx::into_grads`] for the same pass.
    pub fn into_grads_and_tape(mut self, loss: Var, scale: f32) -> (Vec<(ParamId, Matrix)>, Tape) {
        self.tape.backward(loss);
        let mut out = Vec::new();
        for (id, var) in Self::bound(&self.bound) {
            if let Some(mut g) = self.tape.take_grad(var) {
                if scale != 1.0 {
                    for e in g.as_mut_slice() {
                        *e *= scale;
                    }
                }
                out.push((id, g));
            }
        }
        (out, self.tape)
    }
}

/// Accumulate gradients returned by [`FwdCtx::into_grads`] into a store.
pub fn apply_grads(store: &mut ParamStore, grads: Vec<(ParamId, Matrix)>) {
    for (id, g) in grads {
        store.accumulate_grad(id, &g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_bound_once() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![2.0]));
        let mut ctx = FwdCtx::new(&store);
        let v1 = ctx.p(w);
        let v2 = ctx.p(w);
        assert_eq!(v1, v2);
    }

    #[test]
    fn shared_param_grad_accumulates() {
        // loss = sum(w·x + w·x) → dw = 2x.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![2.0]));
        let mut ctx = FwdCtx::new(&store);
        let wv = ctx.p(w);
        let x = ctx.tape.constant(Matrix::from_vec(1, 1, vec![3.0]));
        let a = ctx.tape.mul(wv, x);
        let b = ctx.tape.mul(wv, x);
        let s = ctx.tape.add(a, b);
        let loss = ctx.tape.sum_all(s);
        let grads = ctx.into_grads(loss, 1.0);
        apply_grads(&mut store, grads);
        assert_eq!(store.grad(w).get(0, 0), 6.0);
    }

    #[test]
    fn backward_scale_applied() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![1.0]));
        let mut ctx = FwdCtx::new(&store);
        let wv = ctx.p(w);
        let loss = ctx.tape.sum_all(wv);
        let grads = ctx.into_grads(loss, 0.5);
        apply_grads(&mut store, grads);
        assert_eq!(store.grad(w).get(0, 0), 0.5);
    }
}
