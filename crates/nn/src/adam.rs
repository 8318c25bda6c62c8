//! Adam optimizer with global-norm gradient clipping.
//!
//! The paper trains both the DGI pre-training and the joint PPO phase
//! with Adam (learning rate 3e-4) and clips gradients to a global norm
//! of 1.0.

use crate::param::ParamStore;

/// Adam optimizer (Kingma & Ba, 2015).
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Adam with the usual β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0 }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Clip gradients to `max_grad_norm` (global L2), apply one Adam
    /// update to every parameter in `store`, then zero the gradients.
    pub fn step(&mut self, store: &mut ParamStore, max_grad_norm: f32) {
        store.clip_grad_global_norm(max_grad_norm);
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        for p in store.params_mut() {
            let moments = p.m.as_mut_slice().iter_mut().zip(p.v.as_mut_slice());
            let grads = p.grad.as_slice();
            for ((w, (m, v)), &g) in p.value.as_mut_slice().iter_mut().zip(moments).zip(grads) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mhat = *m / b1t;
                let vhat = *v / b2t;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_tensor::Matrix;

    #[test]
    fn minimizes_quadratic() {
        // Minimize f(w) = (w − 3)² by feeding the analytic gradient.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let g = 2.0 * (store.value(w).get(0, 0) - 3.0);
            store.accumulate_grad(w, &Matrix::from_vec(1, 1, vec![g]));
            adam.step(&mut store, 10.0);
        }
        assert!((store.value(w).get(0, 0) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn grads_zeroed_after_step() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        store.accumulate_grad(w, &Matrix::from_vec(1, 1, vec![1.0]));
        let mut adam = Adam::new(0.01);
        adam.step(&mut store, 1.0);
        assert_eq!(store.grad(w).get(0, 0), 0.0);
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn first_step_size_is_lr() {
        // With bias correction, the very first Adam step moves by ≈ lr.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        store.accumulate_grad(w, &Matrix::from_vec(1, 1, vec![0.5]));
        let mut adam = Adam::new(0.1);
        adam.step(&mut store, 10.0);
        assert!((store.value(w).get(0, 0) + 0.1).abs() < 1e-3);
    }
}
