//! Central registry of trainable parameters.
//!
//! Layers never own their weights directly — they hold [`ParamId`]
//! handles into a [`ParamStore`]. This keeps all optimizer state in one
//! place, makes joint training of encoder + placer (the paper's
//! "end-to-end" training) a single `Adam::step`, and makes
//! save/restore of the pre-trained encoder trivial (Mars restores the
//! DGI checkpoint with the lowest loss before PPO starts).

use mars_tensor::Matrix;

/// Handle to one parameter tensor inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

pub(crate) struct ParamData {
    pub name: String,
    pub value: Matrix,
    /// Accumulated gradient (zeroed by the optimizer after each step).
    pub grad: Matrix,
    /// Adam first-moment estimate.
    pub m: Matrix,
    /// Adam second-moment estimate.
    pub v: Matrix,
}

/// Owns every trainable tensor of a model (or of several models trained
/// jointly), plus gradient and Adam moment buffers.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<ParamData>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new parameter initialized to `value`.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(ParamData {
            name: name.into(),
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable value (used by tests and checkpoint restore).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Add `g` into the accumulated gradient of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        self.params[id.0].grad.add_assign(g);
    }

    /// Zero every accumulated gradient.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_global_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                let n = p.grad.frobenius_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scale every gradient so the global norm does not exceed `max_norm`.
    pub fn clip_grad_global_norm(&mut self, max_norm: f32) {
        let norm = self.grad_global_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &mut self.params {
                p.grad.map_inplace(|x| x * scale);
            }
        }
    }

    /// Iterate over ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Snapshot all parameter values (a checkpoint).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Restore a snapshot taken with [`ParamStore::snapshot`].
    ///
    /// # Panics
    /// If the snapshot does not match the store layout.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(snapshot.len(), self.params.len(), "snapshot length mismatch");
        for (p, s) in self.params.iter_mut().zip(snapshot) {
            assert_eq!(p.value.shape(), s.shape(), "snapshot shape mismatch for {}", p.name);
            p.value = s.clone();
        }
    }

    /// Reset Adam moments (used when switching from pre-training to PPO
    /// with a fresh optimizer).
    pub fn reset_optimizer_state(&mut self) {
        for p in &mut self.params {
            p.m.fill_zero();
            p.v.fill_zero();
        }
    }

    /// Every parameter, in registration order (the optimizer's sweep).
    pub(crate) fn params_mut(&mut self) -> std::slice::IterMut<'_, ParamData> {
        self.params.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_access() {
        let mut s = ParamStore::new();
        let w = s.add("w", Matrix::full(2, 3, 1.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_scalars(), 6);
        assert_eq!(s.name(w), "w");
        assert_eq!(s.value(w).shape(), (2, 3));
    }

    #[test]
    fn grad_accumulation_and_zero() {
        let mut s = ParamStore::new();
        let w = s.add("w", Matrix::zeros(1, 2));
        s.accumulate_grad(w, &Matrix::row_vector(&[1.0, 2.0]));
        s.accumulate_grad(w, &Matrix::row_vector(&[1.0, 2.0]));
        assert_eq!(s.grad(w).as_slice(), &[2.0, 4.0]);
        s.zero_grads();
        assert_eq!(s.grad(w).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_global_norm() {
        let mut s = ParamStore::new();
        let a = s.add("a", Matrix::zeros(1, 1));
        let b = s.add("b", Matrix::zeros(1, 1));
        s.accumulate_grad(a, &Matrix::from_vec(1, 1, vec![3.0]));
        s.accumulate_grad(b, &Matrix::from_vec(1, 1, vec![4.0]));
        assert!((s.grad_global_norm() - 5.0).abs() < 1e-6);
        s.clip_grad_global_norm(1.0);
        assert!((s.grad_global_norm() - 1.0).abs() < 1e-5);
        // Direction preserved.
        assert!((s.grad(a).get(0, 0) / s.grad(b).get(0, 0) - 0.75).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_below_threshold() {
        let mut s = ParamStore::new();
        let a = s.add("a", Matrix::zeros(1, 1));
        s.accumulate_grad(a, &Matrix::from_vec(1, 1, vec![0.5]));
        s.clip_grad_global_norm(1.0);
        assert_eq!(s.grad(a).get(0, 0), 0.5);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = ParamStore::new();
        let w = s.add("w", Matrix::full(2, 2, 1.0));
        let snap = s.snapshot();
        s.value_mut(w).map_inplace(|x| x + 5.0);
        assert_eq!(s.value(w).get(0, 0), 6.0);
        s.restore(&snap);
        assert_eq!(s.value(w).get(0, 0), 1.0);
    }
}
