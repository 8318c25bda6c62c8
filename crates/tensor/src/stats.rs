//! Numerically-stable statistical kernels used by the policy networks.

use crate::Matrix;

/// Stable log-sum-exp of a slice.
pub fn logsumexp(xs: &[f32]) -> f32 {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !m.is_finite() {
        return m;
    }
    let s: f32 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// In-place stable softmax of a slice.
pub fn softmax_inplace(xs: &mut [f32]) {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// Row-wise softmax of a matrix.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        softmax_inplace(out.row_mut(r));
    }
    out
}

/// Row-wise log-softmax of a matrix.
pub fn log_softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        let lse = logsumexp(out.row(r));
        for x in out.row_mut(r) {
            *x -= lse;
        }
    }
    out
}

/// Index of the maximum element of a slice (first on ties).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &x) in xs.iter().enumerate() {
        if x > best_v {
            best_v = x;
            best = i;
        }
    }
    best
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Sample mean of a slice (0 when empty).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Sample (population) variance of a slice.
pub fn variance(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / xs.len() as f32
}

/// Entropy (nats) of a probability row vector. Zero-probability entries
/// contribute nothing.
pub fn entropy(probs: &[f32]) -> f32 {
    probs.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        softmax_inplace(&mut v);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_shift_invariant() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![1001.0, 1002.0, 1003.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn logsumexp_stable() {
        // Without max-shift this would overflow.
        let v = [1000.0f32, 1000.0];
        let lse = logsumexp(&v);
        assert!((lse - (1000.0 + 2f32.ln())).abs() < 1e-3);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let m = Matrix::from_vec(2, 3, vec![0.1, -0.5, 2.0, 1.0, 1.0, 1.0]);
        let p = softmax_rows(&m);
        let lp = log_softmax_rows(&m);
        for r in 0..2 {
            for c in 0..3 {
                assert!((p.get(r, c).ln() - lp.get(r, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn argmax_ties_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(100.0) <= 1.0);
    }

    #[test]
    fn entropy_uniform_is_log_n() {
        let p = [0.25f32; 4];
        assert!((entropy(&p) - 4f32.ln()).abs() < 1e-6);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn mean_variance() {
        let xs = [1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-6);
    }
}
