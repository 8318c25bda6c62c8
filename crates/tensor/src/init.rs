//! Deterministic, seedable weight initializers.
//!
//! All initializers take an explicit `&mut impl Rng` so that every
//! experiment in the repository is reproducible from a single `u64`
//! seed.

use crate::Matrix;
use mars_rng::Rng;

/// Uniform initialization in `[-bound, bound]`.
pub fn uniform(rows: usize, cols: usize, bound: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound))
}

/// Xavier/Glorot uniform initialization for a `fan_in × fan_out` weight.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(fan_in, fan_out, bound, rng)
}

/// Standard-normal sample via the Box–Muller transform (avoids a
/// dependency on `rand_distr`).
pub fn randn_scalar(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_bound_respected() {
        let m = xavier_uniform(100, 100, &mut StdRng::seed_from_u64(1));
        let bound = (6.0f32 / 200.0).sqrt();
        assert!(m.as_slice().iter().all(|x| x.abs() <= bound + 1e-6));
    }

    #[test]
    fn randn_moments_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f32> = (0..10_000).map(|_| randn_scalar(&mut rng)).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
