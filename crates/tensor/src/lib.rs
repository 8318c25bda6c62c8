#![warn(missing_docs)]
//! Dense f32 tensor kernels for the Mars device-placement reproduction.
//!
//! This crate provides the numerical substrate that everything else
//! (autograd, neural-network layers, the RL agent) is built on. It is a
//! deliberately small, fully self-contained BLAS-like layer:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with shape checking.
//! * [`ops`] — matrix multiplication in all transpose variants, with a
//!   blocked kernel that switches to parallel execution on the in-repo
//!   thread pool above a size threshold.
//! * [`pool`] — a small persistent thread pool (`std::thread` +
//!   channels) backing the parallel kernels; no external crates.
//! * [`stats`] — numerically-stable softmax / log-softmax / logsumexp
//!   and reduction helpers used by the policy networks.
//! * [`init`] — deterministic, seedable weight initializers
//!   (Xavier/Glorot, uniform, Gaussian via Box–Muller).
//! * [`kernel`] / [`simd`] — runtime-dispatched SIMD microkernels
//!   (AVX2 / NEON / scalar), bit-identical to the scalar loops.
//!
//! All randomness is injected through [`mars_rng::Rng`] so callers
//! control determinism; nothing in this crate reads ambient entropy.

pub mod init;
pub mod kernel;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod simd;
pub mod stats;

pub use matrix::Matrix;
