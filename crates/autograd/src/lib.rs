#![warn(missing_docs)]
//! Tape-based reverse-mode automatic differentiation.
//!
//! The Mars agent (GCN encoder, BiLSTM placers, attention, PPO losses)
//! is trained with gradients produced by this crate. The design is a
//! classic Wengert list:
//!
//! * A [`Tape`] owns every intermediate value produced during one
//!   forward pass. Operations are recorded as [`ops::Op`] nodes
//!   referencing their parents by [`Var`] index.
//! * [`Tape::backward`] runs the reverse sweep, accumulating gradients
//!   for every node that (transitively) requires them.
//!   [`Tape::backward_seeded`] is the same sweep started from a
//!   non-scalar output with a given gradient, for a model split over
//!   several tapes.
//! * Parameters live *outside* the tape (see `mars-nn`); each training
//!   step inserts them as leaves, and reads their gradient back out
//!   after the backward pass.
//!
//! The op set is exactly what the paper's models need: dense and sparse
//! matmul, broadcast bias, LSTM-style gate nonlinearities, row-wise
//! (log-)softmax, gather/concat/slice/stack plumbing, and the clipped
//! PPO surrogate primitives (`exp`, `clamp`, `min_elem`).
//!
//! Every op is verified against central finite differences in
//! `tests/gradcheck.rs`.

pub mod check;
pub mod ops;
pub mod tape;

pub use tape::{Tape, Var};
