#![warn(missing_docs)]
//! Neural-network layers and optimizers for the Mars agent.
//!
//! Everything the paper's models need, built on `mars-autograd`:
//!
//! * [`param`] — a central [`param::ParamStore`] owning all trainable
//!   tensors plus their gradient and Adam state.
//! * [`ctx::FwdCtx`] — binds store parameters onto a fresh tape for one
//!   forward pass and harvests their gradients after `backward`.
//! * [`linear::Linear`], [`gcn::GcnLayer`], [`lstm::LstmCell`] /
//!   [`lstm::Lstm`] / [`lstm::BiLstm`], [`attention::Attention`] — the
//!   building blocks of the encoder and the placers.
//! * [`decode::decode`] — the placers' attention decoder (attention
//!   read + LSTM step + device head per placed op) as one fused tape op.
//! * [`adam::Adam`] — Adam with global-norm gradient clipping, the
//!   optimizer the paper trains with (lr 3e-4, clip 1.0).

pub mod adam;
pub mod attention;
pub mod checkpoint;
pub mod ctx;
pub mod decode;
pub mod gcn;
pub mod linear;
pub mod lstm;
pub mod param;
pub mod util;

pub use adam::Adam;
pub use attention::Attention;
pub use ctx::{apply_grads, FwdCtx};
pub use decode::decode;
pub use gcn::GcnLayer;
pub use linear::Linear;
pub use lstm::{BiLstm, Lstm, LstmCell, LstmState};
pub use param::{ParamId, ParamStore};
