#![warn(missing_docs)]
//! Facade crate re-exporting the whole Mars reproduction stack.
pub use mars_autograd as autograd;
pub use mars_core as core;
pub use mars_graph as graph;
pub use mars_json as json;
pub use mars_net as net;
pub use mars_nn as nn;
pub use mars_rng as rng;
pub use mars_serve as serve;
pub use mars_sim as sim;
pub use mars_telemetry as telemetry;
pub use mars_tensor as tensor;

pub mod cli;
