//! Host-performance benchmark of the DVR simulator.
//!
//! Links the simulator's library crates and times calls into each layer's
//! public functions from outside; nothing inside the simulator changes.
//! See `README.md` for the workloads, the metrics and the correctness gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod metrics;
pub mod plan;
pub mod run;
pub mod trace;
