//! # gossip-aggregate
//!
//! What the DRR-gossip protocols aggregate, and what their answers are
//! checked against.
//!
//! The paper (Chen & Pandurangan, SPAA 2010) computes "common aggregates
//! (such as Min, Max, Count, Sum, Average, Rank, etc.)" of the values held by
//! the `n` nodes of a network. This crate provides:
//!
//! * the [`Aggregate`] trait — a commutative, associative combine over a
//!   small mergeable state — with the two instances the tree phases carry,
//!   [`Max`] and [`Average`] (the other aggregates are changes of input to
//!   these two, in `gossip_drr::aggregates`);
//! * [`values`] — workload/value-distribution generators used to populate the
//!   per-node values `v_i`;
//! * [`exact`] — the exact (centralised) quantile the gossip quantile
//!   search is measured against;
//! * [`error`] — error metrics (relative error, consensus checks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod exact;
pub mod functions;
pub mod values;

pub use error::{fraction_exact, relative_error};
pub use functions::{Aggregate, Average, AverageState, Max};
pub use values::ValueDistribution;
