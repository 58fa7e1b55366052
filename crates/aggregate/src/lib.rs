//! # gossip-aggregate
//!
//! Aggregate-function framework for gossip-based aggregate computation.
//!
//! The paper (Chen & Pandurangan, SPAA 2010) computes "common aggregates
//! (such as Min, Max, Count, Sum, Average, Rank, etc.)" of the values held by
//! the `n` nodes of a network. This crate provides:
//!
//! * the [`Aggregate`] trait — a commutative, associative combine over a
//!   small mergeable state — and the standard instances
//!   ([`Max`], [`Min`], [`Sum`], [`Count`], [`Average`], [`Rank`]);
//! * [`AggregateKind`], a dynamic selector used by the experiment harness;
//! * [`values`] — workload/value-distribution generators used to populate the
//!   per-node values `v_i`;
//! * [`exact`] — exact (centralised) reference computations used as ground
//!   truth when measuring protocol error;
//! * [`error`] — error metrics (relative/absolute error, consensus checks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod exact;
pub mod functions;
pub mod kind;
pub mod values;

pub use error::{fraction_exact, max_relative_error, relative_error};
pub use exact::ExactAggregates;
pub use functions::{Aggregate, Average, AverageState, Count, Max, Min, Rank, Sum};
pub use kind::AggregateKind;
pub use values::ValueDistribution;
