//! # gossip-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper reproduction (`experiments --list` prints the experiment index;
//! `EXPERIMENTS.md` holds the recorded results).
//!
//! Run all experiments with:
//!
//! ```text
//! cargo run --release -p gossip-bench --bin experiments -- all
//! cargo run --release -p gossip-bench --bin experiments -- table1 --quick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::{run_experiment, ExperimentOptions, EXPERIMENTS};
