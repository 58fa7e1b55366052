//! # gossip-analysis
//!
//! Statistics, complexity-model fitting and experiment plumbing used to turn
//! raw simulation runs into the tables and figures of the paper
//! reproduction:
//!
//! * [`stats`] — summaries (mean, deviation, percentiles) over repeated
//!   trials;
//! * [`fit`] — least-squares fitting of measured series against candidate
//!   growth models (`log n`, `n log log n`, `n log n`, ...), used to verify
//!   the paper's asymptotic claims empirically;
//! * [`experiment`] — the [`experiment::Sweep`] runner: sweep `n`, repeat
//!   trials with independent seeds in parallel, summarise;
//! * [`table`] — plain-text / Markdown table rendering for the `experiments`
//!   binary and `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod fit;
pub mod stats;
pub mod table;

pub use experiment::{Sweep, SweepPoint, SweepResult};
pub use fit::{best_fit, ComplexityModel, ModelFit};
pub use stats::Summary;
pub use table::{fmt_float, fmt_mean_or_dash, Table};
