//! # gossip-drr
//!
//! The primary contribution of *Optimal Gossip-Based Aggregate Computation*
//! (Chen & Pandurangan, SPAA 2010): the **DRR-gossip** family of protocols,
//! which compute common aggregates (Max, Min, Sum, Count, Average, Rank) of
//! the values held by the `n` nodes of a network in optimal `O(log n)` rounds
//! and near-optimal `O(n log log n)` messages.
//!
//! The protocol proceeds in three phases:
//!
//! 1. **[`drr`] — Distributed Random Ranking** (Algorithm 1): partition the
//!    network into a forest of `O(n/log n)` disjoint trees of size
//!    `O(log n)` each (Theorems 2–4).
//! 2. **[`mod@convergecast`] / [`broadcast`]** (Algorithms 2–3): aggregate
//!    each tree's values at its root and tell every member its root's address.
//! 3. **[`mod@gossip_max`] / [`mod@gossip_ave`]** (Algorithms 4 and 6, with
//!    [`data_spread_multi`] for Algorithm 5):
//!    the roots gossip among themselves — forwarding through non-roots when
//!    needed (the non-address-oblivious step) — to agree on the global
//!    aggregate (Theorems 5–7), which is finally broadcast back down the
//!    trees.
//!
//! The composite protocols live in [`protocol`] (Algorithms 7 and 8); the
//! sparse-network variant of Section 4 (Local-DRR + routed gossip,
//! Theorems 11–14) lives in [`local_drr`] and [`sparse`].
//!
//! ```
//! use gossip_drr::protocol::{drr_gossip_ave, DrrGossipConfig};
//! use gossip_net::{Network, SimConfig};
//!
//! let n = 1 << 10;
//! let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
//! let mut net = Network::new(SimConfig::new(n).with_seed(42).with_loss_prob(0.05));
//! let report = drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper());
//! assert!(report.max_relative_error() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod broadcast;
pub mod convergecast;
pub mod data_spread;
pub mod drr;
pub mod forest;
pub mod gossip_ave;
pub mod gossip_max;
pub mod handler;
pub mod local_drr;
pub mod protocol;
pub mod rank;
pub mod sparse;

pub use aggregates::{
    drr_gossip_count, drr_gossip_min, drr_gossip_quantile, drr_gossip_rank, drr_gossip_sum,
    QuantileReport,
};
pub use broadcast::{broadcast_down, BroadcastOutcome};
pub use convergecast::{
    convergecast, convergecast_max, convergecast_sum, ConvergecastOutcome, ReceptionModel,
};
pub use data_spread::data_spread_multi;
pub use drr::{run_drr, DrrConfig, DrrOutcome, ProbeBudget};
pub use forest::{Forest, ForestError, ForestStats};
pub use gossip_ave::{gossip_ave, GossipAveConfig, GossipAveOutcome};
pub use gossip_max::{gossip_max, GossipMaxConfig, GossipMaxOutcome};
pub use handler::{MaxGossipConfig, MaxGossipHandler};
pub use local_drr::{run_local_drr, LocalDrrOutcome};
pub use protocol::{
    drr_gossip_ave, drr_gossip_max, DrrGossipConfig, DrrGossipReport, NodeStatus, PhaseCost,
};
pub use rank::Ranks;
pub use sparse::{sparse_drr_gossip_ave, sparse_drr_gossip_max, SparseGossipConfig};
