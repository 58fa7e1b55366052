//! # gossip-runtime
//!
//! The **sharded discrete-event simulation core** for the gossip
//! protocols of this workspace, and the parallel sweep runner used by the
//! experiment harness.
//!
//! The synchronous [`gossip_net::Network`] implements the paper's clean
//! round-barrier phone-call model: every message arrives instantly (or is
//! lost), failures happen only before the protocol starts, and rounds are
//! free. Real gossip deployments are none of those things. This crate
//! models the world underneath the protocols — latency, churn, bandwidth
//! — over virtual microseconds, and shows it to them through two faces:
//!
//! * **The round-barrier face** ([`ShardedTransport`]) keeps the
//!   *protocol-facing* contract — it implements
//!   [`gossip_net::Transport`], so `drr_gossip_max`, `drr_gossip_ave`,
//!   `push_sum_average`, convergecast and broadcast run on it unchanged.
//!   It rules on every message when it is sent and queues nothing (see
//!   the `facade` module docs).
//! * **The event-driven face** ([`ShardedDriver`]): instead of the round
//!   barrier, per-node [`Handler`](gossip_net::Handler)s (`on_start` /
//!   `on_message` / `on_timer`) dispatched straight from the calendar
//!   queues, with first-class timer events and crash/rejoin incarnations —
//!   the execution model of the continuous anti-entropy layer
//!   (`gossip-ae`). The node space is partitioned across shards —
//!   per-shard queues and payload arenas, one record per node (handler,
//!   RNG stream — [`gossip_net::node_rng`] — and counters) beside dense
//!   liveness arrays, and deterministic
//!   bounded-lag cross-shard batching — which scales the event loop to
//!   n ≥ 10⁷ with runs that are bit-identical across shard counts, worker
//!   threads and event-loop slicings (see the `shard` module docs).
//!
//! Both take one [`AsyncConfig`]:
//!
//! * **Per-link latency** ([`LatencyModel`]): constant, uniform or
//!   log-normal per-message delay, with an optional deterministic per-link
//!   bias so some links are persistently slower than others.
//! * **Ongoing churn** ([`ChurnModel`]): nodes crash *mid-run* (at a random
//!   instant inside a window, ordered against message deliveries) and dead
//!   nodes may rejoin at window boundaries — beyond the start-time-only
//!   `initial_crash_prob` of the synchronous model.
//! * **Bandwidth budgets**: an optional per-node, per-round bit budget;
//!   sends beyond the budget are dropped (and accounted).
//! * **Round policies** ([`RoundPolicy`]): either rounds *stretch* to the
//!   slowest in-flight delivery (virtual time measures straggler cost), or
//!   rounds have a *fixed deadline* and late messages are lost — in which
//!   case [`Transport::send_with_retries`](gossip_net::Transport::send_with_retries)
//!   becomes RTT-aware and stops retrying once the deadline cannot be met.
//!
//! Determinism is preserved end to end: a run is a pure function of the
//! [`SimConfig`](gossip_net::SimConfig) seed and the engine parameters,
//! whatever the shard count. With [`LatencyModel::Constant`], no churn and
//! no bandwidth cap, [`ShardedTransport`] consumes its RNG in exactly the
//! same order as the synchronous `Network`, so the two backends produce
//! **bit-identical** protocol runs — the property the determinism
//! test-suite pins down.
//!
//! ```
//! use gossip_net::SimConfig;
//! use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedTransport};
//!
//! let config = AsyncConfig::new(SimConfig::new(512).with_seed(7))
//!     .with_latency(LatencyModel::LogNormal { median_us: 800.0, sigma: 0.8 })
//!     .with_churn(ChurnModel::per_round(0.01, 0.2));
//! let mut transport = ShardedTransport::new(config, 4);
//! // Any Transport-generic protocol runs on it; see gossip-drr.
//! # use gossip_net::{Transport, Phase};
//! # let a = transport.sample_uniform();
//! # let b = transport.sample_other_than(a);
//! # transport.send(a, b, Phase::Other, 32);
//! # transport.advance_round();
//! assert_eq!(transport.round(), 1);
//! assert!(transport.now_us() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod churn;
pub mod config;
pub mod facade;
pub mod latency;
pub mod metrics;
pub mod shard;
mod soa;
pub mod sweep;

pub use arena::PayloadArena;
pub use churn::ChurnModel;
pub use config::{AsyncConfig, RoundPolicy};
pub use facade::ShardedTransport;
pub use latency::LatencyModel;
pub use metrics::{AsyncMetrics, DriverMetrics};
pub use shard::ShardedDriver;
pub use sweep::SweepRunner;
