//! # gossip-ae
//!
//! Event-driven **anti-entropy** for continuous aggregation.
//!
//! The one-shot DRR-gossip/push-sum chain computes an aggregate once and
//! stops: a node that churned away mid-run and rejoined holds nothing
//! (`NaN` in the reports) and stays that way forever. This crate closes the
//! gap with a protocol that never stops — the shape of the ciruela gossip
//! emulator (interval-driven ticks) built on the workspace's event-driven
//! protocol API:
//!
//! * [`Store`]: a per-origin max-timestamp replicated map — idempotent,
//!   commutative, convergent merge (the CRDT that makes "eventually every
//!   replica agrees" a theorem rather than a hope).
//! * [`AeNode`]: a [`Handler`] that on every tick
//!   reconciles with one random peer via digest exchange and delta repair
//!   ([`AeMsg`]), and on every update re-stamps its own entry from the
//!   moving [`SignalModel`]. Estimates are means over *fresh* entries, so
//!   crashed origins age out instead of biasing the aggregate forever.
//! * [`merkle`]: hash-tree digests ([`DigestTree`]) and the descent
//!   reconciliation engine — [`DigestMode::Merkle`] swaps the O(n) flat
//!   digest for an O(log n) root-hash exchange whose every message stays
//!   datagram-sized at any n (what lets the socket host run anti-entropy
//!   at the scales the sharded engine simulates).
//! * [`stamps`]: the stamp-run codec every stamp vector travels in — a
//!   base and one code per stamp at the width the vector's range needs,
//!   in the bit model and on the wire alike.
//! * [`ae_driver`]: hosts one `AeNode` per node on the sharded
//!   discrete-event [`ShardedDriver`] — latency, loss, churn and bandwidth
//!   are the engine's, determinism is shard-count invariant, and a
//!   rejoiner restarts with an empty store exactly as the failure model
//!   demands (anti-entropy is what fills it back up).
//!
//! Treating the repeated local averaging as a fixed-point iteration (the
//! proximal-point reading of Chen–Teboulle in the related-work notes), each
//! reconciliation is a contraction toward the replicated fixed point; churn
//! and loss perturb it, and the periodic ticks restore it — which is why
//! the `anti_entropy` experiment (E17) can bound rejoin recovery in ticks.
//!
//! ```
//! use gossip_ae::{ae_driver, AeConfig};
//! use gossip_net::SimConfig;
//! use gossip_runtime::{AsyncConfig, ChurnModel};
//!
//! let engine = AsyncConfig::new(SimConfig::new(64).with_seed(7))
//!     .with_churn(ChurnModel::per_round(0.01, 0.2));
//! let mut driver = ae_driver(engine, AeConfig::default(), 2);
//! driver.run_until(100_000); // 100 virtual ms of continuous aggregation
//! let now = driver.now_us();
//! let informed = driver
//!     .iter_handlers()
//!     .filter(|(_, node)| node.estimate(now).is_some())
//!     .count();
//! assert!(informed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merkle;
pub mod protocol;
pub mod recovery;
pub mod signal;
pub mod stamps;
pub mod store;
pub mod wire;

pub use merkle::{reconcile, DigestTree, Handled, MAX_RANGE_SLOTS, PROBE_BATCH};
pub use protocol::{ae_driver, AeConfig, AeMsg, AeNode, AeNodeStats, DigestMode};
pub use recovery::{RecoveryOutcome, RecoveryRecord, RecoveryTracker, RECOVERY_BOUND_TICKS};
pub use signal::SignalModel;
pub use stamps::StampRun;
pub use store::{sparse_digest_well_formed, Digest, Entry, Store, STAMP_BITS};
pub use wire::payload_bytes;

// The building blocks the subsystem is made of, re-exported so dependents
// of the anti-entropy layer see one coherent API.
pub use gossip_net::{Handler, Mailbox, TimerId};
pub use gossip_runtime::{DriverMetrics, ShardedDriver};
