//! # gossip-node
//!
//! The **real-socket host**: the execution backend of this workspace
//! that is not a simulator. Any [`Handler`](gossip_net::Handler) written
//! for `ShardedDriver` runs here **unchanged** over UDP datagrams — the
//! anti-entropy node of `gossip-ae`, the event-driven gossip-max of
//! `gossip-drr`, anything speaking the `Mailbox` contract.
//!
//! ```text
//! Handler  ──callbacks──  NodeHost          (crate::host)
//!                           │ frames         (gossip_net::wire)
//!                           ▼
//!                        UdpSocket  ⇄  the actual network
//! ```
//!
//! * [`NodeHost`] — one node: a bound UDP socket, a peer address book, a
//!   monotonic timer queue (with `cancel_timer`), and an event loop that
//!   keeps the simulators' `(timestamp, seq)` dispatch discipline
//!   wherever reality permits it. It owns the socket and its readiness
//!   loop and drives a [`NodeCore`] (protocol state, no I/O).
//! * [`Cluster`] — N hosts on 127.0.0.1 ephemeral ports in one process:
//!   round-robined from the caller's thread, where a test can inspect
//!   every handler between passes, or moved one per OS thread with
//!   [`Cluster::start_threads`] for real parallelism. One per-node
//!   convergence goal and one `/metrics` page (per-node registries under
//!   a `node` label) serve both schedules.
//!
//! Both expose a live observability endpoint (`serve_status`): `/metrics`
//! in Prometheus text exposition, `/status` as a human-readable summary,
//! and — on hosts with a trace ring (`with_trace`) — `/trace`. The HTTP
//! server is `gossip_obs`'s non-blocking listener, pumped from the host's
//! own event loop; see DESIGN.md §6a.
//!
//! What carries over from the simulators and what does not is written up
//! in `DESIGN.md` §6. The short version: the protocol semantics carry
//! (idempotent merges, stateless exchanges, re-arming timers — everything
//! the simulators' failure models forced the protocols to get right); the
//! *determinism* does not (real clocks, real schedulers, real loss).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod cluster;
pub mod core;
pub mod host;

pub use crate::core::{FrameSink, NodeCore, NodeStats, Recv};
pub use cluster::Cluster;
pub use host::{NodeHost, MAX_BLOCK_WAIT};
