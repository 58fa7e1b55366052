//! # gossip-member
//!
//! SWIM-style dynamic membership for the gossip stack: join-via-any-seed,
//! periodic probe/ping-req failure detection, Alive/Suspect/Dead records
//! with incarnation-number refutation, and piggybacked rumor
//! dissemination — all as a [`Handler`](gossip_net::Handler) wrapper
//! ([`Member<H>`]) that runs unchanged on every backend: the event
//! driver, the sharded driver (bit-identical `order_hash` across shard
//! counts), and the real-UDP host.
//!
//! The wrapped application protocol keeps calling
//! [`Mailbox::sample_peer`](gossip_net::Mailbox::sample_peer) and gets
//! the **discovered live view**, drawn by
//! [`sample_from_view`](gossip_net::sample_from_view); its outgoing
//! messages carry membership rumors within a strict datagram budget. See
//! `DESIGN.md` §7 for the state machine, the piggyback budget rules and
//! how simulated churn maps onto detector events.
//!
//! ```
//! use gossip_member::{Member, MemberConfig};
//! use gossip_net::NodeId;
//!
//! // Wrap any Handler; node 0 is the seed everyone else joins through.
//! let cfg = MemberConfig::with_seeds(vec![NodeId::new(0)]);
//! let _factory = move |_me: NodeId| Member::new(cfg.clone(), Probe::default());
//!
//! #[derive(Default)]
//! struct Probe;
//! impl gossip_net::Handler for Probe {
//!     type Msg = u64;
//!     fn on_start(&mut self, _mb: &mut dyn gossip_net::Mailbox<u64>) {}
//!     fn on_message(
//!         &mut self,
//!         _from: NodeId,
//!         _msg: u64,
//!         _mb: &mut dyn gossip_net::Mailbox<u64>,
//!     ) {
//!     }
//!     fn on_timer(&mut self, _t: gossip_net::TimerId, _mb: &mut dyn gossip_net::Mailbox<u64>) {}
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod state;
pub mod swim;
pub mod wire;

pub use state::{supersedes, Liveness, MemberTable, PeerRecord, Transition, Update};
pub use swim::{Member, MemberConfig, MemberMsg, MemberStats};
pub use wire::{payload_bytes, MAX_UPDATES};
