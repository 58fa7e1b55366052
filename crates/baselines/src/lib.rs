//! # gossip-baselines
//!
//! The comparison protocols of *Optimal Gossip-Based Aggregate Computation*
//! (Table 1 and Section 1.1), implemented on the same simulator substrate as
//! DRR-gossip so that message and round counts are directly comparable:
//!
//! * [`push_sum`] — **uniform gossip** for Average (Kempe, Dobra & Gehrke,
//!   FOCS'03): time-optimal `O(log n)` but `O(n log n)` messages;
//!   address-oblivious. Includes the routed sparse-network variant used as
//!   the Chord baseline of Section 4. Both run [`gossip_net::PushSum`], the
//!   push-sum round DRR-gossip's Gossip-ave runs among its roots.
//! * [`mod@push_max`] — uniform (address-oblivious) push / push-pull gossip
//!   for Max, with coverage instrumentation.
//! * [`kashyap`] — **efficient gossip** (Kashyap et al., PODS'06):
//!   `O(n log log n)` messages but `O(log n log log n)` time;
//!   non-address-oblivious. Its leaders gossip by the same push-sum round.
//! * [`rumor`] — **randomized rumor spreading** (Karp et al., FOCS'00) with
//!   the push&pull + counter termination rule: `O(log n)` rounds and
//!   `O(n log log n)` transmissions — the reference point showing that
//!   aggregation is strictly harder than rumor spreading for
//!   address-oblivious protocols.
//! * [`oblivious`] — the empirical companion of the `Ω(n log n)`
//!   address-oblivious lower bound (Theorem 15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kashyap;
pub mod oblivious;
pub mod push_max;
pub mod push_sum;
pub mod rumor;

pub use kashyap::{efficient_gossip_average, EfficientGossipConfig, EfficientGossipOutcome};
pub use oblivious::{oblivious_max_lower_bound, ObliviousLowerBoundResult, ObliviousProtocol};
pub use push_max::{push_max, PushMaxConfig, PushMaxOutcome};
pub use push_sum::{push_sum_average, routed_push_sum_average, PushSumConfig, PushSumOutcome};
pub use rumor::{spread_rumor, RumorOutcome};
