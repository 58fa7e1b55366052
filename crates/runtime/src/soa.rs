//! Per-node state of the simulator: dense [`NodeTable`] arrays for what
//! the barriers sweep — one type for both faces, each driver shard keeping
//! one over its nodes and the facade one over all — and, in the driver,
//! one record per node for what a dispatch touches.
//!
//! A dispatch reads and writes a handful of one node's fields together —
//! its handler, its RNG stream (every send and peer sample draws from
//! it), its event-scheduling counter (every send and timer advances it),
//! its order hash and its incarnation. Kept as five parallel arrays, those
//! fields cost one dispatch up to six unrelated cache lines; at n ≥ 10⁵
//! each of them is a first load that misses. [`NodeSlot`] keeps them in
//! one record, so a callback touches one record.
//!
//! What the barriers sweep, or only some configurations read, stays in
//! the dense arrays of [`NodeTable`], where a sweep walks exactly the
//! bytes it reads:
//!
//! * `alive` is one byte per node: the churn sweep walks n of them every
//!   window, and a record-wide stride would make it walk n records;
//! * `crash_at` stores a raw `u64` with [`NO_CRASH`] as the "none"
//!   sentinel — half the width of `Option<u64>` and branch-free to scan;
//! * arrays only some configurations read are allocated only under them:
//!   `crash_at` when the churn model crashes nodes, `bits_window` when a
//!   bandwidth budget is set (8 bytes per node each, 80 MB apiece at
//!   n = 10⁷, otherwise spent on zeros nobody reads);
//! * cancellation watermarks live in **one** shard-level map keyed by
//!   `(local node, timer label)` instead of a `HashMap` per node, so the
//!   common all-nodes-never-cancel case costs one empty map, not n.
//!
//! The layout is storage-only: it feeds no draw, verdict or order hash.

use crate::config::AsyncConfig;
use crate::metrics::AsyncMetrics;
use rand::rngs::SmallRng;
use std::collections::HashMap;

/// Sentinel in [`NodeTable::crash_at`] marking "no crash scheduled".
pub(crate) const NO_CRASH: u64 = u64::MAX;

/// One node's dispatch-time state, in one record. A rejoin replaces the
/// handler and bumps the incarnation; the RNG stream, the sequence
/// counter and the order hash run on across incarnations.
pub(crate) struct NodeSlot<H> {
    /// The live incarnation's handler.
    pub(crate) handler: H,
    /// The node's private RNG stream ([`gossip_net::node_rng`]).
    pub(crate) rng: SmallRng,
    /// Private, monotone event-scheduling counter.
    pub(crate) oseq: u64,
    /// Dispatch-order hash (FNV fold of the node's events).
    pub(crate) node_hash: u64,
    /// Incarnation epoch, bumped at every rejoin.
    pub(crate) incarnation: u32,
}

impl<H> NodeSlot<H> {
    /// A never-run node: incarnation 0, nothing scheduled, nothing folded.
    pub(crate) fn new(handler: H, rng: SmallRng) -> Self {
        NodeSlot {
            handler,
            rng,
            oseq: 0,
            node_hash: crate::metrics::FNV_OFFSET,
            incarnation: 0,
        }
    }

    /// Advance and return the node's event-scheduling counter.
    #[inline]
    pub(crate) fn next_oseq(&mut self) -> u64 {
        bump(&mut self.oseq)
    }
}

/// Return an event-scheduling counter and step it: the one place a
/// node's `oseq` advances, from its record or through its mailbox.
#[inline]
pub(crate) fn bump(seq: &mut u64) -> u64 {
    let now = *seq;
    *seq += 1;
    now
}

// Besides the handler, a record costs the RNG's 32 bytes, two counters
// and the incarnation: one cache line holds it with room for a small
// handler.
const _: () = assert!(std::mem::size_of::<NodeSlot<()>>() <= 56);

/// Dense per-node arrays the barriers sweep, indexed by a node's index in
/// the table (shard-relative in the driver, global in the facade). See the
/// module docs.
pub(crate) struct NodeTable {
    /// Current liveness.
    pub(crate) alive: Vec<bool>,
    /// Crash instant scheduled inside the current window ([`NO_CRASH`]
    /// when none is); empty when the churn model never crashes anyone.
    pub(crate) crash_at: Vec<u64>,
    /// Bits sent in the current bandwidth window. Empty without a
    /// bandwidth budget: nothing is tallied then.
    pub(crate) bits_window: Vec<u64>,
    /// Cancellation watermarks, keyed `(local index, timer label)`: a
    /// pending timer with a smaller `oseq` than the recorded watermark is
    /// suppressed at dispatch. `oseq` is monotone across incarnations, so
    /// stale entries can never cancel a post-rejoin timer. Driver only.
    pub(crate) cancels: HashMap<(u32, u32), u64>,
    /// Number of `true` entries in `alive`.
    pub(crate) alive_count: usize,
    /// Number of non-sentinel entries in `crash_at`.
    pub(crate) pending_crashes: usize,
}

impl NodeTable {
    /// A table seeded from the initial liveness pattern, with the arrays
    /// `config` reads.
    pub(crate) fn new(alive: Vec<bool>, config: &AsyncConfig) -> Self {
        let n = alive.len();
        let per_node = |needed: bool, fill: u64| if needed { vec![fill; n] } else { Vec::new() };
        NodeTable {
            alive_count: alive.iter().filter(|&&a| a).count(),
            alive,
            crash_at: per_node(config.churn.crash_prob > 0.0, NO_CRASH),
            bits_window: per_node(config.bandwidth_bits_per_round.is_some(), 0),
            cancels: HashMap::new(),
            pending_crashes: 0,
        }
    }

    /// Node `i`'s pending crash comes due. (Only a crash kills a node, so a
    /// node with one pending is alive.)
    #[inline]
    pub(crate) fn crash(&mut self, i: usize, metrics: &mut AsyncMetrics) {
        debug_assert!(self.alive[i] && self.crash_at[i] != NO_CRASH);
        self.alive[i] = false;
        self.alive_count -= 1;
        self.crash_at[i] = NO_CRASH;
        self.pending_crashes -= 1;
        metrics.churn_crashes += 1;
    }

    /// Charge sender `i`'s attempt of `bits` to its window budget and say
    /// whether it is now over. A live sender's every attempt accrues — the
    /// NIC tried and burned the slot, so an oversized message can starve
    /// later small ones; a dead one puts nothing on the wire.
    #[inline]
    pub(crate) fn charge(&mut self, i: usize, bits: u32, budget: Option<u64>) -> bool {
        match budget {
            Some(budget) if self.alive[i] => {
                let sent = &mut self.bits_window[i];
                *sent += u64::from(bits);
                *sent > budget
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use gossip_net::{node_rng, NodeId, SimConfig};

    #[test]
    fn table_tracks_liveness_and_sequences() {
        let config = AsyncConfig::new(SimConfig::new(3))
            .with_churn(ChurnModel::per_round(0.1, 0.1))
            .with_bandwidth_bits_per_round(64);
        let t = NodeTable::new(vec![true, false, true], &config);
        assert_eq!(t.alive.len(), 3);
        assert_eq!(t.alive_count, 2);
        assert_eq!(t.pending_crashes, 0);
        assert_eq!(t.crash_at, vec![NO_CRASH; 3]);
        assert_eq!(t.bits_window, vec![0; 3]);
        let rng = node_rng(7, NodeId::new(1));
        let mut slot = NodeSlot::new((), rng.clone());
        assert_eq!(slot.next_oseq(), 0);
        assert_eq!(slot.next_oseq(), 1);
        assert_eq!(slot.oseq, 2);
        assert_eq!(slot.node_hash, crate::metrics::FNV_OFFSET);
        assert_eq!(slot.incarnation, 0);
        assert_eq!(slot.rng, rng, "the slot runs the stream it was given");
    }

    #[test]
    fn arrays_the_config_never_reads_are_not_allocated() {
        let quiet = AsyncConfig::new(SimConfig::new(3));
        let t = NodeTable::new(vec![true; 3], &quiet);
        assert!(t.crash_at.is_empty() && t.bits_window.is_empty());
        // Rejoins alone crash nobody.
        let rejoin_only = quiet.with_churn(ChurnModel::per_round(0.0, 0.5));
        let t = NodeTable::new(vec![true, false, true], &rejoin_only);
        assert!(t.crash_at.is_empty());
        assert_eq!(t.alive.len(), 3);
    }
}
