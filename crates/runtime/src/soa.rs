//! Struct-of-arrays per-node state for the sharded engine.
//!
//! A shard used to scatter each node's scalar state across an
//! array-of-structs-flavoured mix of `Vec<Option<u64>>` and per-node
//! `HashMap`s; at n ≥ 10⁶ the barrier sweeps (bandwidth reset, churn
//! draw, hash folding) paid a cache miss per node for fields they never
//! touch together. [`NodeTable`] packs each field into its own dense
//! array so every sweep walks exactly the bytes it reads:
//!
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
//! Handlers and per-node RNG streams stay in their own slabs next to the
//! table (they are handed out by `&mut` reference individually, which a
//! field of the table could not be while the rest is borrowed).
//!
//! The layout is storage-only: dispatch reads and writes the same values
//! in the same order as before, so the per-node order hashes — and with
//! them the driver's shard-count-invariant fingerprint — are preserved
//! bit for bit.

use crate::config::AsyncConfig;
use std::collections::HashMap;

/// Sentinel in [`NodeTable::crash_at`] marking "no crash scheduled".
pub(crate) const NO_CRASH: u64 = u64::MAX;

/// Dense parallel arrays of per-node scalar state, indexed by a node's
/// local (shard-relative) index. See the module docs.
pub(crate) struct NodeTable {
    /// Current liveness.
    pub(crate) alive: Vec<bool>,
    /// Crash instant scheduled inside the current window ([`NO_CRASH`]
    /// when none is). Empty when the churn model never crashes anyone:
    /// only crash events and the churn draw read it.
    pub(crate) crash_at: Vec<u64>,
    /// Incarnation epoch, bumped at every rejoin.
    pub(crate) incarnation: Vec<u32>,
    /// Private, monotone event-scheduling counter.
    pub(crate) oseq: Vec<u64>,
    /// Bits sent in the current bandwidth window. Empty without a
    /// bandwidth budget: nothing is tallied then.
    pub(crate) bits_window: Vec<u64>,
    /// Per-node dispatch-order hash (FNV fold of the node's events).
    pub(crate) node_hash: Vec<u64>,
    /// Cancellation watermarks, keyed `(local index, timer label)`: a
    /// pending timer with a smaller `oseq` than the recorded watermark is
    /// suppressed at dispatch. `oseq` is monotone across incarnations, so
    /// stale entries can never cancel a post-rejoin timer.
    pub(crate) cancels: HashMap<(u32, u32), u64>,
    /// Number of `true` entries in `alive`.
    pub(crate) alive_count: usize,
    /// Number of non-sentinel entries in `crash_at`.
    pub(crate) pending_crashes: usize,
}

impl NodeTable {
    /// A table seeded from the initial liveness pattern, with the arrays
    /// `config` reads.
    pub(crate) fn new(alive: &[bool], config: &AsyncConfig) -> Self {
        let n = alive.len();
        let per_node = |needed: bool, fill: u64| if needed { vec![fill; n] } else { Vec::new() };
        NodeTable {
            alive: alive.to_vec(),
            crash_at: per_node(config.churn.crash_prob > 0.0, NO_CRASH),
            incarnation: vec![0; n],
            oseq: vec![0; n],
            bits_window: per_node(config.bandwidth_bits_per_round.is_some(), 0),
            node_hash: vec![crate::metrics::FNV_OFFSET; n],
            cancels: HashMap::new(),
            alive_count: alive.iter().filter(|&&a| a).count(),
            pending_crashes: 0,
        }
    }

    /// Advance and return `local`'s event-scheduling counter.
    #[inline]
    pub(crate) fn next_oseq(&mut self, local: usize) -> u64 {
        let seq = self.oseq[local];
        self.oseq[local] += 1;
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use gossip_net::SimConfig;

    #[test]
    fn table_tracks_liveness_and_sequences() {
        let config = AsyncConfig::new(SimConfig::new(3))
            .with_churn(ChurnModel::per_round(0.1, 0.1))
            .with_bandwidth_bits_per_round(64);
        let mut t = NodeTable::new(&[true, false, true], &config);
        assert_eq!(t.alive.len(), 3);
        assert_eq!(t.alive_count, 2);
        assert_eq!(t.pending_crashes, 0);
        assert_eq!(t.crash_at, vec![NO_CRASH; 3]);
        assert_eq!(t.bits_window, vec![0; 3]);
        assert_eq!(t.next_oseq(1), 0);
        assert_eq!(t.next_oseq(1), 1);
        assert_eq!(t.next_oseq(0), 0);
        assert_eq!(t.node_hash[2], crate::metrics::FNV_OFFSET);
    }

    #[test]
    fn arrays_the_config_never_reads_are_not_allocated() {
        let quiet = AsyncConfig::new(SimConfig::new(3));
        let t = NodeTable::new(&[true; 3], &quiet);
        assert!(t.crash_at.is_empty() && t.bits_window.is_empty());
        // Rejoins alone crash nobody.
        let rejoin_only = quiet.with_churn(ChurnModel::per_round(0.0, 0.5));
        let t = NodeTable::new(&[true, false, true], &rejoin_only);
        assert!(t.crash_at.is_empty());
        assert_eq!(t.incarnation.len(), 3);
    }
}
