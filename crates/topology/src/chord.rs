//! Chord overlay: finger tables, greedy lookup routing and random-peer
//! sampling.
//!
//! Section 4 of the paper instantiates the sparse-network DRR-gossip on
//! **Chord** (Stoica et al., SIGCOMM'01): every node has degree `O(log n)`
//! and, using an efficient lookup protocol, any node can reach a (roughly)
//! uniformly random node in `T = O(log n)` rounds and `M = O(log n)`
//! messages — the two quantities consumed by Theorem 14.
//!
//! We model an idealised, fully-populated Chord ring: `n` nodes occupy the
//! identifier space `0..n` directly, node `i`'s successor is `i+1 (mod n)`
//! and its `k`-th finger is `i + 2^k (mod n)`. Random-peer sampling routes to
//! the node owning a uniformly random ring position (the substitution for
//! King et al.'s protocol documented in DESIGN.md).

use crate::graph::Graph;
use gossip_net::{ceil_log2, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An idealised Chord overlay on `n` nodes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChordOverlay {
    n: usize,
    /// Finger offsets: `1, 2, 4, ..., 2^(m-1)` with `2^(m-1) < n`.
    finger_offsets: Vec<usize>,
}

impl ChordOverlay {
    /// Build the overlay for `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "Chord overlay needs at least one node");
        let m = ceil_log2(n as u64).max(1);
        let finger_offsets: Vec<usize> = (0..m)
            .map(|k| 1usize << k)
            .filter(|&off| off < n.max(2))
            .collect();
        ChordOverlay {
            n,
            finger_offsets: if finger_offsets.is_empty() {
                vec![1]
            } else {
                finger_offsets
            },
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The finger targets of a node (its overlay neighbours, clockwise).
    pub fn fingers(&self, v: NodeId) -> Vec<NodeId> {
        self.finger_offsets
            .iter()
            .map(|&off| NodeId::new((v.index() + off) % self.n))
            .filter(|&u| u != v)
            .collect()
    }

    /// The overlay as an undirected [`Graph`] (fingers in both directions),
    /// i.e. the degree-`O(log n)` communication topology of Section 4.
    pub fn graph(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.n * self.finger_offsets.len());
        for v in 0..self.n {
            for &off in &self.finger_offsets {
                let u = (v + off) % self.n;
                if u != v {
                    edges.push((v, u));
                }
            }
        }
        Graph::from_edges(self.n, &edges)
    }

    /// Clockwise ring distance from `from` to `to`.
    fn clockwise_distance(&self, from: usize, to: usize) -> usize {
        (to + self.n - from) % self.n
    }

    /// Greedy Chord lookup: the sequence of nodes visited when routing from
    /// `from` to `target`, excluding `from` itself and ending with `target`.
    /// Each hop follows the largest finger that does not overshoot the
    /// target, so the path has `O(log n)` hops.
    pub fn lookup_path(&self, from: NodeId, target: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        self.lookup_path_into(from, target, &mut path);
        path
    }

    /// [`lookup_path`](ChordOverlay::lookup_path) into a caller-owned
    /// buffer, which is cleared first: a caller routing many samples pays
    /// for one path allocation, not one per sample.
    pub fn lookup_path_into(&self, from: NodeId, target: NodeId, path: &mut Vec<NodeId>) {
        path.clear();
        let mut current = from.index();
        let target_idx = target.index();
        while current != target_idx {
            let remaining = self.clockwise_distance(current, target_idx);
            // Largest finger offset <= remaining; offset 1 (successor) always qualifies.
            let step = self
                .finger_offsets
                .iter()
                .copied()
                .filter(|&off| off <= remaining)
                .max()
                .unwrap_or(1);
            current = (current + step) % self.n;
            path.push(NodeId::new(current));
        }
    }

    /// Number of hops of the greedy lookup.
    pub fn lookup_hops(&self, from: NodeId, target: NodeId) -> usize {
        self.lookup_path(from, target).len()
    }

    /// Sample a (roughly) uniformly random node and return the routing path
    /// to it. This plays the role of the random-peer-selection protocol of
    /// King et al. cited by the paper: `T = O(log n)` rounds and
    /// `M = O(log n)` messages per sample.
    pub fn sample_random_node(&self, from: NodeId, rng: &mut SmallRng) -> Vec<NodeId> {
        let mut path = Vec::new();
        self.sample_random_node_into(from, rng, &mut path);
        path
    }

    /// [`sample_random_node`](ChordOverlay::sample_random_node) into a
    /// caller-owned buffer, which is cleared first. The path is empty when
    /// the node sampled itself.
    pub fn sample_random_node_into(
        &self,
        from: NodeId,
        rng: &mut SmallRng,
        path: &mut Vec<NodeId>,
    ) {
        let target = NodeId::new(rng.gen_range(0..self.n));
        self.lookup_path_into(from, target, path);
    }

    /// Upper bound on lookup hop count (`⌈log₂ n⌉`).
    pub fn max_lookup_hops(&self) -> usize {
        ceil_log2(self.n as u64).max(1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn fingers_have_log_degree() {
        let chord = ChordOverlay::new(1024);
        let f = chord.fingers(NodeId::new(0));
        assert_eq!(f.len(), 10);
        assert_eq!(f[0], NodeId::new(1));
        assert_eq!(f[9], NodeId::new(512));
    }

    #[test]
    fn graph_degree_is_about_2_log_n() {
        let chord = ChordOverlay::new(256);
        let g = chord.graph();
        assert!(is_connected(&g));
        // in + out fingers ≈ 2 log n
        assert!(g.max_degree() <= 2 * 8);
        assert!(g.min_degree() >= 8);
    }

    #[test]
    fn lookup_reaches_target_within_log_hops() {
        let chord = ChordOverlay::new(1 << 12);
        let path = chord.lookup_path(NodeId::new(17), NodeId::new(4000));
        assert_eq!(*path.last().unwrap(), NodeId::new(4000));
        assert!(path.len() <= chord.max_lookup_hops());
    }

    #[test]
    fn lookup_to_self_is_empty() {
        let chord = ChordOverlay::new(64);
        assert!(chord.lookup_path(NodeId::new(5), NodeId::new(5)).is_empty());
    }

    #[test]
    fn successor_lookup_is_single_hop() {
        let chord = ChordOverlay::new(64);
        assert_eq!(
            chord.lookup_path(NodeId::new(63), NodeId::new(0)),
            vec![NodeId::new(0)]
        );
    }

    #[test]
    fn sample_random_node_routes_to_valid_target() {
        let chord = ChordOverlay::new(500);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let path = chord.sample_random_node(NodeId::new(42), &mut rng);
            assert!(path.len() <= chord.max_lookup_hops());
            if let Some(last) = path.last() {
                assert!(last.index() < 500);
            }
        }
    }

    #[test]
    fn tiny_overlays_work() {
        for n in 1..=4 {
            let chord = ChordOverlay::new(n);
            if n > 1 {
                let path = chord.lookup_path(NodeId::new(0), NodeId::new(n - 1));
                assert_eq!(path.last().copied(), Some(NodeId::new(n - 1)));
            }
        }
    }

    proptest! {
        #[test]
        fn lookup_always_terminates_at_target(n in 2usize..2000, from in 0usize..2000, to in 0usize..2000) {
            let from = from % n;
            let to = to % n;
            let chord = ChordOverlay::new(n);
            let path = chord.lookup_path(NodeId::new(from), NodeId::new(to));
            if from == to {
                prop_assert!(path.is_empty());
            } else {
                prop_assert_eq!(*path.last().unwrap(), NodeId::new(to));
                prop_assert!(path.len() <= chord.max_lookup_hops());
            }
        }

        #[test]
        fn hops_monotone_under_doubling(n_exp in 3u32..12) {
            // Average lookup hops grow with log n.
            let small = ChordOverlay::new(1 << n_exp);
            let large = ChordOverlay::new(1 << (n_exp + 2));
            prop_assert!(small.max_lookup_hops() < large.max_lookup_hops());
        }
    }
}
