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
//! and its `k`-th finger is `i + 2^k (mod n)`.
//!
//! **Substitution note.** The paper takes its random-node protocol from
//! King et al.; this crate substitutes the simplest protocol that meets
//! the same assumption on this ring. A sample draws a uniformly random ring
//! position and routes a greedy lookup to its owner, one message per hop,
//! and is charged `⌈log₂ n⌉` rounds (`ChordSampler`). Every position here
//! is owned by exactly one node, so the endpoint is exactly uniform. On a
//! real ring, nodes own arcs of unequal length and routing to a random
//! position favours the owners of long arcs; that bias is what King et
//! al.'s protocol removes, and this model does not have it.
//!
//! Because the fingers are exactly the powers of two below `n`, a greedy
//! lookup takes one hop per set bit of the clockwise distance to the target,
//! highest first: popcount(distance) ≤ `⌈log₂ n⌉` hops, each O(1) work (one
//! bit scan and one conditional wrap).

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

    /// The overlay as an undirected [`Graph`] (fingers in both directions),
    /// i.e. the degree-`O(log n)` communication topology of Section 4.
    /// Node `v`'s neighbours are `v ± 2^k (mod n)`, so this is the
    /// circulant graph of the finger offsets: one sorted table of at most
    /// `2⌈log₂ n⌉` distances, with no per-node rows.
    pub fn graph(&self) -> Graph {
        Graph::circulant(self.n, &self.finger_offsets)
    }

    /// Greedy Chord lookup: the sequence of nodes visited when routing from
    /// `from` to `target`, excluding `from` itself and ending with `target`.
    /// Each hop follows the largest finger that does not overshoot the
    /// target, so the path has popcount(clockwise distance) hops.
    #[cfg(test)]
    pub(crate) fn lookup_path(&self, from: NodeId, target: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        self.lookup_path_into(from, target, &mut path);
        path
    }

    /// The greedy Chord lookup from `from` to `target` into a caller-owned
    /// buffer, which is cleared first: the nodes visited, excluding `from`
    /// and ending with `target`, each hop along the largest finger that
    /// does not overshoot. The fingers are every power of two below `n`,
    /// so that finger is the highest set bit of the clockwise distance
    /// still to go: the path takes one hop per set bit of the distance
    /// (popcount(distance) ≤ `⌈log₂ n⌉` hops), each O(1) work. A caller
    /// routing many samples pays for one path allocation, not one per
    /// sample.
    #[inline]
    pub(crate) fn lookup_path_into(&self, from: NodeId, target: NodeId, path: &mut Vec<NodeId>) {
        path.clear();
        let (from, target) = (from.index(), target.index());
        let mut remaining = if target >= from {
            target - from
        } else {
            target + self.n - from
        };
        let mut current = from;
        while remaining != 0 {
            let step = 1usize << (usize::BITS - 1 - remaining.leading_zeros());
            remaining ^= step;
            current += step;
            if current >= self.n {
                current -= self.n;
            }
            path.push(NodeId::new(current));
        }
    }

    /// Sample a (roughly) uniformly random node and leave the routing path
    /// to it in a caller-owned buffer, which is cleared first. The path is
    /// empty when the node sampled itself. This plays the role of the
    /// random-peer-selection protocol of King et al. cited by the paper:
    /// `T = O(log n)` rounds and `M = O(log n)` messages per sample.
    #[inline]
    pub(crate) fn sample_random_node_into(
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

    /// The finger-scan lookup the bit walk replaced, kept as its oracle:
    /// each hop takes the largest finger offset not past the remaining
    /// clockwise distance.
    fn finger_scan_path(chord: &ChordOverlay, from: NodeId, target: NodeId) -> Vec<NodeId> {
        let n = chord.n;
        let mut path = Vec::new();
        let mut current = from.index();
        while current != target.index() {
            let remaining = (target.index() + n - current) % n;
            let step = chord
                .finger_offsets
                .iter()
                .copied()
                .filter(|&off| off <= remaining)
                .max()
                .unwrap_or(1);
            current = (current + step) % n;
            path.push(NodeId::new(current));
        }
        path
    }

    /// The edge-list build `graph` replaced, kept as its oracle: every
    /// finger edge through `Graph::from_edges`.
    fn finger_edge_graph(chord: &ChordOverlay) -> Graph {
        let mut edges = Vec::new();
        for v in 0..chord.n {
            for &off in &chord.finger_offsets {
                let u = (v + off) % chord.n;
                if u != v {
                    edges.push((v, u));
                }
            }
        }
        Graph::from_edges(chord.n, &edges)
    }

    #[test]
    fn graph_equals_the_finger_edge_build() {
        let mut sizes = vec![1, 2, 3];
        for k in 2..=17 {
            sizes.extend([(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for n in sizes {
            let chord = ChordOverlay::new(n);
            let g = chord.graph();
            assert_eq!(g, finger_edge_graph(&chord), "n = {n}");
            if n.is_power_of_two() && n >= 2 {
                // +n/2 and −n/2 are one neighbour.
                let log_n = n.trailing_zeros() as usize;
                assert_eq!(g.min_degree(), 2 * log_n - 1, "n = {n}");
                assert_eq!(g.max_degree(), 2 * log_n - 1, "n = {n}");
            }
        }
    }

    #[test]
    fn fingers_have_log_degree() {
        // Ten fingers 1, 2, …, 512 and their mirrors; +512 and −512 are one
        // neighbour.
        let g = ChordOverlay::new(1024).graph();
        let row: Vec<NodeId> = g.neighbors(NodeId::new(0)).collect();
        assert_eq!(row.len(), 2 * 10 - 1);
        assert_eq!(g.degree(NodeId::new(0)), 2 * 10 - 1);
        assert_eq!(row[0], NodeId::new(1));
        assert!(row.contains(&NodeId::new(512)));
    }

    #[test]
    fn a_ten_million_node_graph_is_one_small_table() {
        // Fingers 2⁰…2²³ and their 24 mirrors, none shared: 48 neighbours a
        // node, with no stored rows (as rows, ≈ 1.9 GiB).
        let n = 10_000_000;
        let g = ChordOverlay::new(n).graph();
        assert_eq!(g.n(), n);
        for v in [0, 1, 4_999_999, n - 1] {
            assert_eq!(g.degree(NodeId::new(v)), 48, "v = {v}");
        }
        let edge = |a: usize, b: usize| g.has_edge(NodeId::new(a), NodeId::new(b));
        assert!(edge(0, 1) && edge(1, 0) && edge(0, n - 1));
        assert!(edge(0, 1 << 23) && edge(0, n - (1 << 23)));
        assert!(edge(n - 1, (1 << 20) - 1) && edge(123_456, 123_456 + (1 << 17)));
        assert!(!edge(0, 3) && !edge(0, 0) && !edge(5, 5 + (1 << 23) + 1));
        let row: Vec<usize> = g.neighbors(NodeId::new(n - 2)).map(|u| u.index()).collect();
        assert_eq!(row.len(), 48);
        assert!(row.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(row[0], 0);
        assert!(row.iter().all(|&u| edge(n - 2, u) && edge(u, n - 2)));
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
        let mut path = Vec::new();
        for _ in 0..100 {
            chord.sample_random_node_into(NodeId::new(42), &mut rng, &mut path);
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
        fn bit_walk_lookup_equals_the_finger_scan(
            n_exp in 0u32..=17,
            shape in 0usize..4,
            n_any in 1usize..=(1 << 17),
            seed in 0u64..u64::MAX,
        ) {
            // Powers of two, 2^k ± 1 and arbitrary sizes up to 2^17.
            let n = match shape {
                0 => 1usize << n_exp,
                1 => (1usize << n_exp) + 1,
                2 => ((1usize << n_exp) - 1).max(1),
                _ => n_any,
            };
            let chord = ChordOverlay::new(n);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut path = Vec::new();
            for _ in 0..16 {
                let from = NodeId::new(rng.gen_range(0..n));
                let to = NodeId::new(rng.gen_range(0..n));
                chord.lookup_path_into(from, to, &mut path);
                prop_assert_eq!(&path, &finger_scan_path(&chord, from, to));
                let distance = (to.index() + n - from.index()) % n;
                prop_assert_eq!(path.len(), distance.count_ones() as usize);
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
