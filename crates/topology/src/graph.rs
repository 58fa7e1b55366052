//! Compressed sparse-row undirected graphs.
//!
//! Two constructors fill the rows:
//!
//! * `Graph::circulant` builds [`crate::builders::ring`],
//!   [`crate::builders::complete`] and [`crate::ChordOverlay::graph`], whose
//!   node `v` neighbours `v ± d (mod n)` for a fixed distance list. It sorts
//!   one table of `k` distances and writes each row as a rotation of it:
//!   `n·k` ids into one exact-size allocation, with no edge list and no
//!   per-row sort. Chord at n = 32 768 (`k` = 29) is 3.6 MiB of rows and
//!   0.25 MiB of offsets, and nothing else.
//! * [`Graph::from_edges`] builds every other shape (grids and tori,
//!   `d`-regular, Erdős–Rényi) from the caller's edge list, 16 bytes a
//!   pair. It adds the offsets, a copy of them as fill cursors and both
//!   directions of every edge, duplicates included, then sorts each row and
//!   squeezes the duplicates out in place: `O(m + Σ deg·log deg)` time.

use gossip_net::NodeId;
use serde::{Deserialize, Serialize};

/// An undirected graph on nodes `0..n` stored in compressed sparse-row form.
///
/// This is the communication topology of the *sparse-network* model of
/// Section 4 of the paper: in one round a node may exchange messages with
/// its immediate neighbours only (but with all of them simultaneously, as in
/// the standard message-passing model).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    offsets: Vec<usize>,
    adjacency: Vec<u32>,
}

impl Graph {
    /// Build a graph from an undirected edge list. Self-loops and duplicate
    /// edges are dropped.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        assert!(n >= 1, "graph must have at least one node");
        // Straight into compressed rows, with two allocations whatever the
        // edge count: size every node's run by its degree (duplicates
        // included), file both directions of every edge, then sort each run
        // and squeeze the duplicates out, closing the gaps in place.
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for n={n}");
            if a != b {
                offsets[a + 1] += 1;
                offsets[b + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut adjacency = vec![0u32; offsets[n]];
        let mut next = offsets[..n].to_vec();
        for &(a, b) in edges {
            if a != b {
                adjacency[next[a]] = b as u32;
                next[a] += 1;
                adjacency[next[b]] = a as u32;
                next[b] += 1;
            }
        }
        let mut kept = 0;
        for v in 0..n {
            let run = offsets[v]..offsets[v + 1];
            adjacency[run.clone()].sort_unstable();
            offsets[v] = kept;
            for at in run {
                if kept == offsets[v] || adjacency[kept - 1] != adjacency[at] {
                    adjacency[kept] = adjacency[at];
                    kept += 1;
                }
            }
        }
        offsets[n] = kept;
        adjacency.truncate(kept);
        Graph {
            n,
            offsets,
            adjacency,
        }
    }

    /// The circulant graph on `0..n` joining every `v` to `v ± d (mod n)`
    /// for each `d` in `distances`: equal to [`Graph::from_edges`] over
    /// those edges, built without them. Every row is one table
    /// `D = {d mod n, (n − d) mod n} \ {0}`, sorted and deduped once, so
    /// each node has `|D|` neighbours. Row `v` is that table rotated where
    /// `v + d` wraps: first the ids `v + d − n` for `d ≥ n − v`, then the
    /// ids `v + d` — already sorted. Distances `≥ n`, zero and repeats are
    /// allowed.
    pub(crate) fn circulant(n: usize, distances: &[usize]) -> Self {
        assert!(n >= 1, "graph must have at least one node");
        let mut table: Vec<usize> = distances
            .iter()
            .flat_map(|&d| [d % n, (n - d % n) % n])
            .filter(|&d| d != 0)
            .collect();
        table.sort_unstable();
        table.dedup();
        let k = table.len();
        let offsets = (0..=n).map(|v| v * k).collect();
        let mut adjacency = Vec::with_capacity(n * k);
        for v in 0..n {
            let wrap = table.partition_point(|&d| d < n - v);
            adjacency.extend(table[wrap..].iter().map(|&d| (v + d - n) as u32));
            adjacency.extend(table[..wrap].iter().map(|&d| (v + d) as u32));
        }
        Graph {
            n,
            offsets,
            adjacency,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[cfg(test)]
    pub(crate) fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Degree of a node.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The (sorted) neighbours of a node.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let i = v.index();
        self.adjacency[self.offsets[i]..self.offsets[i + 1]]
            .iter()
            .map(|&u| NodeId(u))
    }

    /// Raw neighbour slice of a node (dense `u32` ids).
    #[inline]
    pub(crate) fn neighbor_slice(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.adjacency[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Whether `{a, b}` is an edge. `O(log degree)`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbor_slice(a).binary_search(&(b.0)).is_ok()
    }

    /// All nodes `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId::new)
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes.
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree.
    #[cfg(test)]
    pub(crate) fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.adjacency.len() as f64 / self.n as f64
        }
    }

    /// Sum over nodes of `1/(degree+1)` — the expected number of trees
    /// produced by Local-DRR on this graph (Theorem 13).
    pub fn expected_local_drr_trees(&self) -> f64 {
        self.nodes()
            .map(|v| 1.0 / (self.degree(v) as f64 + 1.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        // 0-1, 1-2, 2-0, 2-3
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn basic_structure() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(2)), 3);
        assert_eq!(g.degree(NodeId::new(3)), 1);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_pendant();
        let n2: Vec<usize> = g.neighbors(NodeId::new(2)).map(|v| v.index()).collect();
        assert_eq!(n2, vec![0, 1, 3]);
        for v in g.nodes() {
            for u in g.neighbors(v) {
                assert!(g.has_edge(u, v));
                assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let g = Graph::from_edges(3, &[(0, 0), (0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn has_edge_negative() {
        let g = triangle_plus_pendant();
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(0)));
    }

    #[test]
    fn expected_local_drr_trees_matches_formula() {
        let g = triangle_plus_pendant();
        let expected = 1.0 / 3.0 + 1.0 / 3.0 + 1.0 / 4.0 + 1.0 / 2.0;
        assert!((g.expected_local_drr_trees() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::from_edges(1, &[]);
        assert_eq!(g.n(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(NodeId::new(0)), 0);
    }

    proptest::proptest! {
        /// The in-place row construction against per-node sets: random
        /// multigraphs with self-loops, repeats in both directions and
        /// isolated nodes.
        #[test]
        fn rows_are_the_sorted_neighbour_sets(
            n in 1usize..40,
            raw in proptest::collection::vec(0usize..1600, 0..200),
        ) {
            let edges: Vec<(usize, usize)> = raw.iter().map(|&x| (x / 40 % n, x % 40 % n)).collect();
            let mut sets = vec![std::collections::BTreeSet::new(); n];
            for &(a, b) in &edges {
                if a != b {
                    sets[a].insert(b as u32);
                    sets[b].insert(a as u32);
                }
            }
            let g = Graph::from_edges(n, &edges);
            for v in g.nodes() {
                let want: Vec<u32> = sets[v.index()].iter().copied().collect();
                proptest::prop_assert_eq!(g.neighbor_slice(v), &want[..]);
            }
            proptest::prop_assert_eq!(g.num_edges() * 2, sets.iter().map(|s| s.len()).sum::<usize>());
        }

        /// The circulant rows against the edge-list build of the same
        /// distances: lists with zero, `n/2`, distances `≥ n` and repeats.
        #[test]
        fn circulant_equals_the_edge_list_build(
            n in 1usize..4096,
            raw in proptest::collection::vec(0usize..32768, 0..12),
        ) {
            let mut distances = Vec::new();
            for x in raw {
                let d = match x % 4 {
                    0 => 0,
                    1 => n / 2,
                    2 => x / 4,
                    _ => distances.last().copied().unwrap_or(n),
                };
                distances.push(d);
            }
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|v| distances.iter().map(move |&d| (v, (v + d) % n)))
                .collect();
            proptest::prop_assert_eq!(Graph::circulant(n, &distances), Graph::from_edges(n, &edges));
        }
    }
}
