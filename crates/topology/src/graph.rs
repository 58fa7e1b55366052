//! Undirected graphs on nodes `0..n`, held in one of two forms.
//!
//! * **Circulant.** `Graph::circulant` builds [`crate::builders::ring`],
//!   [`crate::builders::complete`] and [`crate::ChordOverlay::graph`], whose
//!   node `v` neighbours `v ± d (mod n)` for a fixed distance list. It keeps
//!   the `k` distinct distances as one sorted `u32` table and nothing per
//!   node: Chord at n = 32 768 (`k` = 29) is 116 bytes, and at n = 10⁷
//!   (`k` = 48) 192. Node `v`'s row is the table rotated where `v + d`
//!   wraps past `n`, so a row read costs one binary search of the table
//!   and one add per neighbour.
//! * **Stored rows.** [`Graph::from_edges`] builds every other shape
//!   (grids and tori, `d`-regular, Erdős–Rényi) into compressed sparse rows
//!   from the caller's edge list, 16 bytes a pair. It adds the offsets, a
//!   copy of them as fill cursors and both directions of every edge,
//!   duplicates included, then sorts each row and squeezes the duplicates
//!   out in place: `O(m + Σ deg·log deg)` time.
//!
//! Both forms list a row as two runs of `u32`s, each shifted by a wrapping
//! add, so one iterator type reads either with no branch on the form per
//! neighbour. A circulant graph equals the edge-list build of its
//! distances: the same `n` and, node for node, the same neighbours in the
//! same (sorted) order, so a draw that indexes a row lands on the same
//! node.

use gossip_net::NodeId;
use serde::{Deserialize, Serialize};

/// An undirected graph on nodes `0..n`.
///
/// This is the communication topology of the *sparse-network* model of
/// Section 4 of the paper: in one round a node may exchange messages with
/// its immediate neighbours only (but with all of them simultaneously, as in
/// the standard message-passing model).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    rows: Rows,
}

/// How a [`Graph`] holds its rows.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum Rows {
    /// Compressed sparse rows: node `v`'s sorted neighbours are
    /// `adjacency[offsets[v]..offsets[v + 1]]`.
    Stored {
        offsets: Vec<usize>,
        adjacency: Vec<u32>,
    },
    /// Every node's neighbours are `v + d (mod n)` for each `d` in this
    /// sorted table of distinct distances in `1..n`.
    Circulant { table: Vec<u32> },
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
            rows: Rows::Stored { offsets, adjacency },
        }
    }

    /// The circulant graph on `0..n` joining every `v` to `v ± d (mod n)`
    /// for each `d` in `distances`: equal to [`Graph::from_edges`] over
    /// those edges, built without them. It keeps one table
    /// `D = {d mod n, (n − d) mod n} \ {0}`, sorted and deduped, so each
    /// node has `|D|` neighbours. Distances `≥ n`, zero and repeats are
    /// allowed.
    pub(crate) fn circulant(n: usize, distances: &[usize]) -> Self {
        assert!(n >= 1, "graph must have at least one node");
        let mut table: Vec<u32> = distances
            .iter()
            .flat_map(|&d| [d % n, (n - d % n) % n])
            .filter(|&d| d != 0)
            .map(|d| d as u32)
            .collect();
        table.sort_unstable();
        table.dedup();
        Graph {
            n,
            rows: Rows::Circulant { table },
        }
    }

    /// Node `v`'s row as two runs, each a slice of `u32`s and the amount
    /// to add to every one of them (wrapping). Stored rows are one run
    /// shifted by 0. A circulant row is the table rotated where `v + d`
    /// wraps: first the ids `v + d − n` for `d ≥ n − v`, then the ids
    /// `v + d`, which lists them in ascending order.
    #[inline]
    fn runs(&self, v: usize) -> [(&[u32], u32); 2] {
        match &self.rows {
            Rows::Stored { offsets, adjacency } => {
                [(&adjacency[offsets[v]..offsets[v + 1]], 0), (&[], 0)]
            }
            Rows::Circulant { table } => {
                let wrap = table.partition_point(|&d| (d as usize) < self.n - v);
                let v32 = v as u32;
                [
                    (&table[wrap..], v32.wrapping_sub(self.n as u32)),
                    (&table[..wrap], v32),
                ]
            }
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
        self.nodes().map(|v| self.degree(v)).sum::<usize>() / 2
    }

    /// Degree of a node.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        match &self.rows {
            Rows::Stored { offsets, .. } => offsets[v.index() + 1] - offsets[v.index()],
            Rows::Circulant { table } => table.len(),
        }
    }

    /// The (sorted) neighbours of a node.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let [(high, shift_high), (low, shift_low)] = self.runs(v.index());
        high.iter()
            .map(move |&d| NodeId(d.wrapping_add(shift_high)))
            .chain(low.iter().map(move |&d| NodeId(d.wrapping_add(shift_low))))
    }

    /// Neighbour `i` of a node, in [`Graph::neighbors`] order. Panics if
    /// `i ≥ degree(v)`.
    #[inline]
    pub(crate) fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        let [(high, shift_high), (low, shift_low)] = self.runs(v.index());
        match high.get(i) {
            Some(&d) => NodeId(d.wrapping_add(shift_high)),
            None => NodeId(low[i - high.len()].wrapping_add(shift_low)),
        }
    }

    /// Whether `{a, b}` is an edge. `O(log degree)`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        match &self.rows {
            Rows::Stored { offsets, adjacency } => adjacency
                [offsets[a.index()]..offsets[a.index() + 1]]
                .binary_search(&b.0)
                .is_ok(),
            Rows::Circulant { table } => {
                let d = (b.index() + self.n - a.index()) % self.n;
                table.binary_search(&(d as u32)).is_ok()
            }
        }
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
        self.nodes().map(|v| self.degree(v)).sum::<usize>() as f64 / self.n as f64
    }

    /// Sum over nodes of `1/(degree+1)` — the expected number of trees
    /// produced by Local-DRR on this graph (Theorem 13).
    pub fn expected_local_drr_trees(&self) -> f64 {
        self.nodes()
            .map(|v| 1.0 / (self.degree(v) as f64 + 1.0))
            .sum()
    }
}

/// Two graphs are equal when they have the same nodes and every node the
/// same neighbours in the same order, whichever form holds them.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self
                .nodes()
                .all(|v| self.neighbors(v).eq(other.neighbors(v)))
    }
}

impl Eq for Graph {}

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

    #[test]
    fn circulant_overlays_store_no_rows() {
        use crate::builders::{complete, ring};
        for g in [ring(1), ring(64), complete(1), complete(33)] {
            assert!(matches!(g.rows, Rows::Circulant { .. }), "{g:?}");
        }
        let chord = crate::ChordOverlay::new(32_768).graph();
        assert!(matches!(&chord.rows, Rows::Circulant { table } if table.len() == 29));
        assert!(matches!(
            crate::builders::d_regular(64, 4, 1).rows,
            Rows::Stored { .. }
        ));
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
                let row: Vec<u32> = g.neighbors(v).map(|u| u.0).collect();
                proptest::prop_assert_eq!(row, want);
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
            let circulant = Graph::circulant(n, &distances);
            let stored = Graph::from_edges(n, &edges);
            proptest::prop_assert!(matches!(circulant.rows, Rows::Circulant { .. }));
            proptest::prop_assert_eq!(&circulant, &stored);
            proptest::prop_assert_eq!(&stored, &circulant);
            for v in stored.nodes() {
                proptest::prop_assert_eq!(circulant.degree(v), stored.degree(v));
                let row: Vec<NodeId> = stored.neighbors(v).collect();
                proptest::prop_assert!(circulant.neighbors(v).eq(row.iter().copied()));
                for (i, &u) in row.iter().enumerate() {
                    proptest::prop_assert_eq!(circulant.neighbor(v, i), u);
                }
            }
            if n < 64 {
                for a in stored.nodes() {
                    for b in stored.nodes() {
                        proptest::prop_assert_eq!(circulant.has_edge(a, b), stored.has_edge(a, b));
                    }
                }
            }
        }
    }
}
