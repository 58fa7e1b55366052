//! Standard topology generators.
//!
//! These cover the topologies used in the paper's sparse-network section
//! (Section 4): arbitrary connected graphs, `d`-regular graphs and Chord
//! (see [`crate::chord`]), plus a few classical shapes useful in tests.

use crate::graph::Graph;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Complete graph `K_n` (the point-to-point model of Sections 2–3, made
/// explicit as a topology; only use for modest `n` — it has `n(n−1)/2` edges).
/// It is the circulant graph of every distance up to `n/2`.
pub fn complete(n: usize) -> Graph {
    let distances: Vec<usize> = (1..=n / 2).collect();
    Graph::circulant(n, &distances)
}

/// Cycle (ring) on `n` nodes: the circulant graph of distance 1. `ring(0)`
/// and `ring(1)` are one node with no edge, `ring(2)` is one edge.
pub fn ring(n: usize) -> Graph {
    Graph::circulant(n.max(1), &[1])
}

/// 2-D grid of `width × height` nodes; `wrap` makes it a torus.
pub fn grid2d(width: usize, height: usize, wrap: bool) -> Graph {
    assert!(width >= 1 && height >= 1);
    let n = width * height;
    let at = |x: usize, y: usize| y * width + x;
    let mut edges = Vec::with_capacity(2 * n);
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                edges.push((at(x, y), at(x + 1, y)));
            } else if wrap && width > 2 {
                edges.push((at(x, y), at(0, y)));
            }
            if y + 1 < height {
                edges.push((at(x, y), at(x, y + 1)));
            } else if wrap && height > 2 {
                edges.push((at(x, y), at(x, 0)));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Random (approximately) `d`-regular graph built as the union of `⌊d/2⌋`
/// uniformly random Hamiltonian cycles plus, for odd `d`, a random perfect
/// matching. For `n ≫ d` the result is `d`-regular except for the rare
/// collision of two cycle edges (collisions are simply dropped), which is
/// sufficient for the Theorem 13/14 experiments.
pub fn d_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two nodes");
    assert!(d >= 1 && d < n, "degree must satisfy 1 <= d < n");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xdeed_beef_cafe_f00d);
    let mut edges = Vec::with_capacity(n * d / 2 + n);
    let cycles = d / 2;
    for _ in 0..cycles {
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        for i in 0..n {
            edges.push((perm[i], perm[(i + 1) % n]));
        }
    }
    if d % 2 == 1 {
        // Random perfect matching (drop the last node if n is odd).
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        for pair in perm.chunks_exact(2) {
            edges.push((pair[0], pair[1]));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, p)` random graph, sampled in `O(n + m)` expected time
/// with geometric edge skipping.
pub(crate) fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00c0_ffee_1234_5678);
    let mut edges = Vec::new();
    if p > 0.0 {
        if p >= 1.0 {
            return complete(n);
        }
        let log_q = (1.0 - p).ln();
        // Iterate the upper triangle as a flat sequence, skipping geometrically.
        let total_pairs = n as u128 * (n as u128 - 1) / 2;
        let mut idx: u128 = 0;
        loop {
            let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let skip = (r.ln() / log_q).floor() as u128;
            idx = idx.saturating_add(skip);
            if idx >= total_pairs {
                break;
            }
            let (a, b) = pair_from_index(n, idx);
            edges.push((a, b));
            idx += 1;
        }
    }
    Graph::from_edges(n.max(1), &edges)
}

/// Map a flat upper-triangle index to the pair `(a, b)`, `a < b`.
fn pair_from_index(n: usize, idx: u128) -> (usize, usize) {
    // Row a contains (n - 1 - a) pairs. Walk rows; n is at most ~10^7 in our
    // experiments so the loop is acceptable and avoids floating-point error.
    let mut remaining = idx;
    for a in 0..n {
        let row = (n - 1 - a) as u128;
        if remaining < row {
            return (a, a + 1 + remaining as usize);
        }
        remaining -= row;
    }
    unreachable!("index out of range")
}

/// An Erdős–Rényi graph with expected degree `c·log n` (connected whp for
/// `c > 1`), the standard "sparse but connected" testbed.
pub fn erdos_renyi_logn(n: usize, c: f64, seed: u64) -> Graph {
    let p = if n <= 1 {
        0.0
    } else {
        (c * (n as f64).ln() / n as f64).min(1.0)
    };
    erdos_renyi(n, p, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;
    use gossip_net::NodeId;

    /// The edge-list builds `complete` and `ring` replaced, kept as their
    /// oracles.
    fn complete_from_edges(n: usize) -> Graph {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        Graph::from_edges(n, &edges)
    }

    fn ring_from_edges(n: usize) -> Graph {
        match n {
            0 | 1 => Graph::from_edges(1, &[]),
            2 => Graph::from_edges(2, &[(0, 1)]),
            _ => {
                let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
                Graph::from_edges(n, &edges)
            }
        }
    }

    #[test]
    fn circulant_builders_equal_their_edge_list_builds() {
        assert_eq!(ring(0), ring_from_edges(0));
        for n in 1..64 {
            assert_eq!(complete(n), complete_from_edges(n), "complete({n})");
            assert_eq!(ring(n), ring_from_edges(n), "ring({n})");
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn complete_on_no_nodes_panics() {
        let _ = complete(0);
    }

    #[test]
    fn complete_graph_has_all_edges() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.min_degree(), 5);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn ring_degrees_are_two() {
        let g = ring(10);
        assert_eq!(g.num_edges(), 10);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(is_connected(&g));
        let g2 = ring(2);
        assert_eq!(g2.num_edges(), 1);
        let g1 = ring(1);
        assert_eq!(g1.num_edges(), 0);
    }

    #[test]
    fn grid_without_wrap() {
        let g = grid2d(4, 3, false);
        assert_eq!(g.n(), 12);
        // corner
        assert_eq!(g.degree(NodeId::new(0)), 2);
        // interior
        assert_eq!(g.degree(NodeId::new(5)), 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_is_regular() {
        let g = grid2d(5, 4, true);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(is_connected(&g));
    }

    #[test]
    fn d_regular_has_requested_degree() {
        for d in [2usize, 3, 4, 6, 8] {
            let g = d_regular(500, d, 7);
            let avg = g.avg_degree();
            assert!((avg - d as f64).abs() < 0.2, "d={d}, avg degree {avg}");
            assert!(g.max_degree() <= d + 1);
        }
    }

    #[test]
    fn d_regular_even_degree_is_connected() {
        // Union of random Hamiltonian cycles is connected by construction.
        let g = d_regular(300, 4, 11);
        assert!(is_connected(&g));
    }

    #[test]
    fn erdos_renyi_edge_count_matches_expectation() {
        let n = 2000;
        let p = 0.01;
        let g = erdos_renyi(n, p, 3);
        let expected = p * (n * (n - 1) / 2) as f64;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 0.15 * expected,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(50, 0.0, 1).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1).num_edges(), 45);
    }

    #[test]
    fn erdos_renyi_logn_is_connected_whp() {
        let g = erdos_renyi_logn(2000, 2.0, 5);
        assert!(is_connected(&g));
    }

    #[test]
    fn pair_from_index_enumerates_upper_triangle() {
        let n = 6;
        let mut seen = Vec::new();
        for idx in 0..(n * (n - 1) / 2) as u128 {
            seen.push(pair_from_index(n, idx));
        }
        let mut expected = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                expected.push((a, b));
            }
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        assert_eq!(d_regular(200, 4, 9), d_regular(200, 4, 9));
        assert_eq!(erdos_renyi(200, 0.05, 9), erdos_renyi(200, 0.05, 9));
        assert_ne!(erdos_renyi(200, 0.05, 9), erdos_renyi(200, 0.05, 10));
    }
}
