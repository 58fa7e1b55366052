//! Local-DRR: the DRR variant for sparse networks (Section 4).
//!
//! On an arbitrary undirected graph, each node draws a uniform random rank
//! and connects to its **highest-ranked neighbour** — but only if that
//! neighbour outranks the node itself; a node that has the highest rank in
//! its closed neighbourhood becomes a root. This takes a single round
//! (each node sends its rank to all neighbours simultaneously, the standard
//! message-passing assumption) and `2|E|` messages.
//!
//! Key properties proved in the paper and checked by the experiments:
//! * Theorem 11 — every tree has height `O(log n)` whp on *any* graph;
//! * Theorem 13 — the number of trees is `Θ(Σᵢ 1/(dᵢ+1))` whp.

use crate::forest::Forest;
use crate::rank::Ranks;
use gossip_net::{Network, NodeId, Phase};
use gossip_topology::Graph;

/// Outcome of the Local-DRR phase.
#[derive(Clone, Debug)]
pub struct LocalDrrOutcome {
    /// The ranking forest (trees are subgraphs of the communication graph).
    pub forest: Forest,
    /// The ranks drawn by the nodes.
    pub ranks: Ranks,
    /// Rounds consumed (always 1 plus one connection round).
    pub rounds: u64,
    /// Messages sent (rank exchange over every edge + connection messages).
    pub messages: u64,
}

/// Run Local-DRR on `graph` over the given network (used for accounting; the
/// graph must have the same number of nodes as the network).
pub fn run_local_drr(net: &mut Network, graph: &Graph) -> LocalDrrOutcome {
    assert_eq!(
        net.n(),
        graph.n(),
        "network and graph must have the same node count"
    );
    let n = net.n();
    let rounds_before = net.round();
    let messages_before = net.metrics().total_messages();
    let ranks = Ranks::assign(net);
    let rank_bits = 3 * net.config().id_bits();
    let connect_bits = net.config().id_bits();

    // Round 1: every alive node sends its rank to all neighbours
    // simultaneously (message-passing model). A receiver keeps the
    // highest-ranked neighbour it successfully hears from; ranks are a
    // strict total order, so a running best is the maximum.
    let mut best: Vec<Option<NodeId>> = vec![None; n];
    for v in 0..n {
        let me = NodeId::new(v);
        if !net.is_alive(me) {
            continue;
        }
        for u in graph.neighbors(me) {
            if net.send(me, u, Phase::DrrProbe, rank_bits)
                && best[u.index()].is_none_or(|b| ranks.higher(me, b))
            {
                best[u.index()] = Some(me);
            }
        }
    }
    net.advance_round();

    // Each node connects to that neighbour iff it outranks the node itself.
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    for v in 0..n {
        let me = NodeId::new(v);
        if net.is_alive(me) {
            parent[v] = best[v].filter(|&b| ranks.higher(b, me));
        }
    }

    // Round 2: connection messages to the chosen parents (retried a few
    // times; an unreachable parent demotes the child back to a root).
    #[allow(clippy::needless_range_loop)] // v is a node id indexing several arrays
    for v in 0..n {
        let me = NodeId::new(v);
        if let Some(p) = parent[v] {
            let (_, ok) = net.send_with_retries(me, p, Phase::DrrConnect, connect_bits, 8);
            if !ok {
                parent[v] = None;
            }
        }
    }
    net.advance_round();

    let forest = Forest::from_parents(parent)
        .expect("Local-DRR parents strictly outrank their children, so no cycles are possible");

    LocalDrrOutcome {
        forest,
        ranks,
        rounds: net.round() - rounds_before,
        messages: net.metrics().total_messages() - messages_before,
    }
}

/// Pure (network-free) Local-DRR used by analysis experiments that only care
/// about the forest shape: each node connects to its highest-ranked
/// neighbour if that neighbour outranks it.
pub fn local_drr_forest(graph: &Graph, ranks: &Ranks) -> Forest {
    let n = graph.n();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    #[allow(clippy::needless_range_loop)] // v is a node id indexing several arrays
    for v in 0..n {
        let me = NodeId::new(v);
        let best = graph.neighbors(me).max_by(|&a, &b| {
            if ranks.higher(a, b) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            }
        });
        if let Some(best) = best {
            if ranks.higher(best, me) {
                parent[v] = Some(best);
            }
        }
    }
    Forest::from_parents(parent).expect("acyclic by rank monotonicity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::SimConfig;
    use gossip_topology::{complete, d_regular, grid2d, ring, ChordOverlay};

    fn net(n: usize, seed: u64) -> Network {
        Network::new(SimConfig::new(n).with_seed(seed))
    }

    #[test]
    fn forest_edges_are_graph_edges() {
        let graph = d_regular(400, 6, 3);
        let mut network = net(400, 3);
        let outcome = run_local_drr(&mut network, &graph);
        for v in graph.nodes() {
            if let Some(p) = outcome.forest.parent(v) {
                assert!(graph.has_edge(v, p), "tree edge must be a graph edge");
                assert!(outcome.ranks.higher(p, v));
            }
        }
    }

    #[test]
    fn roots_are_local_rank_maxima() {
        let graph = grid2d(20, 20, true);
        let mut network = net(400, 5);
        let outcome = run_local_drr(&mut network, &graph);
        for v in graph.nodes() {
            if outcome.forest.is_root(v) {
                // With no message loss, a root must outrank all neighbours.
                for u in graph.neighbors(v) {
                    assert!(outcome.ranks.higher(v, u));
                }
            }
        }
    }

    #[test]
    fn takes_two_rounds_and_two_messages_per_edge_plus_connections() {
        let graph = ring(100);
        let mut network = net(100, 1);
        let outcome = run_local_drr(&mut network, &graph);
        assert_eq!(outcome.rounds, 2);
        // rank exchange: 2 per edge = 200; connection messages: ≤ n
        assert!(outcome.messages >= 200);
        assert!(outcome.messages <= 200 + 100);
    }

    #[test]
    fn number_of_trees_tracks_degree_formula(/* Theorem 13 sanity */) {
        let d = 8;
        let n = 4000;
        let graph = d_regular(n, d, 7);
        let mut network = net(n, 7);
        let outcome = run_local_drr(&mut network, &graph);
        let expected = graph.expected_local_drr_trees();
        let actual = outcome.forest.num_trees() as f64;
        assert!(
            (actual - expected).abs() < 0.35 * expected,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn tree_height_is_logarithmic_on_chord(/* Theorem 11 sanity */) {
        let n = 1 << 12;
        let graph = ChordOverlay::new(n).graph();
        let mut network = net(n, 11);
        let outcome = run_local_drr(&mut network, &graph);
        let log_n = (n as f64).log2();
        assert!(
            (outcome.forest.max_height() as f64) < 6.0 * log_n,
            "max height = {}",
            outcome.forest.max_height()
        );
    }

    #[test]
    fn complete_graph_gives_single_tree() {
        // On a complete graph every node sees the global maximum, so there is
        // exactly one root: the top-ranked node.
        let graph = complete(200);
        let mut network = net(200, 13);
        let outcome = run_local_drr(&mut network, &graph);
        assert_eq!(outcome.forest.num_trees(), 1);
        assert_eq!(outcome.forest.max_height(), 1);
        assert!(outcome.forest.is_root(outcome.ranks.highest()));
    }

    #[test]
    fn pure_forest_matches_networked_run_without_loss() {
        let graph = d_regular(300, 4, 17);
        let mut network = net(300, 17);
        let outcome = run_local_drr(&mut network, &graph);
        let pure = local_drr_forest(&graph, &outcome.ranks);
        assert_eq!(outcome.forest, pure);
    }

    #[test]
    fn singleton_graph_is_a_root() {
        let graph = Graph::from_edges(1, &[]);
        let mut network = net(1, 0);
        let outcome = run_local_drr(&mut network, &graph);
        assert_eq!(outcome.forest.num_trees(), 1);
    }

    #[test]
    fn works_with_message_loss() {
        let graph = d_regular(500, 6, 19);
        let mut network = Network::new(SimConfig::new(500).with_seed(19).with_loss_prob(0.1));
        let outcome = run_local_drr(&mut network, &graph);
        // Forest is still valid and covers all nodes.
        let total: usize = outcome.forest.tree_sizes().map(|(_, s)| s).sum();
        assert_eq!(total, 500);
        // Tree edges are still graph edges.
        for v in graph.nodes() {
            if let Some(p) = outcome.forest.parent(v) {
                assert!(graph.has_edge(v, p));
            }
        }
    }
}
