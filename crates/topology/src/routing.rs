//! Random-node sampling / routing protocols for sparse networks.
//!
//! Theorem 14 of the paper assumes "a routing protocol which allows any node
//! to communicate with a random node in the network in `O(T)` rounds and
//! using `O(M)` messages whp" (Assumption 2), citing random walks and Chord's
//! lookup machinery as instantiations. The [`RandomNodeSampler`] trait
//! captures exactly that interface; the gossip phase of the sparse-network
//! DRR-gossip and the routed uniform-gossip baseline are generic over it.

use crate::chord::ChordOverlay;
use crate::graph::Graph;
use gossip_net::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;

/// The outcome of one random-node sample: the node reached and the routing
/// path used to reach it (each hop of the path costs one message and the
/// whole path costs `T` rounds — the caller charges both to the network).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleRoute {
    /// The sampled node.
    pub target: NodeId,
    /// Intermediate hops from the source to the target (inclusive of the
    /// target, exclusive of the source). Empty when the source sampled
    /// itself or can reach the target directly in zero hops.
    pub path: Vec<NodeId>,
}

/// A protocol for reaching a (roughly) uniformly random node of the network.
pub trait RandomNodeSampler {
    /// Sample a random node reachable from `from`: return it, and leave the
    /// path to it in `path` (cleared first; hops as in
    /// [`SampleRoute::path`]). A caller that routes many samples reuses one
    /// buffer and pays for no allocation per sample.
    fn sample_into(&self, from: NodeId, rng: &mut SmallRng, path: &mut Vec<NodeId>) -> NodeId;

    /// Sample a random node reachable from `from` and the path to it, in a
    /// path of its own.
    fn sample(&self, from: NodeId, rng: &mut SmallRng) -> SampleRoute {
        let mut path = Vec::new();
        let target = self.sample_into(from, rng, &mut path);
        SampleRoute { target, path }
    }

    /// The `T` of Assumption 2: worst-case rounds per sample.
    fn rounds_per_sample(&self) -> usize;

    /// Short name for tables.
    fn name(&self) -> &'static str;
}

/// Direct sampling on a complete graph: every node can call every other node
/// in one hop (the model of Sections 2–3).
#[derive(Clone, Copy, Debug)]
pub struct DirectSampler {
    n: usize,
}

impl DirectSampler {
    /// Sampler over `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        DirectSampler { n }
    }
}

impl RandomNodeSampler for DirectSampler {
    fn sample_into(&self, from: NodeId, rng: &mut SmallRng, path: &mut Vec<NodeId>) -> NodeId {
        let target = NodeId::new(rng.gen_range(0..self.n));
        path.clear();
        if target != from {
            path.push(target);
        }
        target
    }

    fn rounds_per_sample(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "direct"
    }
}

/// Chord-lookup-based sampling: route to the owner of a uniformly random
/// ring position. `T = M = O(log n)`.
#[derive(Clone, Debug)]
pub struct ChordSampler<'a> {
    overlay: &'a ChordOverlay,
}

impl<'a> ChordSampler<'a> {
    /// Sampler over a Chord overlay.
    pub fn new(overlay: &'a ChordOverlay) -> Self {
        ChordSampler { overlay }
    }
}

impl RandomNodeSampler for ChordSampler<'_> {
    fn sample_into(&self, from: NodeId, rng: &mut SmallRng, path: &mut Vec<NodeId>) -> NodeId {
        self.overlay.sample_random_node_into(from, rng, path);
        path.last().copied().unwrap_or(from)
    }

    fn rounds_per_sample(&self) -> usize {
        self.overlay.max_lookup_hops()
    }

    fn name(&self) -> &'static str {
        "chord-lookup"
    }
}

/// Random-walk sampling on an arbitrary connected graph: take a fixed-length
/// lazy random walk and return the end point. On expander-like graphs a walk
/// of length `O(log n)` mixes to near-uniform; the walk length is a parameter
/// so experiments can trade accuracy against cost.
#[derive(Clone, Debug)]
pub struct RandomWalkSampler<'a> {
    graph: &'a Graph,
    walk_length: usize,
}

impl<'a> RandomWalkSampler<'a> {
    /// Sampler taking walks of `walk_length` steps on `graph`.
    pub fn new(graph: &'a Graph, walk_length: usize) -> Self {
        assert!(walk_length >= 1, "walk length must be positive");
        RandomWalkSampler { graph, walk_length }
    }
}

impl RandomNodeSampler for RandomWalkSampler<'_> {
    fn sample_into(&self, from: NodeId, rng: &mut SmallRng, path: &mut Vec<NodeId>) -> NodeId {
        let mut current = from;
        path.clear();
        for _ in 0..self.walk_length {
            let neighbors = self.graph.neighbor_slice(current);
            if neighbors.is_empty() {
                break;
            }
            // Lazy walk: stay put with probability 1/2 (standard fix for
            // periodicity); staying costs no message.
            if rng.gen_bool(0.5) {
                continue;
            }
            let next = NodeId(neighbors[rng.gen_range(0..neighbors.len())]);
            path.push(next);
            current = next;
        }
        current
    }

    fn rounds_per_sample(&self) -> usize {
        self.walk_length
    }

    fn name(&self) -> &'static str {
        "random-walk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{complete, d_regular};
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn direct_sampler_is_one_hop_and_uniform() {
        let sampler = DirectSampler::new(8);
        let mut rng = rng();
        let mut counts = [0u32; 8];
        for _ in 0..16_000 {
            let route = sampler.sample(NodeId::new(0), &mut rng);
            assert!(route.path.len() <= 1);
            counts[route.target.index()] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 2000.0).abs() < 300.0, "{counts:?}");
        }
    }

    #[test]
    fn chord_sampler_costs_at_most_log_n_messages() {
        let overlay = ChordOverlay::new(1 << 10);
        let sampler = ChordSampler::new(&overlay);
        let mut rng = rng();
        for _ in 0..200 {
            let route = sampler.sample(NodeId::new(77), &mut rng);
            assert!(route.path.len() <= sampler.rounds_per_sample());
            assert!(route.target.index() < 1 << 10);
        }
        assert_eq!(sampler.rounds_per_sample(), 10);
    }

    #[test]
    fn chord_sampler_reaches_many_distinct_targets() {
        let overlay = ChordOverlay::new(256);
        let sampler = ChordSampler::new(&overlay);
        let mut rng = rng();
        let targets: std::collections::HashSet<usize> = (0..2000)
            .map(|_| sampler.sample(NodeId::new(0), &mut rng).target.index())
            .collect();
        assert!(
            targets.len() > 200,
            "only {} distinct targets",
            targets.len()
        );
    }

    #[test]
    fn random_walk_sampler_stays_on_graph() {
        let graph = d_regular(200, 6, 4);
        let sampler = RandomWalkSampler::new(&graph, 20);
        let mut rng = rng();
        for _ in 0..100 {
            let route = sampler.sample(NodeId::new(3), &mut rng);
            assert!(route.path.len() <= 20);
            // Each consecutive pair in the path must be an edge.
            let mut prev = NodeId::new(3);
            for &hop in &route.path {
                assert!(graph.has_edge(prev, hop));
                prev = hop;
            }
            assert_eq!(prev, route.target);
        }
    }

    #[test]
    fn random_walk_spreads_over_complete_graph() {
        let graph = complete(50);
        let sampler = RandomWalkSampler::new(&graph, 10);
        let mut rng = rng();
        let targets: std::collections::HashSet<usize> = (0..2000)
            .map(|_| sampler.sample(NodeId::new(0), &mut rng).target.index())
            .collect();
        assert!(targets.len() >= 45);
    }

    #[test]
    fn sampler_names_are_distinct() {
        let overlay = ChordOverlay::new(16);
        let graph = complete(16);
        let names = [
            DirectSampler::new(16).name(),
            ChordSampler::new(&overlay).name(),
            RandomWalkSampler::new(&graph, 4).name(),
        ];
        assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }
}
