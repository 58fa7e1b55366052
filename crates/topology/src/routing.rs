//! Random-node sampling / routing protocols for sparse networks.
//!
//! Theorem 14 of the paper assumes "a routing protocol which allows any node
//! to communicate with a random node in the network in `O(T)` rounds and
//! using `O(M)` messages whp" (Assumption 2), citing random walks and Chord's
//! lookup machinery as instantiations. The [`RandomNodeSampler`] trait
//! captures exactly that interface; the gossip phase of the sparse-network
//! DRR-gossip and the routed uniform-gossip baseline are generic over it,
//! and both send along a sample with [`route_sample`].

use crate::chord::ChordOverlay;
use crate::graph::Graph;
use gossip_net::{NodeId, Phase, Transport};
use rand::rngs::SmallRng;
use rand::Rng;

/// A protocol for reaching a (roughly) uniformly random node of the network.
pub trait RandomNodeSampler {
    /// Sample a random node reachable from `from`: return it, and leave the
    /// path to it in `path` (cleared first): the hops from the source to the
    /// sampled node, the node included and the source not, each costing one
    /// message, the whole path `T` rounds. The path is empty when the source
    /// sampled itself. A caller that routes many samples reuses one buffer
    /// and pays for no allocation per sample.
    fn sample_into(&self, from: NodeId, rng: &mut SmallRng, path: &mut Vec<NodeId>) -> NodeId;

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
            let degree = self.graph.degree(current);
            if degree == 0 {
                break;
            }
            // Lazy walk: stay put with probability 1/2 (standard fix for
            // periodicity); staying costs no message.
            if rng.gen_bool(0.5) {
                continue;
            }
            let next = self.graph.neighbor(current, rng.gen_range(0..degree));
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

/// Route a `bits`-bit payload from `from` to a random node that `sampler`
/// draws from the stream `salt`, hop by hop, one [`Phase::Routing`] message
/// per hop: the node reached, or `None` if a hop lost the payload. The
/// route is left in `path`.
pub fn route_sample<T: Transport>(
    net: &mut T,
    sampler: &dyn RandomNodeSampler,
    from: NodeId,
    salt: u64,
    path: &mut Vec<NodeId>,
    bits: u32,
) -> Option<NodeId> {
    let mut rng = net.derive_rng(salt);
    let target = sampler.sample_into(from, &mut rng, path);
    let mut current = from;
    for &hop in path.iter() {
        if !net.send(current, hop, Phase::Routing, bits) {
            return None;
        }
        current = hop;
    }
    Some(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{complete, d_regular};
    use gossip_net::{Network, SimConfig};
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn direct_sampler_is_one_hop_and_uniform() {
        let sampler = DirectSampler::new(8);
        let mut rng = rng();
        let mut counts = [0u32; 8];
        let mut path = Vec::new();
        for _ in 0..16_000 {
            let target = sampler.sample_into(NodeId::new(0), &mut rng, &mut path);
            assert!(path.len() <= 1);
            counts[target.index()] += 1;
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
        let mut path = Vec::new();
        for _ in 0..200 {
            let target = sampler.sample_into(NodeId::new(77), &mut rng, &mut path);
            assert!(path.len() <= sampler.rounds_per_sample());
            assert!(target.index() < 1 << 10);
        }
        assert_eq!(sampler.rounds_per_sample(), 10);
    }

    #[test]
    fn chord_sampler_reaches_many_distinct_targets() {
        let overlay = ChordOverlay::new(256);
        let sampler = ChordSampler::new(&overlay);
        let mut rng = rng();
        let mut path = Vec::new();
        let targets: std::collections::HashSet<usize> = (0..2000)
            .map(|_| {
                sampler
                    .sample_into(NodeId::new(0), &mut rng, &mut path)
                    .index()
            })
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
        let mut path = Vec::new();
        for _ in 0..100 {
            let target = sampler.sample_into(NodeId::new(3), &mut rng, &mut path);
            assert!(path.len() <= 20);
            // Each consecutive pair in the path must be an edge.
            let mut prev = NodeId::new(3);
            for &hop in &path {
                assert!(graph.has_edge(prev, hop));
                prev = hop;
            }
            assert_eq!(prev, target);
        }
    }

    #[test]
    fn random_walk_spreads_over_complete_graph() {
        let graph = complete(50);
        let sampler = RandomWalkSampler::new(&graph, 10);
        let mut rng = rng();
        let mut path = Vec::new();
        let targets: std::collections::HashSet<usize> = (0..2000)
            .map(|_| {
                sampler
                    .sample_into(NodeId::new(0), &mut rng, &mut path)
                    .index()
            })
            .collect();
        assert!(targets.len() >= 45);
    }

    #[test]
    fn a_routed_sample_costs_one_message_per_hop() {
        let overlay = ChordOverlay::new(256);
        let sampler = ChordSampler::new(&overlay);
        let mut net = Network::new(SimConfig::new(256).with_seed(5));
        let mut path = Vec::new();
        for salt in 0..50 {
            let before = net.metrics().total_messages();
            let target = route_sample(&mut net, &sampler, NodeId::new(9), salt, &mut path, 16);
            assert_eq!(target, Some(path.last().copied().unwrap_or(NodeId::new(9))));
            assert_eq!(net.metrics().total_messages() - before, path.len() as u64);
        }
        // A lossy hop loses the payload.
        let mut lossy = Network::new(SimConfig::new(256).with_seed(5).with_loss_prob(0.9));
        let lost = (0..50)
            .filter(|&salt| {
                route_sample(&mut lossy, &sampler, NodeId::new(9), salt, &mut path, 16).is_none()
            })
            .count();
        assert!(lost > 25, "lost {lost} of 50");
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

    /// Eight lazy walks of six steps from node 5 at seed 1234, as
    /// `(endpoint, path)`, on a circulant ring, a circulant Chord graph and a
    /// `from_edges` 6-regular graph. The lists were recorded from the walk
    /// that indexed stored CSR rows, so they hold the indexed-neighbour walk
    /// to the same draws on both representations.
    #[test]
    fn random_walks_are_pinned_on_both_representations() {
        type Walks = [(u32, &'static [u32]); 8];
        let pinned: [(&str, Graph, Walks); 3] = [
            (
                "ring(64)",
                crate::builders::ring(64),
                [
                    (7, &[6, 5, 6, 7]),
                    (6, &[6, 5, 6]),
                    (5, &[6, 5, 4, 5]),
                    (8, &[6, 7, 8, 9, 8]),
                    (4, &[6, 5, 4, 5, 4]),
                    (6, &[4, 5, 6, 5, 6]),
                    (4, &[6, 5, 6, 5, 4]),
                    (7, &[6, 7]),
                ],
            ),
            (
                "chord(1024)",
                ChordOverlay::new(1024).graph(),
                [
                    (962, &[3, 995, 963, 962]),
                    (245, &[1021, 253, 245]),
                    (333, &[21, 85, 341, 333]),
                    (361, &[997, 1005, 109, 105, 361]),
                    (326, &[6, 70, 326, 70, 326]),
                    (960, &[965, 967, 975, 976, 960]),
                    (803, &[901, 885, 821, 805, 803]),
                    (33, &[37, 33]),
                ],
            ),
            (
                "d_regular(200, 6, 4)",
                d_regular(200, 6, 4),
                [
                    (37, &[142, 5, 142, 37]),
                    (29, &[142, 5, 29]),
                    (114, &[125, 166, 19, 114]),
                    (44, &[142, 74, 71, 156, 44]),
                    (150, &[29, 116, 102, 69, 150]),
                    (156, &[41, 161, 6, 113, 156]),
                    (43, &[142, 93, 198, 93, 43]),
                    (136, &[125, 136]),
                ],
            ),
        ];
        for (name, graph, walks) in pinned {
            let sampler = RandomWalkSampler::new(&graph, 6);
            let mut rng = SmallRng::seed_from_u64(1234);
            let mut path = Vec::new();
            for (end, hops) in walks {
                let target = sampler.sample_into(NodeId::new(5), &mut rng, &mut path);
                let got: Vec<u32> = path.iter().map(|v| v.0).collect();
                assert_eq!((target.0, &got[..]), (end, hops), "{name}");
            }
        }
    }
}
