//! DRR-gossip on sparse networks (Section 4, Theorem 14).
//!
//! On an arbitrary connected graph the complete-graph phone-call model does
//! not apply; instead (Assumption 1) a node may talk to all of its immediate
//! neighbours in one round, and (Assumption 2) a routing protocol lets any
//! node reach a uniformly random node in `T` rounds and `M` messages — the
//! [`RandomNodeSampler`] abstraction of `gossip-topology`.
//!
//! The sparse DRR-gossip protocol is then:
//!
//! 1. **Local-DRR** — `O(1)` rounds, `O(|E|)` messages;
//! 2. **Convergecast & broadcast** along tree edges — `O(log n)` rounds whp
//!    (tree heights are `O(log n)` by Theorem 11), `O(n)` messages;
//! 3. **Root gossip** — every gossip exchange between roots costs one routed
//!    sample (`T` rounds, `≤ M` messages) plus a climb up the receiver's
//!    tree, giving `O(log n + T·log(n/d))` rounds and
//!    `O(|E| + (n/d)·M·log(n/d))` messages on a `d`-regular graph.
//!
//! On Chord (`d = Θ(log n)`, `T = M = Θ(log n)`) this is `O(log² n)` time and
//! `O(n log n)` messages, versus `O(log² n)` time and `O(n log² n)` messages
//! for routed uniform gossip.
//!
//! The chain is the one [`crate::protocol`] runs on the complete graph;
//! this module supplies its routed root overlay: [`gossip_net::PushMax`]
//! and [`gossip_net::PushSum`] rounds whose pushes travel routed samples.

use crate::convergecast::ReceptionModel;
use crate::forest::Forest;
use crate::gossip_ave::RootPairs;
use crate::gossip_max::{GossipMaxOutcome, GOSSIP_ROUNDS_FACTOR, SAMPLING_ROUNDS_FACTOR};
use crate::local_drr::run_local_drr;
use crate::protocol::{averaging_chain, max_chain, DrrGossipReport, Mass, RootOverlay};
use gossip_aggregate::AverageState;
use gossip_net::{log_rounds, NodeId, Phase, PhaseLedger, PushMax, Transport};
use gossip_topology::{route_sample, Graph, RandomNodeSampler};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// Configuration of the sparse-network DRR-gossip protocols. It carries no
/// setting: the root gossip runs Gossip-max's gossip and sampling round
/// counts over the roots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseGossipConfig;

/// Super-rounds of one root gossip over `roots` roots: the gossip rounds,
/// `⌈GOSSIP_ROUNDS_FACTOR · log₂(#roots)⌉`, and the sampling rounds,
/// `⌈SAMPLING_ROUNDS_FACTOR · log₂(#roots)⌉`.
fn root_gossip_rounds(roots: usize) -> u64 {
    log_rounds(GOSSIP_ROUNDS_FACTOR, roots) + log_rounds(SAMPLING_ROUNDS_FACTOR, roots)
}

/// Climb from `node` to its tree root along parent pointers, one message per
/// edge. Returns whether the payload reached the root.
fn climb_to_root<T: Transport>(
    net: &mut T,
    forest: &Forest,
    node: NodeId,
    phase: Phase,
    bits: u32,
) -> bool {
    let mut current = node;
    while let Some(parent) = forest.parent(current) {
        if !net.send(current, parent, phase, bits) {
            return false;
        }
        current = parent;
    }
    true
}

/// Route a `bits`-bit payload from `root` to a random node drawn from the
/// stream `salt`, then up to that node's root: the node it landed on, or
/// `None` if a hop lost it. The route is left in `path`.
fn reach_routed<T: Transport>(
    net: &mut T,
    forest: &Forest,
    sampler: &dyn RandomNodeSampler,
    root: NodeId,
    salt: u64,
    path: &mut Vec<NodeId>,
    bits: u32,
) -> Option<NodeId> {
    let landed = route_sample(net, sampler, root, salt, path, bits)?;
    (landed == forest.root_of(landed)
        || climb_to_root(net, forest, landed, Phase::RootForward, bits))
    .then_some(landed)
}

/// Charge the time of one routed gossip super-round: `T` rounds for the
/// routed sample plus up to `max_height` rounds for the climb to the root.
fn charge_super_round<T: Transport>(net: &mut T, sampler_rounds: usize, max_height: usize) {
    for _ in 0..(sampler_rounds + max_height).max(1) {
        net.advance_round();
    }
}

/// The sparse-graph overlay of Section 4: Local-DRR over `graph`, root
/// gossip over routed samples charged a super-round each, and no size
/// election: the canonical largest-tree root spreads the estimate.
struct Routed<'a> {
    graph: &'a Graph,
    sampler: &'a dyn RandomNodeSampler,
}

impl RootOverlay for Routed<'_> {
    const GOSSIP_MAX: &'static str = "root-gossip";

    fn reception(&self) -> ReceptionModel {
        ReceptionModel::AllNeighborsPerRound
    }

    fn forest<T: Transport>(&self, net: &mut T, ledger: &mut PhaseLedger) -> Forest {
        let forest = run_local_drr(net, self.graph).forest;
        ledger.record(net, "local-drr");
        forest
    }

    /// Gossip-max whose pushes travel by [`reach_routed`] and pull the
    /// receiver's value back along the same route, a super-round each.
    fn gossip_max<T: Transport>(
        &self,
        net: &mut T,
        forest: &Forest,
        initial: impl Fn(NodeId) -> f64,
    ) -> Vec<Option<f64>> {
        let value_bits = net.config().value_bits() + net.config().id_bits();
        let roots = forest.roots();
        let mut values = PushMax::new(
            roots
                .iter()
                .map(|&root| net.is_alive(root).then(|| initial(root))),
        );
        let max_height = forest.max_height();
        let mut path = Vec::new();
        values.run(
            net,
            root_gossip_rounds(forest.num_trees()),
            |net, slot, values| {
                let root = roots[slot];
                if !net.is_alive(root) || values[slot].is_none() {
                    return (None, None);
                }
                let salt = root.index() as u64 ^ net.round() << 20;
                let Some(landed) =
                    reach_routed(net, forest, self.sampler, root, salt, &mut path, value_bits)
                else {
                    return (None, None);
                };
                let receiver_root = forest.root_of(landed);
                let receiver = forest.root_slot(landed);
                let pushed = net.is_alive(receiver_root).then_some(receiver);
                // The pull: the receiver root's value comes back the same way.
                let back_cost = (path.len() + forest.depth(landed)) as u32;
                let pulled = (values[receiver].is_some()
                    && (back_cost == 0
                        || net.send(receiver_root, root, Phase::RootSampling, value_bits)))
                .then_some(receiver);
                (pushed, pulled)
            },
            |net, _| {
                charge_super_round(net, self.sampler.rounds_per_sample(), max_height);
                ControlFlow::Continue(())
            },
        );
        forest.by_node(values.values().iter().copied())
    }

    /// Push-sum whose pushes travel by [`reach_routed`], a super-round each.
    fn push_sum<T: Transport>(
        &self,
        net: &mut T,
        forest: &Forest,
        initial: impl Fn(NodeId) -> AverageState,
        mass: Mass,
        ledger: &mut PhaseLedger,
    ) -> Vec<Option<f64>> {
        let payload_bits = 2 * net.config().value_bits() + net.config().id_bits();
        let rounds = root_gossip_rounds(forest.num_trees());
        let (rounds, name) = match mass {
            Mass::Average => (rounds, "root-gossip-ave"),
            Mass::Sum => (2 * rounds, "root-gossip-sum"),
        };
        let max_height = forest.max_height();
        let mut pairs = RootPairs::new(net, forest, initial);
        let mut path = Vec::new();
        pairs.run(
            net,
            forest,
            rounds,
            |net, root| {
                let salt = root.index() as u64 ^ net.round() << 21;
                reach_routed(
                    net,
                    forest,
                    self.sampler,
                    root,
                    salt,
                    &mut path,
                    payload_bits,
                )
            },
            |net, _| charge_super_round(net, self.sampler.rounds_per_sample(), max_height),
        );
        let estimates = pairs.by_node(forest);
        ledger.record(net, name);
        estimates
    }

    fn elect<T: Transport>(
        &self,
        _: &mut T,
        _: &Forest,
        _: &[Option<AverageState>],
        _: &mut PhaseLedger,
    ) -> Option<GossipMaxOutcome> {
        None
    }
}

/// Sparse-network DRR-gossip-max (Theorem 14 instantiated for Max).
pub fn sparse_drr_gossip_max<T: Transport>(
    net: &mut T,
    graph: &Graph,
    sampler: &dyn RandomNodeSampler,
    values: &[f64],
    _config: &SparseGossipConfig,
) -> DrrGossipReport {
    let overlay = Routed { graph, sampler };
    max_chain(net, &overlay, values)
}

/// Sparse-network DRR-gossip-ave (Theorem 14 instantiated for Average).
pub fn sparse_drr_gossip_ave<T: Transport>(
    net: &mut T,
    graph: &Graph,
    sampler: &dyn RandomNodeSampler,
    values: &[f64],
    _config: &SparseGossipConfig,
) -> DrrGossipReport {
    let overlay = Routed { graph, sampler };
    averaging_chain(net, &overlay, values, Mass::Average)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{Network, SimConfig};
    use gossip_topology::{ChordOverlay, ChordSampler, DirectSampler, RandomWalkSampler};

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 53) % 601) as f64).collect()
    }

    #[test]
    fn chord_max_is_correct_everywhere() {
        let n = 2048;
        let overlay = ChordOverlay::new(n);
        let graph = overlay.graph();
        let sampler = ChordSampler::new(&overlay);
        let mut net = Network::new(SimConfig::new(n).with_seed(3));
        let vals = values(n);
        let report = sparse_drr_gossip_max(&mut net, &graph, &sampler, &vals, &SparseGossipConfig);
        assert!(
            report.fraction_exact() > 0.999,
            "fraction exact = {}",
            report.fraction_exact()
        );
    }

    #[test]
    fn chord_ave_is_accurate() {
        let n = 2048;
        let overlay = ChordOverlay::new(n);
        let graph = overlay.graph();
        let sampler = ChordSampler::new(&overlay);
        let mut net = Network::new(SimConfig::new(n).with_seed(5));
        let vals = values(n);
        let report = sparse_drr_gossip_ave(&mut net, &graph, &sampler, &vals, &SparseGossipConfig);
        assert!(
            report.max_relative_error() < 0.05,
            "max relative error = {}",
            report.max_relative_error()
        );
    }

    #[test]
    fn chord_cost_matches_theorem_14_scale() {
        // O(n log n) messages and O(log^2 n) rounds on Chord.
        let n = 1 << 12;
        let overlay = ChordOverlay::new(n);
        let graph = overlay.graph();
        let sampler = ChordSampler::new(&overlay);
        let mut net = Network::new(SimConfig::new(n).with_seed(7));
        let vals = values(n);
        let report = sparse_drr_gossip_max(&mut net, &graph, &sampler, &vals, &SparseGossipConfig);
        let n_f = n as f64;
        let log_n = n_f.log2();
        assert!(
            (report.total_messages as f64) < 30.0 * n_f * log_n,
            "messages = {}",
            report.total_messages
        );
        assert!(
            (report.total_rounds as f64) < 60.0 * log_n * log_n,
            "rounds = {}",
            report.total_rounds
        );
    }

    #[test]
    fn works_on_d_regular_graph_with_random_walk_sampler() {
        let n = 1024;
        let graph = gossip_topology::d_regular(n, 8, 9);
        let walk = 2 * gossip_net::id_bits(n) as usize;
        let sampler = RandomWalkSampler::new(&graph, walk);
        let mut net = Network::new(SimConfig::new(n).with_seed(9));
        let vals = values(n);
        let report = sparse_drr_gossip_max(&mut net, &graph, &sampler, &vals, &SparseGossipConfig);
        assert!(
            report.fraction_exact() > 0.95,
            "fraction exact = {}",
            report.fraction_exact()
        );
    }

    #[test]
    fn complete_graph_with_direct_sampler_degenerates_to_dense_case() {
        let n = 256;
        let graph = gossip_topology::complete(n);
        let sampler = DirectSampler::new(n);
        let mut net = Network::new(SimConfig::new(n).with_seed(11));
        let vals = values(n);
        let report = sparse_drr_gossip_ave(&mut net, &graph, &sampler, &vals, &SparseGossipConfig);
        assert!(report.max_relative_error() < 0.05);
        // Local-DRR on a complete graph yields a single tree.
        assert_eq!(report.forest_stats.num_trees, 1);
    }

    #[test]
    fn survives_message_loss_on_chord() {
        let n = 1024;
        let overlay = ChordOverlay::new(n);
        let graph = overlay.graph();
        let sampler = ChordSampler::new(&overlay);
        let mut net = Network::new(SimConfig::new(n).with_seed(13).with_loss_prob(0.05));
        let vals = values(n);
        let report = sparse_drr_gossip_max(&mut net, &graph, &sampler, &vals, &SparseGossipConfig);
        assert!(
            report.fraction_exact() > 0.9,
            "fraction exact = {}",
            report.fraction_exact()
        );
    }

    #[test]
    fn phase_breakdown_adds_up() {
        let n = 512;
        let overlay = ChordOverlay::new(n);
        let graph = overlay.graph();
        let sampler = ChordSampler::new(&overlay);
        let mut net = Network::new(SimConfig::new(n).with_seed(15));
        let vals = values(n);
        let report = sparse_drr_gossip_ave(&mut net, &graph, &sampler, &vals, &SparseGossipConfig);
        let phase_msgs: u64 = report.phases.iter().map(|p| p.messages).sum();
        assert_eq!(phase_msgs, report.total_messages);
        assert!(report.phases.iter().any(|p| p.name == "local-drr"));
        assert!(report.phases.iter().any(|p| p.name == "root-gossip-ave"));
    }
}
