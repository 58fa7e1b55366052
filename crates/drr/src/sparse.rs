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

use crate::broadcast::broadcast_down;
use crate::convergecast::{convergecast_max, convergecast_sum, ReceptionModel};
use crate::forest::Forest;
use crate::gossip_ave::estimate;
use crate::gossip_max::absorb;
use crate::local_drr::run_local_drr;
use crate::protocol::{DrrGossipReport, PhaseCost};
use gossip_aggregate::AverageState;
use gossip_net::{Network, NodeId, Phase};
use gossip_topology::{Graph, RandomNodeSampler};
use serde::{Deserialize, Serialize};

/// Configuration of the sparse-network DRR-gossip protocols.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SparseGossipConfig {
    /// Root-gossip rounds = `⌈gossip_rounds_factor · log₂(#roots)⌉`.
    pub gossip_rounds_factor: f64,
    /// Sampling-procedure rounds = `⌈sampling_rounds_factor · log₂(#roots)⌉`.
    pub sampling_rounds_factor: f64,
}

impl Default for SparseGossipConfig {
    fn default() -> Self {
        SparseGossipConfig {
            gossip_rounds_factor: 2.0,
            sampling_rounds_factor: 1.5,
        }
    }
}

impl SparseGossipConfig {
    fn gossip_rounds(&self, roots: usize) -> u64 {
        ((f64::from(gossip_net::id_bits(roots.max(2))) * self.gossip_rounds_factor).ceil() as u64)
            .max(1)
    }

    fn sampling_rounds(&self, roots: usize) -> u64 {
        ((f64::from(gossip_net::id_bits(roots.max(2))) * self.sampling_rounds_factor).ceil() as u64)
            .max(1)
    }
}

/// Deliver a payload hop-by-hop along `path`, starting at `from`. Every hop
/// costs one message; the delivery fails if any hop is lost. Returns whether
/// the payload reached the end of the path.
fn route_along(net: &mut Network, from: NodeId, path: &[NodeId], phase: Phase, bits: u32) -> bool {
    let mut current = from;
    for &hop in path {
        if !net.send(current, hop, phase, bits) {
            return false;
        }
        current = hop;
    }
    true
}

/// Climb from `node` to its tree root along parent pointers, one message per
/// edge. Returns whether the payload reached the root.
fn climb_to_root(
    net: &mut Network,
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

/// Charge the time of one routed gossip super-round: `T` rounds for the
/// routed sample plus up to `max_height` rounds for the climb to the root.
fn charge_super_round(net: &mut Network, sampler_rounds: usize, max_height: usize) {
    for _ in 0..(sampler_rounds + max_height).max(1) {
        net.advance_round();
    }
}

/// Gossip-max among the roots of a Local-DRR forest, using `sampler` to
/// reach random nodes. Returns per-node values (at roots) and the fraction
/// of roots holding the true maximum at the end.
///
/// Working state is indexed by [`Forest::root_slot`], and it and the
/// routing path are reused from sample to sample.
pub fn sparse_gossip_max(
    net: &mut Network,
    forest: &Forest,
    sampler: &dyn RandomNodeSampler,
    initial: &[Option<f64>],
    config: &SparseGossipConfig,
) -> Vec<Option<f64>> {
    let value_bits = net.config().value_bits() + net.config().id_bits();
    // Values change only between rounds, so every exchange of a round reads
    // round-start state.
    let mut values: Vec<Option<f64>> = forest
        .roots()
        .iter()
        .map(|&root| {
            net.is_alive(root)
                .then(|| initial[root.index()].unwrap_or(f64::NEG_INFINITY))
        })
        .collect();
    let roots = forest.num_trees();
    let max_height = forest.max_height();
    let rounds = config.gossip_rounds(roots) + config.sampling_rounds(roots);

    let mut incoming: Vec<(usize, f64)> = Vec::new();
    let mut path = Vec::new();
    for _ in 0..rounds {
        for (slot, &root) in forest.roots().iter().enumerate() {
            if !net.is_alive(root) {
                continue;
            }
            let value = match values[slot] {
                Some(v) => v,
                None => continue,
            };
            let mut rng = net.derive_rng(root.index() as u64 ^ net.round() << 20);
            let landed = sampler.sample_into(root, &mut rng, &mut path);
            if !route_along(net, root, &path, Phase::Routing, value_bits) {
                continue;
            }
            let receiver_root = forest.root_of(landed);
            if landed != receiver_root
                && !climb_to_root(net, forest, landed, Phase::RootForward, value_bits)
            {
                continue;
            }
            let receiver = forest.root_slot(landed);
            if net.is_alive(receiver_root) {
                incoming.push((receiver, value));
            }
            // Pull half of the exchange: the receiver root's value travels
            // back along the same route (sampling-procedure style), so the
            // sender also learns the receiver's value.
            if let Some(back_value) = values[receiver] {
                let back_cost = (path.len() + forest.depth(landed)) as u32;
                if back_cost == 0 || net.send(receiver_root, root, Phase::RootSampling, value_bits)
                {
                    incoming.push((slot, back_value));
                }
            }
        }
        absorb(&mut values, &mut incoming);
        charge_super_round(net, sampler.rounds_per_sample(), max_height);
    }

    forest.by_node(values)
}

/// Push-sum among the roots of a Local-DRR forest using routed samples.
/// Indexed and buffered like [`sparse_gossip_max`].
pub fn sparse_gossip_ave(
    net: &mut Network,
    forest: &Forest,
    sampler: &dyn RandomNodeSampler,
    initial: &[Option<AverageState>],
    config: &SparseGossipConfig,
) -> Vec<Option<f64>> {
    let payload_bits = 2 * net.config().value_bits() + net.config().id_bits();
    let roots = forest.roots();
    let mut sum = vec![0.0; roots.len()];
    let mut weight = vec![0.0; roots.len()];
    let mut active = vec![false; roots.len()];
    for (slot, &root) in roots.iter().enumerate() {
        if !net.is_alive(root) {
            continue;
        }
        let st = initial[root.index()].unwrap_or(AverageState {
            sum: 0.0,
            count: 0.0,
        });
        sum[slot] = st.sum;
        weight[slot] = st.count;
        active[slot] = true;
    }
    let max_height = forest.max_height();
    let rounds = config.gossip_rounds(roots.len()) + config.sampling_rounds(roots.len());

    let mut incoming_sum = vec![0.0; roots.len()];
    let mut incoming_weight = vec![0.0; roots.len()];
    let mut path = Vec::new();
    for _ in 0..rounds {
        incoming_sum.fill(0.0);
        incoming_weight.fill(0.0);
        for (slot, &root) in roots.iter().enumerate() {
            if !active[slot] {
                continue;
            }
            let half_sum = sum[slot] / 2.0;
            let half_weight = weight[slot] / 2.0;
            sum[slot] = half_sum;
            weight[slot] = half_weight;
            let mut rng = net.derive_rng(root.index() as u64 ^ net.round() << 21);
            let landed = sampler.sample_into(root, &mut rng, &mut path);
            if !route_along(net, root, &path, Phase::Routing, payload_bits) {
                continue;
            }
            if landed != forest.root_of(landed)
                && !climb_to_root(net, forest, landed, Phase::RootForward, payload_bits)
            {
                continue;
            }
            let receiver = forest.root_slot(landed);
            if active[receiver] {
                incoming_sum[receiver] += half_sum;
                incoming_weight[receiver] += half_weight;
            }
        }
        for slot in 0..roots.len() {
            sum[slot] += incoming_sum[slot];
            weight[slot] += incoming_weight[slot];
        }
        charge_super_round(net, sampler.rounds_per_sample(), max_height);
    }

    forest.by_node(
        (0..roots.len()).map(|slot| active[slot].then(|| estimate(sum[slot], weight[slot]))),
    )
}

#[allow(clippy::too_many_arguments)] // internal plumbing shared by the two sparse composites
fn finish_report(
    net: &Network,
    forest: &Forest,
    values: &[f64],
    estimates: Vec<f64>,
    exact: f64,
    phases: Vec<PhaseCost>,
    start_rounds: u64,
    start_messages: u64,
) -> DrrGossipReport {
    let _ = values;
    let alive: Vec<bool> = net.nodes().map(|v| net.is_alive(v)).collect();
    DrrGossipReport {
        statuses: crate::protocol::statuses_of(&estimates, &alive),
        estimates,
        exact,
        alive,
        forest_stats: forest.stats(),
        phases,
        total_rounds: net.round() - start_rounds,
        total_messages: net.metrics().total_messages() - start_messages,
        metrics: net.metrics().clone(),
    }
}

/// Sparse-network DRR-gossip-max (Theorem 14 instantiated for Max).
pub fn sparse_drr_gossip_max(
    net: &mut Network,
    graph: &Graph,
    sampler: &dyn RandomNodeSampler,
    values: &[f64],
    config: &SparseGossipConfig,
) -> DrrGossipReport {
    assert_eq!(values.len(), net.n());
    let start_rounds = net.round();
    let start_messages = net.metrics().total_messages();
    let mut phases = Vec::new();
    let mut mark = (net.round(), net.metrics().total_messages());
    let record =
        |net: &Network, name: &'static str, mark: &mut (u64, u64), phases: &mut Vec<PhaseCost>| {
            phases.push(PhaseCost {
                name,
                rounds: net.round() - mark.0,
                messages: net.metrics().total_messages() - mark.1,
            });
            *mark = (net.round(), net.metrics().total_messages());
        };

    let local = run_local_drr(net, graph);
    record(net, "local-drr", &mut mark, &mut phases);

    let cc = convergecast_max(
        net,
        &local.forest,
        values,
        ReceptionModel::AllNeighborsPerRound,
    );
    record(net, "convergecast", &mut mark, &mut phases);
    let _ = broadcast_down(
        net,
        &local.forest,
        ReceptionModel::AllNeighborsPerRound,
        Phase::Broadcast,
        net.config().id_bits(),
    );
    record(net, "broadcast-root", &mut mark, &mut phases);

    let gossip_values = sparse_gossip_max(net, &local.forest, sampler, &cc.state, config);
    record(net, "root-gossip", &mut mark, &mut phases);

    let _ = broadcast_down(
        net,
        &local.forest,
        ReceptionModel::AllNeighborsPerRound,
        Phase::Dissemination,
        net.config().id_bits() + net.config().value_bits(),
    );
    record(net, "disseminate", &mut mark, &mut phases);

    let exact = net
        .alive_nodes()
        .map(|v| values[v.index()])
        .fold(f64::NEG_INFINITY, f64::max);
    let estimates: Vec<f64> = net
        .nodes()
        .map(|v| {
            if net.is_alive(v) {
                gossip_values[local.forest.root_of(v).index()].unwrap_or(f64::NAN)
            } else {
                f64::NAN
            }
        })
        .collect();
    finish_report(
        net,
        &local.forest,
        values,
        estimates,
        exact,
        phases,
        start_rounds,
        start_messages,
    )
}

/// Sparse-network DRR-gossip-ave (Theorem 14 instantiated for Average).
pub fn sparse_drr_gossip_ave(
    net: &mut Network,
    graph: &Graph,
    sampler: &dyn RandomNodeSampler,
    values: &[f64],
    config: &SparseGossipConfig,
) -> DrrGossipReport {
    assert_eq!(values.len(), net.n());
    let start_rounds = net.round();
    let start_messages = net.metrics().total_messages();
    let mut phases = Vec::new();
    let mut mark = (net.round(), net.metrics().total_messages());
    let record =
        |net: &Network, name: &'static str, mark: &mut (u64, u64), phases: &mut Vec<PhaseCost>| {
            phases.push(PhaseCost {
                name,
                rounds: net.round() - mark.0,
                messages: net.metrics().total_messages() - mark.1,
            });
            *mark = (net.round(), net.metrics().total_messages());
        };

    let local = run_local_drr(net, graph);
    record(net, "local-drr", &mut mark, &mut phases);

    let cc = convergecast_sum(
        net,
        &local.forest,
        values,
        ReceptionModel::AllNeighborsPerRound,
    );
    record(net, "convergecast", &mut mark, &mut phases);
    let _ = broadcast_down(
        net,
        &local.forest,
        ReceptionModel::AllNeighborsPerRound,
        Phase::Broadcast,
        net.config().id_bits(),
    );
    record(net, "broadcast-root", &mut mark, &mut phases);

    let ave_estimates = sparse_gossip_ave(net, &local.forest, sampler, &cc.state, config);
    record(net, "root-gossip-ave", &mut mark, &mut phases);

    // The largest-tree root spreads its estimate to all roots (Data-spread),
    // again over routed samples.
    let largest = local.forest.largest_tree_root();
    let spread_value = ave_estimates[largest.index()].unwrap_or(0.0);
    let spread_initial: Vec<Option<f64>> = net
        .nodes()
        .map(|v| {
            if v == largest {
                Some(spread_value)
            } else if local.forest.is_root(v) {
                Some(f64::NEG_INFINITY)
            } else {
                None
            }
        })
        .collect();
    let spread = sparse_gossip_max(net, &local.forest, sampler, &spread_initial, config);
    record(net, "data-spread", &mut mark, &mut phases);

    let _ = broadcast_down(
        net,
        &local.forest,
        ReceptionModel::AllNeighborsPerRound,
        Phase::Dissemination,
        net.config().id_bits() + net.config().value_bits(),
    );
    record(net, "disseminate", &mut mark, &mut phases);

    let alive_values: Vec<f64> = net.alive_nodes().map(|v| values[v.index()]).collect();
    let exact = if alive_values.is_empty() {
        0.0
    } else {
        alive_values.iter().sum::<f64>() / alive_values.len() as f64
    };
    let estimates: Vec<f64> = net
        .nodes()
        .map(|v| {
            if net.is_alive(v) {
                let root = local.forest.root_of(v).index();
                match spread[root] {
                    Some(x) if x.is_finite() => x,
                    _ => ave_estimates[root].unwrap_or(f64::NAN),
                }
            } else {
                f64::NAN
            }
        })
        .collect();
    finish_report(
        net,
        &local.forest,
        values,
        estimates,
        exact,
        phases,
        start_rounds,
        start_messages,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::SimConfig;
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
        let report = sparse_drr_gossip_max(
            &mut net,
            &graph,
            &sampler,
            &vals,
            &SparseGossipConfig::default(),
        );
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
        let report = sparse_drr_gossip_ave(
            &mut net,
            &graph,
            &sampler,
            &vals,
            &SparseGossipConfig::default(),
        );
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
        let report = sparse_drr_gossip_max(
            &mut net,
            &graph,
            &sampler,
            &vals,
            &SparseGossipConfig::default(),
        );
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
        let report = sparse_drr_gossip_max(
            &mut net,
            &graph,
            &sampler,
            &vals,
            &SparseGossipConfig::default(),
        );
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
        let report = sparse_drr_gossip_ave(
            &mut net,
            &graph,
            &sampler,
            &vals,
            &SparseGossipConfig::default(),
        );
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
        let report = sparse_drr_gossip_max(
            &mut net,
            &graph,
            &sampler,
            &vals,
            &SparseGossipConfig::default(),
        );
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
        let report = sparse_drr_gossip_ave(
            &mut net,
            &graph,
            &sampler,
            &vals,
            &SparseGossipConfig::default(),
        );
        let phase_msgs: u64 = report.phases.iter().map(|p| p.messages).sum();
        assert_eq!(phase_msgs, report.total_messages);
        assert!(report.phases.iter().any(|p| p.name == "local-drr"));
        assert!(report.phases.iter().any(|p| p.name == "root-gossip-ave"));
    }
}
