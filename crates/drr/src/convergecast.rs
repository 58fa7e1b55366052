//! Phase II (upward half): Convergecast (Algorithms 2 and 3).
//!
//! Each tree aggregates the values of its members bottom-up: leaves send
//! their values to their parents; an intermediate node combines everything
//! received from its children with its own value and forwards the combined
//! state to its parent; the root ends up holding the tree's local aggregate.
//!
//! Under the phone-call model of Sections 2–3 a node can communicate with at
//! most one node per round, so the running time of convergecast is bounded
//! by the **size** of the tree (not just its height), which is why the
//! largest tree's size matters here. The code has cited Theorem 3 for an
//! `O(log n)` bound on that size; measured over n = 2⁸…2²⁰ it fits
//! `log² n` (the height fits `log n`), so the citation is unresolved
//! without the paper's text (see `ForestStats::max_tree_size`). Under the
//! message-passing model of Section 4 a node may receive from all
//! neighbours simultaneously and the running time is bounded by the tree
//! **height** (Theorem 11).
//! [`ReceptionModel`] selects between the two.
//!
//! Both convergecast and [`crate::broadcast`] walk an active frontier in
//! node-id order, not all `n` nodes each round: here the nodes that have
//! yet to deliver, there the holders with a child yet to serve, each with
//! a cursor into its child list. A node leaves the walk once it has
//! nothing left to send, so the sends keep the all-nodes sweep's order and
//! no RNG draw moves; liveness is re-read every round, as churn needs.
//! `crates/runtime/tests/tree_phases.rs` keeps the sweeps as an oracle.

use crate::forest::{Forest, FrontierNode};
use gossip_aggregate::{Aggregate, Average, AverageState, Max};
use gossip_net::{NodeId, Phase, Transport};
use serde::{Deserialize, Serialize};

/// How many children a parent can hear from in a single round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReceptionModel {
    /// The phone-call model of Sections 2–3: one child per parent per round.
    OneCallPerRound,
    /// The message-passing model of Section 4: all children in one round.
    AllNeighborsPerRound,
}

/// Outcome of a convergecast.
#[derive(Clone, Debug)]
pub struct ConvergecastOutcome<S> {
    /// Aggregated state per node; meaningful at roots (the "local aggregate
    /// at the root" of the paper), `None` at crashed nodes.
    pub state: Vec<Option<S>>,
    /// Rounds consumed.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
}

impl<S: Clone> ConvergecastOutcome<S> {
    /// The local aggregate state held at `root`.
    pub fn at_root(&self, root: NodeId) -> Option<S> {
        self.state[root.index()].clone()
    }
}

/// Run a convergecast of the aggregate `agg` over `values` on `forest`.
///
/// Lost messages are retransmitted in later rounds until they get through,
/// matching the paper's "repeated calls" handling of lossy links. The
/// safeguard cap of `16·n + 64` rounds only exists to terminate adversarial
/// configurations (e.g. extreme loss rates) in tests.
///
/// A round costs time in proportion to the nodes that still have to
/// deliver, not to `n`: a node leaves the walk for good once its parent has
/// heard it. The walk is in node-id order, so the sends, and with them
/// every draw from the transport's RNG, happen in the order a sweep over
/// all nodes would make them.
pub fn convergecast<T: Transport, A: Aggregate>(
    net: &mut T,
    forest: &Forest,
    agg: &A,
    values: &[f64],
    reception: ReceptionModel,
) -> ConvergecastOutcome<A::State> {
    let n = net.n();
    assert_eq!(values.len(), n, "one value per node required");
    assert_eq!(forest.n(), n, "forest must cover the network");
    let rounds_before = net.round();
    let messages_before = net.metrics().total_messages();
    let payload_bits = net.config().value_bits() + net.config().id_bits();

    // Per-node aggregation state. Crashed nodes contribute nothing.
    let mut state: Vec<Option<A::State>> = (0..n)
        .map(|i| {
            let v = NodeId::new(i);
            if net.is_alive(v) {
                Some(agg.lift(values[i]))
            } else {
                None
            }
        })
        .collect();

    // has_sent[i]: node i delivered its state to its parent in an earlier
    // round. This round's deliveries wait in `delivered` until the walk is
    // over, so that readiness is judged on the state at the *start* of the
    // round: a node that only becomes ready because of a message it
    // receives this round waits until the next one (a node talks to at
    // most one partner per round).
    let mut has_sent = vec![false; n];
    let mut delivered: Vec<NodeId> = Vec::new();
    // Everyone who still has to deliver, in node-id order; crashed nodes
    // included, since on churny backends they may rejoin mid-phase.
    let mut senders: Vec<FrontierNode> = net
        .nodes()
        .filter(|&v| !forest.is_root(v))
        .map(FrontierNode::new)
        .collect();
    // The round (counted from 1) in which each parent last took a call:
    // under the phone-call model it takes one per round.
    let mut served_in = match reception {
        ReceptionModel::OneCallPerRound => vec![0u64; n],
        ReceptionModel::AllNeighborsPerRound => Vec::new(),
    };

    // Liveness is re-read every round (on churny backends nodes crash and
    // rejoin mid-phase): a parent waits only for children that are still
    // alive and undelivered, and the phase ends when no alive non-root is
    // left to deliver — or when it stops making progress altogether (every
    // remaining sender sits under a crashed ancestor).
    let round_cap = 16 * (n as u64) + 64;
    let stall_cap = 64u32;
    let mut stalled_rounds = 0u32;
    let mut rounds_used = 0u64;
    while rounds_used < round_cap && stalled_rounds < stall_cap {
        let mut remaining = false;
        let mut kept = 0;
        for at in 0..senders.len() {
            let mut sender = senders[at];
            let me = sender.node;
            let mut sent = false;
            if net.is_alive(me) {
                remaining = true;
                // Ready means: every child has either delivered or crashed.
                let ready = sender
                    .waiting(forest, &has_sent)
                    .iter()
                    .all(|&c| has_sent[c.index()] || !net.is_alive(c));
                let parent = forest.parent(me).expect("non-root has a parent");
                // Under the phone-call model the parent takes its one call
                // of the round from the first ready child, delivered or not.
                let parent_free = ready
                    && match reception {
                        ReceptionModel::OneCallPerRound => {
                            let served = &mut served_in[parent.index()];
                            let free = *served <= rounds_used;
                            *served = rounds_used + 1;
                            free
                        }
                        ReceptionModel::AllNeighborsPerRound => true,
                    };
                if parent_free && net.send(me, parent, Phase::Convergecast, payload_bits) {
                    // A node that rejoined mid-phase starts from its own value.
                    let i = me.index();
                    let child_state = state[i].clone().unwrap_or_else(|| agg.lift(values[i]));
                    let merged = match &state[parent.index()] {
                        Some(parent_state) => agg.combine(parent_state, &child_state),
                        None => child_state,
                    };
                    state[parent.index()] = Some(merged);
                    delivered.push(me);
                    sent = true;
                }
            }
            if !sent {
                senders[kept] = sender;
                kept += 1;
            }
        }
        senders.truncate(kept);
        if !remaining {
            break;
        }
        let progressed = !delivered.is_empty();
        for v in delivered.drain(..) {
            has_sent[v.index()] = true;
        }
        net.advance_round();
        rounds_used += 1;
        if progressed {
            stalled_rounds = 0;
        } else {
            stalled_rounds += 1;
        }
    }

    ConvergecastOutcome {
        state,
        rounds: net.round() - rounds_before,
        messages: net.metrics().total_messages() - messages_before,
    }
}

/// Algorithm 2: Convergecast-max. Returns the local maximum of each tree at
/// its root.
pub fn convergecast_max<T: Transport>(
    net: &mut T,
    forest: &Forest,
    values: &[f64],
    reception: ReceptionModel,
) -> ConvergecastOutcome<f64> {
    convergecast(net, forest, &Max, values, reception)
}

/// Algorithm 3: Convergecast-sum. Returns, at each root, the local sum of
/// the tree's values together with the tree size (the `(v_z, w_z)` row
/// vector of the paper).
pub fn convergecast_sum<T: Transport>(
    net: &mut T,
    forest: &Forest,
    values: &[f64],
    reception: ReceptionModel,
) -> ConvergecastOutcome<AverageState> {
    convergecast(net, forest, &Average, values, reception)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drr::{run_drr, DrrConfig};
    use gossip_net::{Network, SimConfig};

    fn forest_and_net(n: usize, seed: u64, loss: f64) -> (Forest, Network) {
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let outcome = run_drr(&mut net, &DrrConfig::paper());
        (outcome.forest, net)
    }

    #[test]
    fn max_convergecast_gives_exact_tree_maxima() {
        let (forest, mut net) = forest_and_net(1000, 3, 0.0);
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 7.3) % 911.0).collect();
        let out = convergecast_max(&mut net, &forest, &values, ReceptionModel::OneCallPerRound);
        for &root in forest.roots() {
            let members = forest.members_of(root);
            let expected = members
                .iter()
                .map(|v| values[v.index()])
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(out.at_root(root), Some(expected));
        }
    }

    #[test]
    fn sum_convergecast_gives_exact_tree_sums_and_sizes() {
        let (forest, mut net) = forest_and_net(800, 5, 0.0);
        let values: Vec<f64> = (0..800).map(|i| i as f64).collect();
        let out = convergecast_sum(&mut net, &forest, &values, ReceptionModel::OneCallPerRound);
        for &root in forest.roots() {
            let members = forest.members_of(root);
            let expected_sum: f64 = members.iter().map(|v| values[v.index()]).sum();
            let state = out.at_root(root).unwrap();
            assert!((state.sum - expected_sum).abs() < 1e-9);
            assert_eq!(state.count as usize, forest.tree_size(root));
        }
    }

    #[test]
    fn message_count_is_one_per_non_root_node_without_loss() {
        let (forest, mut net) = forest_and_net(600, 7, 0.0);
        let values = vec![1.0; 600];
        let out = convergecast_max(&mut net, &forest, &values, ReceptionModel::OneCallPerRound);
        let non_roots = 600 - forest.num_trees() as u64;
        assert_eq!(out.messages, non_roots);
    }

    #[test]
    fn one_call_model_rounds_bounded_by_max_tree_size() {
        let (forest, mut net) = forest_and_net(2000, 9, 0.0);
        let values = vec![1.0; 2000];
        let out = convergecast_max(&mut net, &forest, &values, ReceptionModel::OneCallPerRound);
        // Sequentialising at most one child per parent per round finishes
        // within ~max tree size rounds.
        assert!(out.rounds <= forest.max_tree_size() as u64 + 2);
    }

    #[test]
    fn all_neighbors_model_rounds_bounded_by_height() {
        let (forest, mut net) = forest_and_net(2000, 11, 0.0);
        let values = vec![1.0; 2000];
        let out = convergecast_max(
            &mut net,
            &forest,
            &values,
            ReceptionModel::AllNeighborsPerRound,
        );
        assert!(out.rounds <= forest.max_height() as u64 + 2);
    }

    #[test]
    fn lossy_links_still_converge_to_exact_values() {
        let (forest, mut net) = forest_and_net(500, 13, 0.15);
        let values: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let out = convergecast_sum(&mut net, &forest, &values, ReceptionModel::OneCallPerRound);
        for &root in forest.roots() {
            if !net.is_alive(root) {
                continue;
            }
            let members = forest.members_of(root);
            let expected_sum: f64 = members.iter().map(|v| values[v.index()]).sum();
            let state = out.at_root(root).unwrap();
            assert!((state.sum - expected_sum).abs() < 1e-9);
        }
        // Retransmissions mean more messages than nodes.
        assert!(out.messages >= 500 - forest.num_trees() as u64);
    }

    #[test]
    fn crashed_nodes_are_excluded() {
        let mut net = Network::new(
            SimConfig::new(400)
                .with_seed(21)
                .with_initial_crash_prob(0.25),
        );
        let drr = run_drr(&mut net, &DrrConfig::paper());
        let values = vec![5.0; 400];
        let out = convergecast_sum(
            &mut net,
            &drr.forest,
            &values,
            ReceptionModel::OneCallPerRound,
        );
        let mut counted = 0.0;
        for &root in drr.forest.roots() {
            if let Some(state) = out.at_root(root) {
                counted += state.count;
            }
        }
        assert_eq!(counted as usize, net.alive_count());
    }

    #[test]
    fn singleton_network() {
        let mut net = Network::new(SimConfig::new(1).with_seed(0));
        let forest = Forest::from_parents(vec![None]).unwrap();
        let out = convergecast_max(&mut net, &forest, &[3.5], ReceptionModel::OneCallPerRound);
        assert_eq!(out.at_root(NodeId::new(0)), Some(3.5));
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn message_sizes_within_budget() {
        let (forest, mut net) = forest_and_net(1024, 15, 0.0);
        let values = vec![1.0; 1024];
        let _ = convergecast_sum(&mut net, &forest, &values, ReceptionModel::OneCallPerRound);
        assert!(net.metrics().max_message_bits() <= net.config().message_bit_budget());
    }
}
