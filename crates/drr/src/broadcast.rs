//! Phase II (downward half): broadcast along tree links.
//!
//! After convergecast, each root broadcasts its address down its tree so
//! that every member knows its root (the non-address-oblivious ingredient of
//! Phase III: a non-root that receives a gossip message forwards it to its
//! root by address). The very same mechanism is reused at the end of the
//! protocol to disseminate the final global aggregate to all tree members.
//!
//! Cost: `O(n)` messages overall and `O(log n)` rounds, because tree sizes
//! (phone-call model) and heights (message-passing model) are `O(log n)`.

use crate::convergecast::ReceptionModel;
use crate::forest::{Forest, FrontierNode};
use gossip_net::{NodeId, Phase, Transport};

/// Outcome of a tree broadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastOutcome {
    /// Which nodes ended up holding the broadcast payload.
    pub reached: Vec<bool>,
    /// Rounds consumed.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
}

impl BroadcastOutcome {
    /// Number of nodes that received the payload (roots count themselves).
    pub fn coverage(&self) -> usize {
        self.reached.iter().filter(|&&r| r).count()
    }
}

/// Broadcast a payload from every root down its tree.
///
/// `payload_bits` is the logical size of the payload (a root address for the
/// Phase-II broadcast; an address plus an aggregate value for the final
/// dissemination). Lost messages are retransmitted in subsequent rounds.
///
/// A round costs time in proportion to the *frontier* — the holders with a
/// child still to serve — not to `n`: a holder joins it the round after the
/// payload reaches it and leaves it once its last child is served. The
/// frontier is walked in node-id order, so the sends, and with them every
/// draw from the transport's RNG, happen in the order a sweep over all
/// nodes would make them.
pub fn broadcast_down<T: Transport>(
    net: &mut T,
    forest: &Forest,
    reception: ReceptionModel,
    phase: Phase,
    payload_bits: u32,
) -> BroadcastOutcome {
    let n = net.n();
    assert_eq!(forest.n(), n, "forest must cover the network");
    let rounds_before = net.round();
    let messages_before = net.metrics().total_messages();

    // A node "has" the payload once its root's broadcast reaches it.
    let mut has = vec![false; n];
    // The holders that may still have a child to serve, in node-id order.
    let mut frontier: Vec<FrontierNode> = Vec::new();
    for &root in forest.roots() {
        if net.is_alive(root) {
            has[root.index()] = true;
            if !forest.is_leaf(root) {
                frontier.push(FrontierNode::new(root));
            }
        }
    }
    // The nodes still without the payload, pruned only when a round sends
    // nothing and the phase has to decide whether it is done.
    let mut missing: Vec<NodeId> = net.nodes().filter(|v| !has[v.index()]).collect();
    // Nodes reached this round: they forward from the next round on.
    let mut reached: Vec<FrontierNode> = Vec::new();

    // Liveness is re-read every round (on churny backends nodes crash and
    // rejoin mid-phase); the phase ends when every alive node holds the
    // payload, or when it stops progressing (a crashed inner node cuts its
    // whole subtree off).
    let round_cap = 16 * (n as u64) + 64;
    let stall_cap = 64u32;
    let mut stalled_rounds = 0u32;
    let mut rounds_used = 0u64;
    while rounds_used < round_cap && stalled_rounds < stall_cap {
        let mut attempted = false;
        let mut progressed = false;
        let mut kept = 0;
        for at in 0..frontier.len() {
            let mut holder = frontier[at];
            let waiting = holder.waiting(forest, &has);
            if waiting.is_empty() {
                continue; // every child served: leave the frontier
            }
            frontier[kept] = holder;
            kept += 1;
            if !net.is_alive(holder.node) {
                continue;
            }
            // One call per round reaches the first child still waiting; the
            // message-passing model reaches all of them.
            let mut calls = match reception {
                ReceptionModel::OneCallPerRound => 1,
                ReceptionModel::AllNeighborsPerRound => waiting.len(),
            };
            for &child in waiting {
                if calls == 0 {
                    break;
                }
                if has[child.index()] || !net.is_alive(child) {
                    continue;
                }
                calls -= 1;
                attempted = true;
                if net.send(holder.node, child, phase, payload_bits) {
                    has[child.index()] = true;
                    progressed = true;
                    if !forest.is_leaf(child) {
                        reached.push(FrontierNode::new(child));
                    }
                }
            }
        }
        frontier.truncate(kept);
        if !attempted {
            // Nobody had anyone to call. Either every alive node holds the
            // payload, or the rest sit behind crashed nodes and the phase
            // waits (up to the stall cap) for churn to bring one back.
            missing.retain(|v| !has[v.index()]);
            if !missing.iter().any(|&v| net.is_alive(v)) {
                break;
            }
        }
        merge_by_id(&mut frontier, &mut reached);
        net.advance_round();
        rounds_used += 1;
        if progressed {
            stalled_rounds = 0;
        } else {
            stalled_rounds += 1;
        }
    }

    BroadcastOutcome {
        reached: has,
        rounds: net.round() - rounds_before,
        messages: net.metrics().total_messages() - messages_before,
    }
}

/// Merge `reached` (in any order) into `frontier` (in node-id order),
/// leaving `frontier` in node-id order and `reached` empty.
fn merge_by_id(frontier: &mut Vec<FrontierNode>, reached: &mut Vec<FrontierNode>) {
    reached.sort_unstable();
    let mut a = frontier.len();
    let mut at = a + reached.len();
    frontier.resize(at, FrontierNode::new(NodeId::new(0)));
    while let Some(&last) = reached.last() {
        at -= 1;
        if a > 0 && frontier[a - 1] > last {
            frontier[at] = frontier[a - 1];
            a -= 1;
        } else {
            frontier[at] = last;
            reached.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drr::{run_drr, DrrConfig};
    use gossip_net::{Network, SimConfig};

    fn forest_and_net(n: usize, seed: u64, loss: f64) -> (Forest, Network) {
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let outcome = run_drr(&mut net, &DrrConfig::paper());
        net.reset_metrics();
        (outcome.forest, net)
    }

    #[test]
    fn broadcast_reaches_every_alive_node() {
        let (forest, mut net) = forest_and_net(1500, 3, 0.0);
        let out = broadcast_down(
            &mut net,
            &forest,
            ReceptionModel::OneCallPerRound,
            Phase::Broadcast,
            16,
        );
        assert_eq!(out.coverage(), 1500);
    }

    #[test]
    fn message_count_is_one_per_non_root_without_loss() {
        let (forest, mut net) = forest_and_net(900, 5, 0.0);
        let out = broadcast_down(
            &mut net,
            &forest,
            ReceptionModel::OneCallPerRound,
            Phase::Broadcast,
            16,
        );
        assert_eq!(out.messages, 900 - forest.num_trees() as u64);
    }

    #[test]
    fn rounds_bounded_by_tree_size_in_phone_call_model() {
        let (forest, mut net) = forest_and_net(2000, 7, 0.0);
        let out = broadcast_down(
            &mut net,
            &forest,
            ReceptionModel::OneCallPerRound,
            Phase::Broadcast,
            16,
        );
        assert!(out.rounds <= forest.max_tree_size() as u64 + 2);
    }

    #[test]
    fn rounds_bounded_by_height_in_message_passing_model() {
        let (forest, mut net) = forest_and_net(2000, 9, 0.0);
        let out = broadcast_down(
            &mut net,
            &forest,
            ReceptionModel::AllNeighborsPerRound,
            Phase::Broadcast,
            16,
        );
        assert!(out.rounds <= forest.max_height() as u64 + 2);
    }

    #[test]
    fn lossy_broadcast_still_covers_everyone() {
        let (forest, mut net) = forest_and_net(800, 11, 0.2);
        let out = broadcast_down(
            &mut net,
            &forest,
            ReceptionModel::OneCallPerRound,
            Phase::Broadcast,
            16,
        );
        assert_eq!(out.coverage(), 800);
        assert!(out.messages >= 800 - forest.num_trees() as u64);
    }

    #[test]
    fn crashed_nodes_are_not_reached() {
        let mut net = Network::new(
            SimConfig::new(600)
                .with_seed(13)
                .with_initial_crash_prob(0.2),
        );
        let drr = run_drr(&mut net, &DrrConfig::paper());
        net.reset_metrics();
        let out = broadcast_down(
            &mut net,
            &drr.forest,
            ReceptionModel::OneCallPerRound,
            Phase::Broadcast,
            16,
        );
        assert_eq!(out.coverage(), net.alive_count());
        for v in net.nodes() {
            if !net.is_alive(v) {
                assert!(!out.reached[v.index()]);
            }
        }
    }

    #[test]
    fn all_roots_forest_needs_no_messages() {
        let mut net = Network::new(SimConfig::new(50).with_seed(1));
        let forest = Forest::from_parents(vec![None; 50]).unwrap();
        let out = broadcast_down(
            &mut net,
            &forest,
            ReceptionModel::OneCallPerRound,
            Phase::Broadcast,
            16,
        );
        assert_eq!(out.messages, 0);
        assert_eq!(out.coverage(), 50);
    }
}
