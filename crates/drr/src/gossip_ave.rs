//! Phase III: Gossip-ave (Algorithm 6) — push-sum among the tree roots.
//!
//! Every root starts with the pair `(s, g)` produced by Convergecast-sum:
//! the sum of its tree's values and its tree size. In every round each root
//! keeps half of its pair and pushes the other half to a uniformly random
//! node of `V` (forwarded to that node's root when it lands on a non-root).
//! The estimate of the global average at a root is `s/g`.
//!
//! Because roots are selected with probability proportional to their tree
//! size, only the **largest-tree root** is guaranteed (Theorem 7) to reach a
//! relative error of `2/n^{α−1}` within `O(log n)` rounds; DRR-gossip-ave
//! therefore follows Gossip-ave with a Data-spread from that root.

use crate::forest::Forest;
use gossip_aggregate::{relative_error, AverageState};
use gossip_net::{NodeId, Phase, Transport};
use serde::{Deserialize, Serialize};

/// Configuration of Gossip-ave.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GossipAveConfig {
    /// Round multiplier: rounds = `⌈rounds_factor · (log₂ m + log₂(1/ε))⌉`.
    pub rounds_factor: f64,
    /// Target relative error ε.
    pub epsilon: f64,
}

impl Default for GossipAveConfig {
    fn default() -> Self {
        GossipAveConfig {
            rounds_factor: 1.25,
            epsilon: 1e-4,
        }
    }
}

impl GossipAveConfig {
    /// Number of push-sum rounds for `m` participating roots.
    pub fn rounds(&self, m: usize) -> u64 {
        let log_m = f64::from(gossip_net::id_bits(m.max(2)));
        let log_eps = (1.0 / self.epsilon).log2().max(0.0);
        ((self.rounds_factor * (log_m + log_eps)).ceil() as u64).max(1)
    }
}

/// Outcome of Gossip-ave.
#[derive(Clone, Debug)]
pub struct GossipAveOutcome {
    /// Average estimate `s/g` per node; `Some` at alive roots.
    pub estimates: Vec<Option<f64>>,
    /// The largest-tree root `z` (the node Theorem 7 is about).
    pub largest_root: NodeId,
    /// The estimate at the largest-tree root.
    pub largest_root_estimate: f64,
    /// The true average implied by the initial `(s, g)` mass.
    pub true_average: f64,
    /// Relative error at the largest-tree root after each round.
    pub error_trace: Vec<f64>,
    /// Rounds consumed.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
}

impl GossipAveOutcome {
    /// Final relative error at the largest-tree root.
    pub fn largest_root_error(&self) -> f64 {
        relative_error(self.largest_root_estimate, self.true_average)
    }
}

/// The average estimate `s/g` of a root holding the pair `(s, g)`.
pub(crate) fn estimate(sum: f64, weight: f64) -> f64 {
    if weight > 0.0 {
        sum / weight
    } else {
        0.0
    }
}

/// Run Algorithm 6 on the roots of `forest`.
///
/// `initial` holds each root's `(local sum, tree size)` pair from
/// Convergecast-sum (`None` entries and non-root entries are ignored).
pub fn gossip_ave<T: Transport>(
    net: &mut T,
    forest: &Forest,
    initial: &[Option<AverageState>],
    config: &GossipAveConfig,
) -> GossipAveOutcome {
    let n = net.n();
    assert_eq!(forest.n(), n);
    assert_eq!(initial.len(), n);
    let messages_before = net.metrics().total_messages();
    let payload_bits = 2 * net.config().value_bits() + net.config().id_bits();

    // Working (s, g) state, one slot per root ([`Forest::root_slot`]; there
    // are `O(n / log n)` of them); `active` marks the roots alive now.
    let roots = forest.roots();
    let mut sum = vec![0.0; roots.len()];
    let mut weight = vec![0.0; roots.len()];
    let mut active = vec![false; roots.len()];
    let mut m = 0usize;
    let mut total_sum = 0.0;
    let mut total_weight = 0.0;
    for (slot, &root) in roots.iter().enumerate() {
        if !net.is_alive(root) {
            continue;
        }
        let state = initial[root.index()].unwrap_or(AverageState {
            sum: 0.0,
            count: 0.0,
        });
        sum[slot] = state.sum;
        weight[slot] = state.count;
        active[slot] = true;
        total_sum += state.sum;
        total_weight += state.count;
        m += 1;
    }
    let true_average = if total_weight == 0.0 {
        0.0
    } else {
        total_sum / total_weight
    };
    let largest_root = forest.largest_tree_root();

    let rounds = config.rounds(m);
    let mut error_trace = Vec::with_capacity(rounds as usize);
    // What a round delivers, added to the working state when it ends.
    let mut incoming_sum = vec![0.0; roots.len()];
    let mut incoming_weight = vec![0.0; roots.len()];
    for _ in 0..rounds {
        incoming_sum.fill(0.0);
        incoming_weight.fill(0.0);
        // Every root halves its pair and pushes one half.
        for (slot, &root) in roots.iter().enumerate() {
            if !active[slot] {
                continue;
            }
            let half_sum = sum[slot] / 2.0;
            let half_weight = weight[slot] / 2.0;
            sum[slot] = half_sum;
            weight[slot] = half_weight;
            let target = net.sample_uniform();
            if !net.send(root, target, Phase::RootGossip, payload_bits) {
                continue; // the pushed half is lost in transit
            }
            if !forest.is_root(target)
                && !net.send(
                    target,
                    forest.root_of(target),
                    Phase::RootForward,
                    payload_bits,
                )
            {
                continue;
            }
            let receiver = forest.root_slot(target);
            if active[receiver] {
                incoming_sum[receiver] += half_sum;
                incoming_weight[receiver] += half_weight;
            }
        }
        for slot in 0..roots.len() {
            sum[slot] += incoming_sum[slot];
            weight[slot] += incoming_weight[slot];
        }
        net.advance_round();
        let z = forest.root_slot(largest_root);
        error_trace.push(relative_error(estimate(sum[z], weight[z]), true_average));
    }

    let estimates = forest.by_node(
        (0..roots.len()).map(|slot| active[slot].then(|| estimate(sum[slot], weight[slot]))),
    );
    let largest_root_estimate = estimates[largest_root.index()].unwrap_or(0.0);

    GossipAveOutcome {
        estimates,
        largest_root,
        largest_root_estimate,
        true_average,
        error_trace,
        rounds,
        messages: net.metrics().total_messages() - messages_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergecast::{convergecast_sum, ReceptionModel};
    use crate::drr::{run_drr, DrrConfig};
    use gossip_net::{Network, SimConfig};

    fn setup(
        n: usize,
        seed: u64,
        loss: f64,
        values: &[f64],
    ) -> (Forest, Network, Vec<Option<AverageState>>) {
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let drr = run_drr(&mut net, &DrrConfig::paper());
        let cc = convergecast_sum(
            &mut net,
            &drr.forest,
            values,
            ReceptionModel::OneCallPerRound,
        );
        net.reset_metrics();
        (drr.forest, net, cc.state)
    }

    #[test]
    fn largest_root_estimate_converges_to_true_average(/* Theorem 7 */) {
        let n = 4000;
        let values: Vec<f64> = (0..n).map(|i| (i % 100) as f64).collect();
        let (forest, mut net, initial) = setup(n, 3, 0.0, &values);
        let out = gossip_ave(&mut net, &forest, &initial, &GossipAveConfig::default());
        let exact: f64 = values.iter().sum::<f64>() / n as f64;
        assert!((out.true_average - exact).abs() < 1e-9);
        assert!(
            out.largest_root_error() < 1e-3,
            "error = {}",
            out.largest_root_error()
        );
    }

    #[test]
    fn error_trace_decreases_overall() {
        let n = 2000;
        let values: Vec<f64> = (0..n).map(|i| ((i * 31) % 977) as f64).collect();
        let (forest, mut net, initial) = setup(n, 5, 0.0, &values);
        let out = gossip_ave(&mut net, &forest, &initial, &GossipAveConfig::default());
        let first_quarter = out.error_trace[out.error_trace.len() / 4];
        let last = *out.error_trace.last().unwrap();
        assert!(last <= first_quarter, "error did not decrease: {out:?}");
    }

    #[test]
    fn mixed_sign_values_with_near_zero_average_are_handled() {
        // The case the paper treats with the absolute-error criterion.
        let n = 2000;
        let values: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 10.0 } else { -10.0 })
            .collect();
        let (forest, mut net, initial) = setup(n, 7, 0.0, &values);
        let out = gossip_ave(&mut net, &forest, &initial, &GossipAveConfig::default());
        assert!(out.largest_root_estimate.abs() < 0.5);
    }

    #[test]
    fn message_complexity_is_linear_in_n() {
        let n = 1 << 13;
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let (forest, mut net, initial) = setup(n, 9, 0.0, &values);
        let out = gossip_ave(&mut net, &forest, &initial, &GossipAveConfig::default());
        // m = O(n / log n) roots, O(log n) rounds, ≤ 2 messages per push.
        assert!(
            (out.messages as f64) < 24.0 * n as f64,
            "messages = {}",
            out.messages
        );
    }

    #[test]
    fn rounds_match_configuration() {
        let n = 1024;
        let values = vec![1.0; n];
        let (forest, mut net, initial) = setup(n, 11, 0.0, &values);
        let cfg = GossipAveConfig {
            rounds_factor: 1.0,
            epsilon: 0.5,
        };
        let out = gossip_ave(&mut net, &forest, &initial, &cfg);
        assert_eq!(out.rounds, cfg.rounds(forest.num_trees()));
        assert_eq!(out.error_trace.len() as u64, out.rounds);
    }

    #[test]
    fn loss_preserves_approximate_correctness() {
        // Losing a pushed half removes the same fraction of s and g in
        // expectation, so the ratio stays close to the truth.
        let n = 4000;
        let values: Vec<f64> = (0..n).map(|i| 50.0 + (i % 100) as f64).collect();
        let (forest, mut net, initial) = setup(n, 13, 0.1, &values);
        let out = gossip_ave(&mut net, &forest, &initial, &GossipAveConfig::default());
        assert!(
            out.largest_root_error() < 0.05,
            "error = {}",
            out.largest_root_error()
        );
    }

    #[test]
    fn constant_values_give_exact_average() {
        let n = 1000;
        let values = vec![7.0; n];
        let (forest, mut net, initial) = setup(n, 15, 0.0, &values);
        let out = gossip_ave(&mut net, &forest, &initial, &GossipAveConfig::default());
        // Every (s, g) pair has s = 7g, so every estimate is exactly 7.
        assert!((out.largest_root_estimate - 7.0).abs() < 1e-9);
        for est in out.estimates.iter().flatten() {
            assert!((est - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn non_roots_have_no_estimate() {
        let n = 500;
        let values = vec![1.0; n];
        let (forest, mut net, initial) = setup(n, 17, 0.0, &values);
        let out = gossip_ave(&mut net, &forest, &initial, &GossipAveConfig::default());
        for v in net.nodes() {
            if !forest.is_root(v) {
                assert_eq!(out.estimates[v.index()], None);
            }
        }
    }

    #[test]
    fn config_round_counts_grow_with_m_and_precision() {
        let loose = GossipAveConfig {
            rounds_factor: 1.0,
            epsilon: 0.1,
        };
        let tight = GossipAveConfig {
            rounds_factor: 1.0,
            epsilon: 1e-6,
        };
        assert!(tight.rounds(1000) > loose.rounds(1000));
        assert!(loose.rounds(100_000) > loose.rounds(100));
    }
}
