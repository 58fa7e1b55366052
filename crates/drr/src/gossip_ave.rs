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
//!
//! The round itself is [`gossip_net::PushSum`], the loop the baselines'
//! push-sum and Kashyap et al.'s leader gossip run too; this module supplies
//! the roots as its participants and the forwarding to a root as its
//! `reach`.

use crate::forest::Forest;
use crate::gossip_max::reach_uniform;
use gossip_aggregate::{relative_error, AverageState};
use gossip_net::{push_sum_rounds, NodeId, Phase, PushSum, Transport};
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
        push_sum_rounds(self.rounds_factor, m, self.epsilon)
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

/// Push-sum among the roots: one `(s, g)` pair per root slot
/// ([`Forest::root_slot`]; there are `O(n / log n)` of them). `active`
/// marks the roots alive at the start; only they push and take pushes.
pub(crate) struct RootPairs {
    pairs: PushSum,
    active: Vec<bool>,
}

impl RootPairs {
    /// Every root alive now starts from `initial(root)`.
    pub(crate) fn new<T: Transport>(
        net: &T,
        forest: &Forest,
        initial: impl Fn(NodeId) -> AverageState,
    ) -> Self {
        let roots = forest.roots();
        let active: Vec<bool> = roots.iter().map(|&root| net.is_alive(root)).collect();
        let pairs = PushSum::new(&active, |slot| {
            let state = initial(roots[slot]);
            (state.sum, state.count)
        });
        RootPairs { pairs, active }
    }

    /// The estimates per node: `Some` at the active roots.
    pub(crate) fn by_node(&self, forest: &Forest) -> Vec<Option<f64>> {
        forest.by_node(
            (0..self.active.len()).map(|slot| self.active[slot].then(|| self.pairs.estimate(slot))),
        )
    }

    /// Algorithm 6's rounds, on either network model: each active root
    /// pushes to the node `reach` lands it on (`None`: lost on the way),
    /// whose root takes the push if it is active.
    pub(crate) fn run<T: Transport>(
        &mut self,
        net: &mut T,
        forest: &Forest,
        rounds: u64,
        mut reach: impl FnMut(&mut T, NodeId) -> Option<NodeId>,
        end_round: impl FnMut(&mut T, &PushSum),
    ) {
        let active = &self.active;
        let reach_root = |net: &mut T, slot: usize| {
            let receiver = forest.root_slot(reach(net, forest.roots()[slot])?);
            active[receiver].then_some(receiver)
        };
        self.pairs.run(net, active, rounds, reach_root, end_round);
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
    assert_eq!(initial.len(), net.n());
    gossip_ave_from(
        net,
        forest,
        |root| initial[root.index()].unwrap_or_default(),
        config,
    )
}

/// [`gossip_ave`] with the starting pairs given as a function of the root,
/// asked once per alive root. A push goes to a uniformly random node and,
/// from a non-root, on to its root.
pub(crate) fn gossip_ave_from<T: Transport>(
    net: &mut T,
    forest: &Forest,
    initial: impl Fn(NodeId) -> AverageState,
    config: &GossipAveConfig,
) -> GossipAveOutcome {
    assert_eq!(forest.n(), net.n());
    let messages_before = net.metrics().total_messages();
    let payload_bits = 2 * net.config().value_bits() + net.config().id_bits();

    let mut pairs = RootPairs::new(net, forest, initial);
    let true_average = pairs.pairs.average(&pairs.active);
    let m = pairs.active.iter().filter(|&&active| active).count();
    let largest_root = forest.largest_tree_root();
    let z = forest.root_slot(largest_root);

    let rounds = config.rounds(m);
    let mut error_trace = Vec::with_capacity(rounds as usize);
    pairs.run(
        net,
        forest,
        rounds,
        |net, root| reach_uniform(net, forest, root, Phase::RootGossip, payload_bits),
        |net, pairs| {
            net.advance_round();
            error_trace.push(relative_error(pairs.estimate(z), true_average));
        },
    );

    let estimates = pairs.by_node(forest);
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
