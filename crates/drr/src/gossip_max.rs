//! Phase III: Gossip-max (Algorithm 4).
//!
//! All tree roots compute the global maximum of their local aggregates by a
//! push gossip over the whole node set: in every round each root sends its
//! current value to a uniformly random node of `V`; a non-root receiver
//! forwards the message to its own root (it learned the root's address in
//! the Phase-II broadcast — the non-address-oblivious step), so each gossip
//! edge costs at most two hops. Because a root is hit with probability
//! proportional to its tree size, the selection among roots is *not*
//! uniform; the gossip procedure therefore only guarantees that a constant
//! fraction of the roots (including the largest-tree root) learn the maximum
//! (Theorem 5), after which a short **sampling procedure** — each root
//! queries `O(log n)` random nodes and pulls their roots' values — brings
//! every root to consensus whp (Theorem 6).
//!
//! Cost: `O(log n)` rounds and `O(n)` messages (there are only
//! `m = O(n/log n)` roots).
//!
//! Both procedures are rounds of [`gossip_net::PushMax`] with a slot per
//! root; this module supplies their two exchanges.

use crate::forest::Forest;
use gossip_net::{log_rounds, NodeId, Phase, PushMax, Transport};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

// The analysis of Theorems 5–6 uses generous constants
// (8 log n/(1−ρ) + log_β n gossip rounds); empirically consensus is reached
// well before that, so Gossip-max and the sparse root gossip use 2·log n
// gossip rounds and 1.5·log n sampling rounds — still Θ(log n), and every
// correctness test (all roots agree on Max whp, under loss and crashes)
// passes with margin.
/// Gossip-procedure rounds = `⌈GOSSIP_ROUNDS_FACTOR · log₂ n⌉`.
pub(crate) const GOSSIP_ROUNDS_FACTOR: f64 = 2.0;
/// Sampling-procedure rounds = `⌈SAMPLING_ROUNDS_FACTOR · log₂ n⌉`.
pub(crate) const SAMPLING_ROUNDS_FACTOR: f64 = 1.5;

/// Configuration of Gossip-max.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GossipMaxConfig {
    /// Whether to run the sampling procedure at all (disabled by the E14
    /// ablation to show that the gossip procedure alone does not reach
    /// consensus).
    pub run_sampling: bool,
}

impl Default for GossipMaxConfig {
    fn default() -> Self {
        GossipMaxConfig { run_sampling: true }
    }
}

/// Outcome of Gossip-max.
#[derive(Clone, Debug)]
pub struct GossipMaxOutcome {
    /// Current value per node; `Some` at alive roots, `None` elsewhere.
    pub root_values: Vec<Option<f64>>,
    /// The true maximum over the alive roots' initial values.
    pub true_max: f64,
    /// Fraction of alive roots holding the true maximum after the gossip
    /// procedure (Theorem 5 predicts a constant fraction).
    pub fraction_after_gossip: f64,
    /// Fraction after the sampling procedure (Theorem 6 predicts 1 whp).
    pub fraction_after_sampling: f64,
    /// Rounds used by the gossip procedure.
    pub gossip_rounds: u64,
    /// Rounds used by the sampling procedure.
    pub sampling_rounds: u64,
    /// Total messages sent by this phase.
    pub messages: u64,
}

impl GossipMaxOutcome {
    /// The value held by a given root.
    pub fn value_at(&self, root: NodeId) -> Option<f64> {
        self.root_values[root.index()]
    }
}

/// Send a `bits`-bit payload from `root` to a uniformly random node and,
/// from a non-root, on to its root: the node it landed on, or `None` if a
/// hop lost it.
pub(crate) fn reach_uniform<T: Transport>(
    net: &mut T,
    forest: &Forest,
    root: NodeId,
    phase: Phase,
    bits: u32,
) -> Option<NodeId> {
    let target = net.sample_uniform();
    let delivered = net.send(root, target, phase, bits)
        && (forest.is_root(target)
            || net.send(target, forest.root_of(target), Phase::RootForward, bits));
    delivered.then_some(target)
}

/// Run Algorithm 4 on the roots of `forest`.
///
/// `initial` holds each root's starting value (`None` entries and non-root
/// entries are ignored); for the ordinary DRR-gossip-max this is the
/// convergecast-max output, for the largest-tree election it is the tree
/// size, and for Data-spread it is `−∞` everywhere except the spreading
/// root.
pub fn gossip_max<T: Transport>(
    net: &mut T,
    forest: &Forest,
    initial: &[Option<f64>],
    config: &GossipMaxConfig,
) -> GossipMaxOutcome {
    assert_eq!(initial.len(), net.n());
    gossip_max_from(
        net,
        forest,
        |root| initial[root.index()].unwrap_or(f64::NEG_INFINITY),
        config,
    )
}

/// [`gossip_max`] with the starting values given as a function of the root,
/// asked once per root alive now: those roots, and only they, hold a value.
pub(crate) fn gossip_max_from<T: Transport>(
    net: &mut T,
    forest: &Forest,
    initial: impl Fn(NodeId) -> f64,
    config: &GossipMaxConfig,
) -> GossipMaxOutcome {
    let n = net.n();
    assert_eq!(forest.n(), n);
    let messages_before = net.metrics().total_messages();
    let value_bits = net.config().value_bits() + net.config().id_bits();
    let inquiry_bits = net.config().id_bits();
    let roots = forest.roots();

    let mut values = PushMax::new(
        roots
            .iter()
            .map(|&root| net.is_alive(root).then(|| initial(root))),
    );
    let true_max = values
        .values()
        .iter()
        .flatten()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    // Theorems 5 and 6 count the roots alive now.
    let fraction = |net: &T, values: &PushMax| {
        let alive = (0..roots.len()).filter(|&slot| net.is_alive(roots[slot]));
        values.fraction_holding(alive, true_max)
    };
    let end_round = |net: &mut T, _: &PushMax| {
        net.advance_round();
        ControlFlow::Continue(())
    };

    // Gossip procedure: a root alive now that holds a value pushes it to
    // the receiver's root, if that is alive.
    let gossip_rounds = log_rounds(GOSSIP_ROUNDS_FACTOR, n);
    values.run(
        net,
        gossip_rounds,
        |net, slot, values| {
            let root = roots[slot];
            if !net.is_alive(root) || values[slot].is_none() {
                return (None, None);
            }
            let target = reach_uniform(net, forest, root, Phase::RootGossip, value_bits);
            let receiver = target.filter(|&target| net.is_alive(forest.root_of(target)));
            (receiver.map(|target| forest.root_slot(target)), None)
        },
        end_round,
    );
    let fraction_after_gossip = fraction(net, &values);

    // Sampling procedure: every root alive now inquires, a rejoined one
    // without a value too, and the queried root replies if it is alive and
    // holds a value.
    let sampling_rounds = if config.run_sampling {
        log_rounds(SAMPLING_ROUNDS_FACTOR, n)
    } else {
        0
    };
    values.run(
        net,
        sampling_rounds,
        |net, slot, values| {
            let root = roots[slot];
            if !net.is_alive(root) {
                return (None, None);
            }
            let replied = reach_uniform(net, forest, root, Phase::RootSampling, inquiry_bits)
                .filter(|&target| {
                    let queried_root = forest.root_of(target);
                    net.is_alive(queried_root)
                        && values[forest.root_slot(target)].is_some()
                        && net.send(queried_root, root, Phase::RootSampling, value_bits)
                });
            (None, replied.map(|target| forest.root_slot(target)))
        },
        end_round,
    );
    let fraction_after_sampling = fraction(net, &values);

    GossipMaxOutcome {
        root_values: forest.by_node(values.values().iter().copied()),
        true_max,
        fraction_after_gossip,
        fraction_after_sampling,
        gossip_rounds,
        sampling_rounds,
        messages: net.metrics().total_messages() - messages_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergecast::{convergecast_max, ReceptionModel};
    use crate::drr::{run_drr, DrrConfig};
    use gossip_net::{Network, SimConfig};

    fn setup(n: usize, seed: u64, loss: f64) -> (Forest, Network, Vec<Option<f64>>, f64) {
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let drr = run_drr(&mut net, &DrrConfig::paper());
        let values: Vec<f64> = (0..n).map(|i| ((i * 193) % 7919) as f64).collect();
        let cc = convergecast_max(
            &mut net,
            &drr.forest,
            &values,
            ReceptionModel::OneCallPerRound,
        );
        let true_max = net
            .alive_nodes()
            .map(|v| values[v.index()])
            .fold(f64::NEG_INFINITY, f64::max);
        (drr.forest, net, cc.state, true_max)
    }

    #[test]
    fn all_roots_reach_consensus_on_max_without_loss() {
        let (forest, mut net, initial, true_max) = setup(4000, 3, 0.0);
        let out = gossip_max(&mut net, &forest, &initial, &GossipMaxConfig::default());
        assert_eq!(out.true_max, true_max);
        assert_eq!(out.fraction_after_sampling, 1.0);
    }

    #[test]
    fn constant_fraction_after_gossip_procedure(/* Theorem 5 */) {
        let (forest, mut net, initial, _) = setup(4000, 5, 0.05);
        let out = gossip_max(&mut net, &forest, &initial, &GossipMaxConfig::default());
        assert!(
            out.fraction_after_gossip > 0.3,
            "only {} of roots had the max after gossip",
            out.fraction_after_gossip
        );
        assert!(out.fraction_after_sampling >= out.fraction_after_gossip);
    }

    #[test]
    fn consensus_under_message_loss(/* Theorem 6 with lossy links */) {
        let (forest, mut net, initial, _) = setup(3000, 7, 0.1);
        let out = gossip_max(&mut net, &forest, &initial, &GossipMaxConfig::default());
        assert!(
            out.fraction_after_sampling > 0.995,
            "fraction after sampling = {}",
            out.fraction_after_sampling
        );
    }

    #[test]
    fn rounds_are_logarithmic() {
        let (forest, mut net, initial, _) = setup(1 << 13, 9, 0.0);
        let out = gossip_max(&mut net, &forest, &initial, &GossipMaxConfig::default());
        let log_n = (1u64 << 13) as f64;
        let log_n = log_n.log2();
        assert!(out.gossip_rounds as f64 <= (GOSSIP_ROUNDS_FACTOR + 1.0) * log_n);
        assert!(out.sampling_rounds as f64 <= (SAMPLING_ROUNDS_FACTOR + 1.0) * log_n);
    }

    #[test]
    fn message_complexity_is_linear_in_n() {
        // O(m log n) = O(n) messages: each root sends one message (plus a
        // possible forward) per round.
        let n = 1 << 13;
        let (forest, mut net, initial, _) = setup(n, 11, 0.0);
        let out = gossip_max(&mut net, &forest, &initial, &GossipMaxConfig::default());
        let bound = 16.0 * n as f64;
        assert!(
            (out.messages as f64) < bound,
            "messages = {} exceeds {bound}",
            out.messages
        );
    }

    #[test]
    fn disabling_sampling_keeps_gossip_only_fraction() {
        let (forest, mut net, initial, _) = setup(2000, 13, 0.0);
        let cfg = GossipMaxConfig {
            run_sampling: false,
        };
        let out = gossip_max(&mut net, &forest, &initial, &cfg);
        assert_eq!(out.sampling_rounds, 0);
        assert_eq!(out.fraction_after_sampling, out.fraction_after_gossip);
    }

    #[test]
    fn largest_tree_root_learns_the_max() {
        for seed in 0..5 {
            let (forest, mut net, initial, _) = setup(2000, seed, 0.0);
            let out = gossip_max(&mut net, &forest, &initial, &GossipMaxConfig::default());
            let z = forest.largest_tree_root();
            assert_eq!(out.value_at(z), Some(out.true_max));
        }
    }

    #[test]
    fn non_roots_hold_no_value() {
        let (forest, mut net, initial, _) = setup(1000, 17, 0.0);
        let out = gossip_max(&mut net, &forest, &initial, &GossipMaxConfig::default());
        for v in net.nodes() {
            if !forest.is_root(v) {
                assert_eq!(out.value_at(v), None);
            }
        }
    }

    #[test]
    fn works_with_initial_crashes() {
        let mut net = Network::new(
            SimConfig::new(2000)
                .with_seed(19)
                .with_initial_crash_prob(0.2)
                .with_loss_prob(0.05),
        );
        let drr = run_drr(&mut net, &DrrConfig::paper());
        let values: Vec<f64> = (0..2000).map(|i| (i % 997) as f64).collect();
        let cc = convergecast_max(
            &mut net,
            &drr.forest,
            &values,
            ReceptionModel::OneCallPerRound,
        );
        let out = gossip_max(
            &mut net,
            &drr.forest,
            &cc.state,
            &GossipMaxConfig::default(),
        );
        // The maximum over alive nodes is found by nearly all alive roots.
        assert!(out.fraction_after_sampling > 0.99);
    }
}
