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

use crate::forest::Forest;
use gossip_net::{NodeId, Phase, Transport};
use serde::{Deserialize, Serialize};

/// Configuration of Gossip-max.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GossipMaxConfig {
    /// Gossip-procedure rounds = `⌈gossip_rounds_factor · log₂ n⌉`.
    pub gossip_rounds_factor: f64,
    /// Sampling-procedure rounds = `⌈sampling_rounds_factor · log₂ n⌉`.
    pub sampling_rounds_factor: f64,
    /// Whether to run the sampling procedure at all (disabled by the E14
    /// ablation to show that the gossip procedure alone does not reach
    /// consensus).
    pub run_sampling: bool,
}

impl Default for GossipMaxConfig {
    fn default() -> Self {
        // The analysis of Theorems 5–6 uses generous constants
        // (8 log n/(1−ρ) + log_β n gossip rounds); empirically consensus is
        // reached well before that, so the defaults use 2·log n gossip rounds
        // and 1.5·log n sampling rounds — still Θ(log n), and every
        // correctness test (all roots agree on Max whp, under loss and
        // crashes) passes with margin.
        GossipMaxConfig {
            gossip_rounds_factor: 2.0,
            sampling_rounds_factor: 1.5,
            run_sampling: true,
        }
    }
}

impl GossipMaxConfig {
    /// The number of gossip-procedure rounds for an `n`-node network.
    pub fn gossip_rounds(&self, n: usize) -> u64 {
        ((f64::from(gossip_net::id_bits(n)) * self.gossip_rounds_factor).ceil() as u64).max(1)
    }

    /// The number of sampling-procedure rounds for an `n`-node network.
    pub(crate) fn sampling_rounds(&self, n: usize) -> u64 {
        if !self.run_sampling {
            return 0;
        }
        ((f64::from(gossip_net::id_bits(n)) * self.sampling_rounds_factor).ceil() as u64).max(1)
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

/// Fraction of the alive roots whose slot of `values` holds `target`.
fn fraction_with_value<T: Transport>(
    net: &T,
    forest: &Forest,
    values: &[Option<f64>],
    target: f64,
) -> f64 {
    let mut roots = 0usize;
    let mut have = 0usize;
    for (slot, &r) in forest.roots().iter().enumerate() {
        if !net.is_alive(r) {
            continue;
        }
        roots += 1;
        if values[slot] == Some(target) {
            have += 1;
        }
    }
    if roots == 0 {
        0.0
    } else {
        have as f64 / roots as f64
    }
}

/// Fold what a round delivered, as `(root slot, value)` pairs, into the
/// roots' values, emptying `incoming`.
pub(crate) fn absorb(values: &mut [Option<f64>], incoming: &mut Vec<(usize, f64)>) {
    for (slot, value) in incoming.drain(..) {
        if let Some(current) = values[slot] {
            values[slot] = Some(current.max(value));
        }
    }
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
/// asked once per alive root. All working state is indexed by
/// [`Forest::root_slot`] — there are `O(n / log n)` roots — and reused from
/// round to round.
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

    // Working values, one slot per root: defined exactly at the roots alive
    // now. They change only between rounds (what a round delivers waits in
    // `incoming`), so every push and reply of a round reads round-start
    // state.
    let mut values: Vec<Option<f64>> = forest
        .roots()
        .iter()
        .map(|&root| net.is_alive(root).then(|| initial(root)))
        .collect();
    let true_max = values
        .iter()
        .flatten()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let mut incoming: Vec<(usize, f64)> = Vec::new();

    // ---- Gossip procedure ----
    let gossip_rounds = config.gossip_rounds(n);
    for _ in 0..gossip_rounds {
        for (slot, &root) in forest.roots().iter().enumerate() {
            if !net.is_alive(root) {
                continue;
            }
            let value = match values[slot] {
                Some(v) => v,
                None => continue,
            };
            let target = net.sample_uniform();
            if !net.send(root, target, Phase::RootGossip, value_bits) {
                continue;
            }
            let receiver_root = if forest.is_root(target) {
                target
            } else {
                let owner = forest.root_of(target);
                if !net.send(target, owner, Phase::RootForward, value_bits) {
                    continue;
                }
                owner
            };
            if net.is_alive(receiver_root) {
                incoming.push((forest.root_slot(target), value));
            }
        }
        absorb(&mut values, &mut incoming);
        net.advance_round();
    }
    let fraction_after_gossip = fraction_with_value(net, forest, &values, true_max);

    // ---- Sampling procedure ----
    let sampling_rounds = config.sampling_rounds(n);
    for _ in 0..sampling_rounds {
        for (slot, &root) in forest.roots().iter().enumerate() {
            if !net.is_alive(root) {
                continue;
            }
            let target = net.sample_uniform();
            if !net.send(root, target, Phase::RootSampling, inquiry_bits) {
                continue;
            }
            let queried_root = if forest.is_root(target) {
                target
            } else {
                let owner = forest.root_of(target);
                if !net.send(target, owner, Phase::RootForward, inquiry_bits) {
                    continue;
                }
                owner
            };
            if !net.is_alive(queried_root) {
                continue;
            }
            let reply_value = match values[forest.root_slot(target)] {
                Some(v) => v,
                None => continue,
            };
            // The queried root replies directly to the inquiring root.
            if net.send(queried_root, root, Phase::RootSampling, value_bits) {
                incoming.push((slot, reply_value));
            }
        }
        absorb(&mut values, &mut incoming);
        net.advance_round();
    }
    let fraction_after_sampling = if config.run_sampling {
        fraction_with_value(net, forest, &values, true_max)
    } else {
        fraction_after_gossip
    };

    GossipMaxOutcome {
        root_values: forest.by_node(values),
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
        net.reset_metrics();
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
        let cfg = GossipMaxConfig::default();
        let out = gossip_max(&mut net, &forest, &initial, &cfg);
        let log_n = (1u64 << 13) as f64;
        let log_n = log_n.log2();
        assert!(out.gossip_rounds as f64 <= (cfg.gossip_rounds_factor + 1.0) * log_n);
        assert!(out.sampling_rounds as f64 <= (cfg.sampling_rounds_factor + 1.0) * log_n);
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
            ..GossipMaxConfig::default()
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
        net.reset_metrics();
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
