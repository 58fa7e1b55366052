//! Uniform gossip for Average/Sum: the Push-Sum protocol of Kempe, Dobra &
//! Gehrke (FOCS 2003) — the paper's primary comparison point.
//!
//! Every node maintains a pair `(s, w)` initialised to `(value, 1)`. In each
//! round every node keeps half of its pair and sends the other half to a
//! uniformly random node; its estimate of the average is `s/w`. The protocol
//! is **address-oblivious**, takes `O(log n + log 1/ε)` rounds and
//! `O(n (log n + log 1/ε))` messages — a `log n / log log n` factor more
//! messages than DRR-gossip (Table 1).
//!
//! [`routed_push_sum_average`] is the sparse-network variant where each push
//! must be routed to its random destination through the overlay
//! ([`RandomNodeSampler`]), costing `M` messages and `T` rounds per push —
//! `O(n log² n)` messages and `O(log² n)` time on Chord (Section 4).
//!
//! Both run the round of [`gossip_net::PushSum`] among the nodes alive at
//! the start, the loop DRR-gossip's Gossip-ave runs among its roots; they
//! differ only in how a push travels. Any node the transport delivers a
//! push to takes it, a node that rejoined mid-run included.

use gossip_aggregate::relative_error;
use gossip_net::{push_sum_rounds, NodeId, Phase, PushSum, Transport};
use gossip_topology::{route_sample, RandomNodeSampler};
use serde::{Deserialize, Serialize};

/// Push-sum rounds = `⌈ROUNDS_FACTOR · (log₂ n + log₂(1/ε))⌉`.
const ROUNDS_FACTOR: f64 = 1.0;

/// Configuration of push-sum.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PushSumConfig {
    /// Target relative error ε.
    pub epsilon: f64,
}

impl Default for PushSumConfig {
    fn default() -> Self {
        PushSumConfig { epsilon: 1e-4 }
    }
}

impl PushSumConfig {
    /// Number of rounds for an `n`-node network.
    pub fn rounds(&self, n: usize) -> u64 {
        push_sum_rounds(ROUNDS_FACTOR, n, self.epsilon)
    }
}

/// Outcome of a push-sum run.
#[derive(Clone, Debug)]
pub struct PushSumOutcome {
    /// Per-node estimate of the average (NaN at crashed nodes).
    pub estimates: Vec<f64>,
    /// The exact average over alive nodes.
    pub true_average: f64,
    /// Rounds used.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
    /// Maximum (over alive nodes) relative error after each round.
    pub max_error_trace: Vec<f64>,
}

impl PushSumOutcome {
    /// Largest relative error over alive nodes at the end of the run.
    pub fn max_relative_error(&self) -> f64 {
        self.max_error_trace
            .last()
            .copied()
            .unwrap_or(f64::INFINITY)
    }
}

/// Push-sum among the nodes alive at the start, each pushing to the node
/// `reach` returns (`None`: lost); `ticks` transport rounds make one gossip
/// round.
fn push_sum_among_alive<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &PushSumConfig,
    ticks: usize,
    mut reach: impl FnMut(&mut T, NodeId) -> Option<NodeId>,
) -> PushSumOutcome {
    let n = net.n();
    assert_eq!(values.len(), n);
    let messages_before = net.metrics().total_messages();
    let alive: Vec<bool> = net.nodes().map(|v| net.is_alive(v)).collect();
    let mut pairs = PushSum::new(&alive, |i| (values[i], 1.0));
    let true_average = pairs.average(&alive);
    let rounds = config.rounds(n);
    let mut max_error_trace = Vec::with_capacity(rounds as usize);
    pairs.run(
        net,
        &alive,
        rounds,
        |net, i| reach(net, NodeId::new(i)).map(NodeId::index),
        |net, pairs| {
            for _ in 0..ticks {
                net.advance_round();
            }
            let error = net
                .alive_nodes()
                .map(|v| relative_error(pairs.estimate(v.index()), true_average))
                .fold(0.0, f64::max);
            max_error_trace.push(error);
        },
    );
    let estimates = net
        .nodes()
        .map(|v| {
            if net.is_alive(v) {
                pairs.estimate(v.index())
            } else {
                f64::NAN
            }
        })
        .collect();
    PushSumOutcome {
        estimates,
        true_average,
        rounds,
        messages: net.metrics().total_messages() - messages_before,
        max_error_trace,
    }
}

/// Uniform-gossip push-sum on the complete-graph phone-call model.
pub fn push_sum_average<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &PushSumConfig,
) -> PushSumOutcome {
    let payload_bits = 2 * net.config().value_bits();
    push_sum_among_alive(net, values, config, 1, |net, v| {
        let target = net.sample_uniform();
        net.send(v, target, Phase::UniformGossip, payload_bits)
            .then_some(target)
    })
}

/// Push-sum on a sparse network: each push is routed to a random node via the
/// sampler, charging one message per overlay hop and `T` rounds per gossip
/// round (uniform gossip has no trees to exploit, so *every* node routes a
/// message every round — this is the `O(n log² n)`-message Chord baseline of
/// Section 4).
pub fn routed_push_sum_average<T: Transport>(
    net: &mut T,
    sampler: &dyn RandomNodeSampler,
    values: &[f64],
    config: &PushSumConfig,
) -> PushSumOutcome {
    let payload_bits = 2 * net.config().value_bits();
    let ticks = sampler.rounds_per_sample().max(1);
    let mut path = Vec::new();
    push_sum_among_alive(net, values, config, ticks, |net, v| {
        let salt = v.index() as u64 ^ (net.round() << 24);
        route_sample(net, sampler, v, salt, &mut path, payload_bits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{Network, SimConfig};
    use gossip_topology::{ChordOverlay, ChordSampler};

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 97) % 1013) as f64).collect()
    }

    #[test]
    fn converges_to_true_average() {
        let n = 2000;
        let mut net = Network::new(SimConfig::new(n).with_seed(3));
        let vals = values(n);
        let out = push_sum_average(&mut net, &vals, &PushSumConfig::default());
        let exact = vals.iter().sum::<f64>() / n as f64;
        assert!((out.true_average - exact).abs() < 1e-9);
        assert!(
            out.max_relative_error() < 5e-3,
            "error = {}",
            out.max_relative_error()
        );
    }

    #[test]
    fn message_complexity_is_n_log_n_scale() {
        let n = 1 << 13;
        let mut net = Network::new(SimConfig::new(n).with_seed(5));
        let vals = values(n);
        let out = push_sum_average(&mut net, &vals, &PushSumConfig::default());
        // exactly one message per alive node per round
        assert_eq!(out.messages, out.rounds * n as u64);
        let n_f = n as f64;
        assert!(out.messages as f64 >= 0.5 * n_f * n_f.log2());
    }

    #[test]
    fn error_trace_is_decreasing_overall() {
        let n = 1000;
        let mut net = Network::new(SimConfig::new(n).with_seed(7));
        let vals = values(n);
        let out = push_sum_average(&mut net, &vals, &PushSumConfig::default());
        let early = out.max_error_trace[2];
        let late = *out.max_error_trace.last().unwrap();
        assert!(late < early);
        assert!(out.max_error_trace.iter().any(|&e| e <= 0.01));
    }

    #[test]
    fn tolerates_loss_and_crashes() {
        let n = 2000;
        let mut net = Network::new(
            SimConfig::new(n)
                .with_seed(9)
                .with_loss_prob(0.05)
                .with_initial_crash_prob(0.1),
        );
        let vals = values(n);
        let out = push_sum_average(&mut net, &vals, &PushSumConfig::default());
        assert!(
            out.max_relative_error() < 0.05,
            "error = {}",
            out.max_relative_error()
        );
        for v in net.nodes() {
            if !net.is_alive(v) {
                assert!(out.estimates[v.index()].is_nan());
            }
        }
    }

    #[test]
    fn constant_input_is_exact() {
        let n = 500;
        let mut net = Network::new(SimConfig::new(n).with_seed(11));
        let out = push_sum_average(&mut net, &vec![3.0; n], &PushSumConfig::default());
        for v in net.alive_nodes() {
            assert!((out.estimates[v.index()] - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn routed_variant_on_chord_costs_log_n_messages_per_push() {
        let n = 1 << 10;
        let overlay = ChordOverlay::new(n);
        let sampler = ChordSampler::new(&overlay);
        let mut net = Network::new(SimConfig::new(n).with_seed(13));
        let vals = values(n);
        let out = routed_push_sum_average(&mut net, &sampler, &vals, &PushSumConfig::default());
        assert!(
            out.max_relative_error() < 1e-2,
            "error = {}",
            out.max_relative_error()
        );
        // Each push costs up to log n hops, so messages ≈ rounds · n · Θ(log n):
        // strictly more than the flat-model n per round.
        assert!(out.messages > out.rounds * n as u64 * 2);
        assert!(out.messages < out.rounds * n as u64 * (gossip_net::id_bits(n) as u64 + 1));
    }

    #[test]
    fn deterministic_in_seed() {
        let n = 600;
        let vals = values(n);
        let run = || {
            let mut net = Network::new(SimConfig::new(n).with_seed(42).with_loss_prob(0.02));
            push_sum_average(&mut net, &vals, &PushSumConfig::default()).estimates
        };
        assert_eq!(run(), run());
    }
}
