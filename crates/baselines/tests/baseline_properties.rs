//! Property-based tests over the baseline protocols: whatever the size,
//! seed and loss rate, the estimates and the accounting must satisfy the
//! protocols' basic invariants.

use gossip_baselines::{
    efficient_gossip_average, push_max, push_sum_average, spread_rumor, EfficientGossipConfig,
    PushMaxConfig, PushSumConfig,
};
use gossip_net::{Network, NodeId, SimConfig, Transport};
use proptest::prelude::*;

fn values(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed);
            ((x >> 12) % 10_000) as f64 / 10.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Push-sum never produces an estimate outside the convex hull of the
    /// inputs, and sends exactly one message per alive node per round.
    #[test]
    fn push_sum_invariants(n in 4usize..400, seed in 0u64..10_000, loss in 0.0f64..0.2) {
        let vals = values(n, seed);
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let out = push_sum_average(&mut net, &vals, &PushSumConfig::default());
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in net.alive_nodes() {
            let est = out.estimates[v.index()];
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
        }
        prop_assert_eq!(out.messages, out.rounds * net.alive_count() as u64);
        prop_assert_eq!(out.max_error_trace.len() as u64, out.rounds);
    }

    /// Push-max estimates only ever move towards the maximum, the coverage
    /// trace is monotone, and the message trace is non-decreasing.
    #[test]
    fn push_max_invariants(n in 4usize..400, seed in 0u64..10_000, pull in proptest::bool::ANY) {
        let vals = values(n, seed);
        let mut net = Network::new(SimConfig::new(n).with_seed(seed));
        let cfg = PushMaxConfig { pull, stop_at_full_coverage: true, ..PushMaxConfig::default() };
        let out = push_max(&mut net, &vals, &cfg);
        let true_max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(out.true_max, true_max);
        for v in net.alive_nodes() {
            prop_assert!(out.estimates[v.index()] <= true_max);
        }
        for w in out.coverage_trace.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        for w in out.message_trace.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    /// Efficient gossip produces finite estimates for every alive node and
    /// its group structure covers all alive nodes exactly once.
    #[test]
    fn efficient_gossip_invariants(n in 8usize..400, seed in 0u64..10_000, loss in 0.0f64..0.1) {
        let vals = values(n, seed);
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let out = efficient_gossip_average(&mut net, &vals, &EfficientGossipConfig::default());
        prop_assert!(out.num_groups >= 1);
        let phase_msgs: u64 = out.phases.iter().map(|p| p.messages).sum();
        prop_assert_eq!(phase_msgs, out.messages);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in net.alive_nodes() {
            let est = out.estimates[v.index()];
            prop_assert!(est.is_finite());
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
        }
    }

    /// Rumor spreading informs a monotonically growing set and never counts
    /// a transmission without an informed endpoint.
    #[test]
    fn rumor_invariants(n in 4usize..500, seed in 0u64..10_000, loss in 0.0f64..0.2) {
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let source = NodeId::new((seed as usize) % n);
        let out = spread_rumor(&mut net, source);
        for w in out.coverage_trace.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        prop_assert!(out.informed[source.index()]);
        prop_assert!(out.informed_fraction <= 1.0);
        // Every rumor transmission needs at least one informed node, so there
        // can be no messages at all only if nothing was ever informed.
        if out.rumor_messages == 0 {
            prop_assert!(out.informed_fraction <= 1.0 / net.alive_count().max(1) as f64 + 1e-9);
        }
    }
}
