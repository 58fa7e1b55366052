//! Property-based tests over the full DRR-gossip protocols: for arbitrary
//! (small) network sizes, seeds, loss rates and workloads, the structural and
//! accounting invariants must always hold.

use gossip_drr::convergecast::{convergecast_sum, ReceptionModel};
use gossip_drr::drr::{run_drr, DrrConfig, ProbeBudget};
use gossip_drr::protocol::{drr_gossip_ave, drr_gossip_max, DrrGossipConfig};
use gossip_net::{Network, NodeId, SimConfig, Transport};
use proptest::prelude::*;

fn arbitrary_values(n: usize, magnitude: f64, seed: u64) -> Vec<f64> {
    // Deterministic pseudo-random values without pulling in extra deps.
    (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
            (unit - 0.5) * 2.0 * magnitude
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The DRR forest always partitions the node set, parents always outrank
    /// children, and the probe accounting never exceeds the budget.
    #[test]
    fn drr_forest_invariants(
        n in 2usize..400,
        seed in 0u64..10_000,
        loss in 0.0f64..0.3,
        budget in 1u32..6,
    ) {
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let cfg = DrrConfig { probe_budget: ProbeBudget::Fixed(budget) };
        let outcome = run_drr(&mut net, &cfg);
        let forest = &outcome.forest;
        // Partition: tree sizes add up to n.
        let total: usize = forest.tree_sizes().map(|(_, s)| s).sum();
        prop_assert_eq!(total, n);
        // Rank monotonicity along every edge, and probe budget respected.
        for i in 0..n {
            let v = NodeId::new(i);
            if let Some(p) = forest.parent(v) {
                prop_assert!(outcome.ranks.higher(p, v));
            }
            prop_assert!(outcome.probes_per_node[i] <= budget.max(1));
            // root_of resolves to an actual root
            prop_assert!(forest.is_root(forest.root_of(v)));
        }
        // Rounds: at most budget probe rounds + 1 connection round.
        prop_assert!(outcome.rounds <= u64::from(budget) + 1);
    }

    /// Convergecast-sum conserves the total mass exactly (no value is ever
    /// double-counted or dropped), whatever the loss rate, because lost
    /// messages are retransmitted.
    #[test]
    fn convergecast_conserves_mass(
        n in 2usize..300,
        seed in 0u64..10_000,
        loss in 0.0f64..0.25,
        magnitude in 1.0f64..1e4,
    ) {
        let values = arbitrary_values(n, magnitude, seed);
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let drr = run_drr(&mut net, &DrrConfig::paper());
        let cc = convergecast_sum(&mut net, &drr.forest, &values, ReceptionModel::OneCallPerRound);
        let mut collected_sum = 0.0;
        let mut collected_count = 0.0;
        for &root in drr.forest.roots() {
            if let Some(state) = cc.at_root(root) {
                collected_sum += state.sum;
                collected_count += state.count;
            }
        }
        let expected_sum: f64 = values.iter().sum();
        prop_assert!((collected_sum - expected_sum).abs() < 1e-6 * (1.0 + expected_sum.abs()));
        prop_assert_eq!(collected_count as usize, n);
    }

    /// The end-to-end Max protocol returns the true maximum as its `exact`
    /// reference, never produces estimates above it, and its phase accounting
    /// always adds up to the totals.
    #[test]
    fn drr_gossip_max_invariants(
        n in 8usize..400,
        seed in 0u64..10_000,
        loss in 0.0f64..0.2,
    ) {
        let values = arbitrary_values(n, 1000.0, seed ^ 0xbeef);
        let mut net = Network::new(
            SimConfig::new(n).with_seed(seed).with_loss_prob(loss).with_value_range(2000.0),
        );
        let report = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
        let true_max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(report.exact, true_max);
        for (i, &estimate) in report.estimates.iter().enumerate() {
            if report.alive[i] {
                prop_assert!(estimate <= true_max + 1e-9);
            }
        }
        let phase_msgs: u64 = report.phases.iter().map(|p| p.messages).sum();
        prop_assert_eq!(phase_msgs, report.total_messages);
        let phase_rounds: u64 = report.phases.iter().map(|p| p.rounds).sum();
        prop_assert_eq!(phase_rounds, report.total_rounds);
    }

    /// The end-to-end Average protocol's estimates always lie within the
    /// range of the input values (a convex combination can never escape it),
    /// and the message-size budget of the model is never exceeded.
    #[test]
    fn drr_gossip_ave_invariants(
        n in 8usize..400,
        seed in 0u64..10_000,
        loss in 0.0f64..0.15,
    ) {
        let values = arbitrary_values(n, 500.0, seed ^ 0x5eed);
        let mut net = Network::new(
            SimConfig::new(n).with_seed(seed).with_loss_prob(loss).with_value_range(1000.0),
        );
        let report = drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper());
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (i, &estimate) in report.estimates.iter().enumerate() {
            if report.alive[i] {
                prop_assert!(estimate >= lo - 1e-6 && estimate <= hi + 1e-6,
                    "estimate {estimate} escapes [{lo}, {hi}]");
            }
        }
        prop_assert!(net.metrics().max_message_bits() <= net.config().message_bit_budget());
    }
}
