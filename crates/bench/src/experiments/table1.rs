//! E1 — Table 1: DRR-gossip vs uniform gossip vs efficient gossip.
//!
//! The paper's Table 1 compares the three protocols analytically:
//!
//! | algorithm              | time             | messages         | address-oblivious |
//! |------------------------|------------------|------------------|-------------------|
//! | efficient gossip \[8\] | O(log n log log n) | O(n log log n) | no |
//! | uniform gossip \[9\]   | O(log n)         | O(n log n)       | yes |
//! | DRR-gossip (paper)     | O(log n)         | O(n log log n)   | no |
//!
//! This experiment measures all three on the same simulator computing the
//! same Average aggregate over the same workloads, reporting measured rounds
//! and messages per `n`, the best-fitting growth model for each, and the
//! message ratio of uniform gossip to DRR-gossip (which should grow like
//! `log n / log log n`).

use super::ExperimentOptions;
use gossip_analysis::{best_fit, fmt_float, ComplexityModel, Sweep, Table};
use gossip_baselines::{
    efficient_gossip_average, push_max, push_sum_average, EfficientGossipConfig, PushMaxConfig,
    PushSumConfig,
};
use gossip_drr::gossip_ave::GossipAveConfig;
use gossip_drr::protocol::{drr_gossip_ave, drr_gossip_max, DrrGossipConfig};
use gossip_net::{Network, SimConfig};

const LOSS: f64 = 0.05;

fn workload(n: usize, seed: u64) -> Vec<f64> {
    gossip_aggregate::ValueDistribution::Uniform {
        lo: 0.0,
        hi: 1000.0,
    }
    .generate(n, seed)
}

fn net(n: usize, seed: u64) -> Network {
    Network::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(LOSS)
            .with_value_range(1000.0),
    )
}

/// The accuracy target of Theorem 7 / Kempe et al.: relative error ε = 1/n.
/// Both average protocols are configured against the same target so the
/// message comparison is fair.
fn epsilon(n: usize) -> f64 {
    1.0 / n as f64
}

fn drr_config(n: usize) -> DrrGossipConfig {
    DrrGossipConfig {
        gossip_ave: GossipAveConfig {
            rounds_factor: 1.0,
            epsilon: epsilon(n),
        },
        ..DrrGossipConfig::paper()
    }
}

/// Run E1.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let sweep = Sweep::over(options.scaling_sizes(), options.trials());

    let result = sweep.run(|n, seed| {
        let values = workload(n, seed);
        let mut obs = Vec::new();

        let mut network = net(n, seed);
        let drr = drr_gossip_ave(&mut network, &values, &drr_config(n));
        obs.push(("drr_rounds".to_string(), drr.total_rounds as f64));
        obs.push(("drr_messages".to_string(), drr.total_messages as f64));
        obs.push(("drr_error".to_string(), drr.max_relative_error()));

        let mut network = net(n, seed);
        let uniform = push_sum_average(
            &mut network,
            &values,
            &PushSumConfig {
                epsilon: epsilon(n),
            },
        );
        obs.push(("uniform_rounds".to_string(), uniform.rounds as f64));
        obs.push(("uniform_messages".to_string(), uniform.messages as f64));
        obs.push(("uniform_error".to_string(), uniform.max_relative_error()));

        let mut network = net(n, seed);
        let efficient = efficient_gossip_average(
            &mut network,
            &values,
            &EfficientGossipConfig {
                epsilon: epsilon(n),
            },
        );
        obs.push(("efficient_rounds".to_string(), efficient.rounds as f64));
        obs.push(("efficient_messages".to_string(), efficient.messages as f64));
        obs.push((
            "efficient_error".to_string(),
            efficient.max_relative_error(),
        ));

        // Max head-to-head: DRR-gossip-max vs uniform (address-oblivious) push.
        let mut network = net(n, seed);
        let drr_max = drr_gossip_max(&mut network, &values, &DrrGossipConfig::paper());
        obs.push((
            "drr_max_messages".to_string(),
            drr_max.total_messages as f64,
        ));
        obs.push(("drr_max_rounds".to_string(), drr_max.total_rounds as f64));
        let mut network = net(n, seed);
        let push = push_max(&mut network, &values, &PushMaxConfig::default());
        obs.push(("push_max_messages".to_string(), push.messages as f64));
        obs.push(("push_max_rounds".to_string(), push.rounds as f64));

        obs
    });

    let mut per_n = Table::new(
        "E1 / Table 1 — measured rounds and messages (Average, δ=0.05)",
        &[
            "n",
            "drr rounds",
            "drr msgs",
            "uniform rounds",
            "uniform msgs",
            "efficient rounds",
            "efficient msgs",
            "uniform/drr msg ratio",
        ],
    );
    for point in &result.points {
        let g = |m: &str| point.metrics[m].mean;
        per_n.push_row(vec![
            point.n.to_string(),
            fmt_float(g("drr_rounds")),
            fmt_float(g("drr_messages")),
            fmt_float(g("uniform_rounds")),
            fmt_float(g("uniform_messages")),
            fmt_float(g("efficient_rounds")),
            fmt_float(g("efficient_messages")),
            fmt_float(g("uniform_messages") / g("drr_messages")),
        ]);
    }
    per_n.push_note(format!(
        "{} trials per size; all protocols compute Average of the same uniform workload to the same ε = 1/n target",
        result.points.first().map_or(0, |p| p.metrics["drr_rounds"].count)
    ));

    let mut max_table = Table::new(
        "E1 — Max head-to-head: DRR-gossip-max vs address-oblivious push gossip",
        &[
            "n",
            "drr-max rounds",
            "drr-max msgs",
            "push-max rounds",
            "push-max msgs",
            "push/drr msg ratio",
        ],
    );
    for point in &result.points {
        let g = |m: &str| point.metrics[m].mean;
        max_table.push_row(vec![
            point.n.to_string(),
            fmt_float(g("drr_max_rounds")),
            fmt_float(g("drr_max_messages")),
            fmt_float(g("push_max_rounds")),
            fmt_float(g("push_max_messages")),
            fmt_float(g("push_max_messages") / g("drr_max_messages")),
        ]);
    }
    max_table.push_note(
        "DRR-gossip-max: O(n log log n) messages; uniform push: Θ(n log n) (Theorem 15 floor)",
    );

    let mut fits = Table::new(
        "E1 — best-fitting growth models (paper claims in parentheses)",
        &[
            "algorithm",
            "time fit (claim)",
            "message fit (claim)",
            "max rel. error",
        ],
    );
    let fit_row = |name: &str,
                   rounds_metric: &str,
                   msgs_metric: &str,
                   err_metric: &str,
                   time_claim: &str,
                   msg_claim: &str,
                   fits: &mut Table| {
        let time = best_fit(&result.series(rounds_metric), &ComplexityModel::TIME_MODELS);
        let msgs = best_fit(
            &result.series(msgs_metric),
            &ComplexityModel::MESSAGE_MODELS,
        );
        let worst_err = result
            .points
            .iter()
            .map(|p| p.metrics[err_metric].max)
            .fold(0.0f64, f64::max);
        fits.push_row(vec![
            name.to_string(),
            format!("{} (claim: {time_claim})", time.model),
            format!("{} (claim: {msg_claim})", msgs.model),
            fmt_float(worst_err),
        ]);
    };
    fit_row(
        "DRR-gossip [this paper]",
        "drr_rounds",
        "drr_messages",
        "drr_error",
        "log n",
        "n log log n",
        &mut fits,
    );
    fit_row(
        "uniform gossip [9]",
        "uniform_rounds",
        "uniform_messages",
        "uniform_error",
        "log n",
        "n log n",
        &mut fits,
    );
    fit_row(
        "efficient gossip [8]",
        "efficient_rounds",
        "efficient_messages",
        "efficient_error",
        "log n log log n",
        "n log log n",
        &mut fits,
    );
    fits.push_note(
        "address-oblivious: uniform gossip = yes; DRR-gossip and efficient gossip = no (they forward by address)",
    );
    fits.push_note(
        "the DRR-gossip total blends the Θ(n log log n) DRR phase with Θ(n) tree/gossip phases whose constants dominate at these n, \
         so the total fits 'n'; the isolated DRR-phase fit (experiment drr-phase) recovers n log log n with r² ≈ 1",
    );

    vec![per_n, max_table, fits]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_tables() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 3);
        assert!(tables[0].num_rows() >= 3);
        assert_eq!(tables[2].num_rows(), 3);
        let rendered = tables[2].render();
        assert!(rendered.contains("DRR-gossip"));
        assert!(rendered.contains("uniform gossip"));
        assert!(rendered.contains("efficient gossip"));
    }
}
