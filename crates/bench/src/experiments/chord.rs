//! E9 — DRR-gossip vs uniform gossip on Chord (Section 4, Theorem 14).
//!
//! On a Chord overlay (degree `Θ(log n)`, lookups cost `T = M = Θ(log n)`),
//! the paper shows DRR-gossip takes `O(log² n)` time and `O(n log n)`
//! messages, while routed uniform gossip takes `O(log² n)` time and
//! `O(n log² n)` messages — a `log n` message gap. This experiment runs both
//! on the same overlays and checks the measured gap.

use super::ExperimentOptions;
use gossip_analysis::{best_fit, fmt_float, ComplexityModel, Sweep, Table};
use gossip_baselines::{routed_push_sum_average, PushSumConfig};
use gossip_drr::sparse::{sparse_drr_gossip_ave, SparseGossipConfig};
use gossip_net::{Network, SimConfig};
use gossip_topology::{ChordOverlay, ChordSampler};

fn one_trial(n: usize, seed: u64) -> Vec<(String, f64)> {
    let overlay = ChordOverlay::new(n);
    let graph = overlay.graph();
    let sampler = ChordSampler::new(&overlay);
    let values = gossip_aggregate::ValueDistribution::Uniform {
        lo: 0.0,
        hi: 1000.0,
    }
    .generate(n, seed ^ 0xc0de);

    let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_value_range(1000.0));
    let drr = sparse_drr_gossip_ave(&mut net, &graph, &sampler, &values, &SparseGossipConfig);

    let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_value_range(1000.0));
    let uniform = routed_push_sum_average(&mut net, &sampler, &values, &PushSumConfig::default());

    vec![
        ("drr_rounds".to_string(), drr.total_rounds as f64),
        ("drr_messages".to_string(), drr.total_messages as f64),
        ("drr_error".to_string(), drr.max_relative_error()),
        (
            "uniform_rounds".to_string(),
            uniform.rounds as f64 * gossip_net::id_bits(n) as f64,
        ),
        ("uniform_messages".to_string(), uniform.messages as f64),
        ("uniform_error".to_string(), uniform.max_relative_error()),
    ]
}

/// Run E9.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let sweep = Sweep::over(options.sparse_sizes(), options.trials().min(5));
    let result = sweep.run(one_trial);

    let mut table = Table::new(
        "E9 — Average on a Chord overlay: DRR-gossip vs routed uniform gossip",
        &[
            "n",
            "drr rounds",
            "drr msgs",
            "uniform rounds",
            "uniform msgs",
            "uniform/drr msg ratio",
            "log n",
        ],
    );
    for p in &result.points {
        let g = |m: &str| p.metrics[m].mean;
        table.push_row(vec![
            p.n.to_string(),
            fmt_float(g("drr_rounds")),
            fmt_float(g("drr_messages")),
            fmt_float(g("uniform_rounds")),
            fmt_float(g("uniform_messages")),
            fmt_float(g("uniform_messages") / g("drr_messages")),
            fmt_float((p.n as f64).log2()),
        ]);
    }
    let drr_fit = best_fit(
        &result.series("drr_messages"),
        &ComplexityModel::MESSAGE_MODELS,
    );
    let uni_fit = best_fit(
        &result.series("uniform_messages"),
        &ComplexityModel::MESSAGE_MODELS,
    );
    table.push_note(format!(
        "message fits — DRR-gossip: {} (claim: n log n); uniform gossip: {} (claim: n log^2 n); both take Θ(log^2 n) time",
        drr_fit.model, uni_fit.model
    ));
    table.push_note(format!(
        "accuracy — worst max relative error: DRR {} vs uniform {}",
        fmt_float(
            result
                .points
                .iter()
                .map(|p| p.metrics["drr_error"].max)
                .fold(0.0f64, f64::max)
        ),
        fmt_float(
            result
                .points
                .iter()
                .map(|p| p.metrics["uniform_error"].max)
                .fold(0.0f64, f64::max)
        ),
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chord_table_shows_message_gap() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 1);
        assert!(tables[0].num_rows() >= 3);
    }
}
