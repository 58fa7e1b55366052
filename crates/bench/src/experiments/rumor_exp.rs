//! E11 — rumor spreading vs aggregation (the Karp et al. reference point).
//!
//! Karp et al.'s push&pull rumor spreading finishes in `O(log n)` rounds with
//! `O(n log log n)` rumor transmissions; Theorem 15 shows address-oblivious
//! *aggregation* needs `Ω(n log n)` messages. Measuring both on the same
//! simulator exhibits the separation and also shows that DRR-gossip brings
//! aggregation back down to the rumor-spreading message scale by giving up
//! address-obliviousness.

use super::ExperimentOptions;
use gossip_analysis::{best_fit, fmt_float, ComplexityModel, Sweep, Table};
use gossip_baselines::{push_max, spread_rumor, PushMaxConfig};
use gossip_drr::protocol::{drr_gossip_max, DrrGossipConfig};
use gossip_net::{Network, NodeId, SimConfig};

fn one_trial(n: usize, seed: u64) -> Vec<(String, f64)> {
    let mut obs = Vec::new();

    // Rumor spreading (push&pull with counters).
    let mut net = Network::new(SimConfig::new(n).with_seed(seed));
    let rumor = spread_rumor(&mut net, NodeId::new(0));
    obs.push(("rumor_rounds".to_string(), rumor.rounds as f64));
    obs.push(("rumor_messages".to_string(), rumor.rumor_messages as f64));

    // Address-oblivious aggregation of Max (uniform push until coverage).
    let values =
        gossip_aggregate::ValueDistribution::SingleOutlier { value: 1.0 }.generate(n, seed);
    let mut net = Network::new(SimConfig::new(n).with_seed(seed));
    let agg = push_max(
        &mut net,
        &values,
        &PushMaxConfig {
            stop_at_full_coverage: true,
            rounds_factor: 12.0,
            ..PushMaxConfig::default()
        },
    );
    obs.push(("oblivious_agg_rounds".to_string(), agg.rounds as f64));
    obs.push(("oblivious_agg_messages".to_string(), agg.messages as f64));

    // Non-address-oblivious aggregation (DRR-gossip-max).
    let mut net = Network::new(SimConfig::new(n).with_seed(seed));
    let drr = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
    obs.push(("drr_messages".to_string(), drr.total_messages as f64));
    obs
}

/// Run E11.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let sweep = Sweep::over(options.scaling_sizes(), options.trials().min(5));
    let result = sweep.run(one_trial);

    let mut table = Table::new(
        "E11 — rumor spreading vs aggregation (messages to completion)",
        &[
            "n",
            "rumor rounds",
            "rumor msgs",
            "rumor / (n log log n)",
            "oblivious-agg msgs",
            "oblivious-agg / (n log n)",
            "DRR-gossip-max msgs",
        ],
    );
    for p in &result.points {
        let n = p.n as f64;
        let g = |m: &str| p.metrics[m].mean;
        table.push_row(vec![
            p.n.to_string(),
            fmt_float(g("rumor_rounds")),
            fmt_float(g("rumor_messages")),
            fmt_float(g("rumor_messages") / (n * n.log2().log2())),
            fmt_float(g("oblivious_agg_messages")),
            fmt_float(g("oblivious_agg_messages") / (n * n.log2())),
            fmt_float(g("drr_messages")),
        ]);
    }
    let rumor_fit = best_fit(
        &result.series("rumor_messages"),
        &ComplexityModel::MESSAGE_MODELS,
    );
    let agg_fit = best_fit(
        &result.series("oblivious_agg_messages"),
        &ComplexityModel::MESSAGE_MODELS,
    );
    table.push_note(format!(
        "best fits — rumor spreading: {} (claim: n log log n); address-oblivious aggregation: {} (claim: n log n)",
        rumor_fit.model, agg_fit.model
    ));
    table.push_note(
        "aggregation is strictly harder than rumor spreading in the address-oblivious model",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rumor_table_renders() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 1);
        assert!(tables[0].render().contains("rumor"));
    }
}
