//! E12 — per-phase message breakdown of DRR-gossip (Section 3.5).
//!
//! The paper argues that the total message complexity is dominated by
//! Phase I (the DRR algorithm, `O(n log log n)` messages), while every other
//! phase costs only `O(n)`. This experiment reports the per-phase split for
//! DRR-gossip-ave at a showcase size and across the scaling sweep.

use super::ExperimentOptions;
use gossip_analysis::{fmt_float, Sweep, Table};
use gossip_drr::protocol::{drr_gossip_ave, DrrGossipConfig};
use gossip_net::{Network, SimConfig};

const PHASES: [&str; 7] = [
    "drr",
    "convergecast",
    "broadcast-root",
    "size-election",
    "gossip-ave",
    "data-spread",
    "disseminate",
];

fn one_trial(n: usize, seed: u64) -> Vec<(String, f64)> {
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
    let report = drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper());
    let mut obs: Vec<(String, f64)> = PHASES
        .iter()
        .map(|&name| {
            (
                format!("msgs_{name}"),
                report.phase(name).map_or(0.0, |p| p.messages as f64),
            )
        })
        .collect();
    obs.push(("total".to_string(), report.total_messages as f64));
    obs
}

/// Run E12.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let sweep = Sweep::over(options.scaling_sizes(), options.trials());
    let result = sweep.run(one_trial);

    let mut absolute = Table::new(
        "E12 — DRR-gossip-ave: messages per phase",
        &[
            "n",
            "drr",
            "convergecast",
            "broadcast",
            "size-election",
            "gossip-ave",
            "data-spread",
            "disseminate",
            "total",
        ],
    );
    let mut share = Table::new(
        "E12 — DRR-gossip-ave: share of total messages per phase (%)",
        &[
            "n",
            "drr",
            "convergecast",
            "broadcast",
            "size-election",
            "gossip-ave",
            "data-spread",
            "disseminate",
        ],
    );
    for p in &result.points {
        let total = p.metrics["total"].mean;
        let per_phase: Vec<f64> = PHASES
            .iter()
            .map(|&name| p.metrics[&format!("msgs_{name}")].mean)
            .collect();
        let mut row = vec![p.n.to_string()];
        row.extend(per_phase.iter().map(|&m| fmt_float(m)));
        row.push(fmt_float(total));
        absolute.push_row(row);

        let mut row = vec![p.n.to_string()];
        row.extend(per_phase.iter().map(|&m| fmt_float(100.0 * m / total)));
        share.push_row(row);
    }
    share.push_note("Section 3.5: the size election and the data spread take the largest shares (about 27 % each, flat in n); DRR's share is the one that grows with n, since it is the only Θ(n log log n) phase");

    vec![absolute, share]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_has_two_tables() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 2);
        assert!(tables[0].render().contains("gossip-ave"));
    }
}
