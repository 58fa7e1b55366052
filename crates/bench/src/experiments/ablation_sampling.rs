//! E14 — ablation of the Gossip-max sampling procedure.
//!
//! The gossip procedure alone only guarantees that a *constant fraction* of
//! the roots learn the maximum (Theorem 5), because roots are selected with
//! probability proportional to their tree size. The sampling procedure is
//! what lifts this to *all* roots whp (Theorem 6). Disabling it shows the
//! consensus gap it closes, at various loss rates.

use super::ExperimentOptions;
use gossip_analysis::{fmt_float, Sweep, Table};
use gossip_drr::convergecast::{convergecast_max, ReceptionModel};
use gossip_drr::drr::{run_drr, DrrConfig};
use gossip_drr::gossip_max::{gossip_max, GossipMaxConfig};
use gossip_net::{Network, SimConfig, Transport};

fn one_trial(n: usize, seed: u64, loss: f64, run_sampling: bool) -> (f64, f64) {
    let mut net = Network::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(loss)
            .with_value_range(10_000.0),
    );
    let values = gossip_aggregate::ValueDistribution::Uniform {
        lo: 0.0,
        hi: 10_000.0,
    }
    .generate(n, seed ^ 0x5a5a);
    let drr = run_drr(&mut net, &DrrConfig::paper());
    let cc = convergecast_max(
        &mut net,
        &drr.forest,
        &values,
        ReceptionModel::OneCallPerRound,
    );
    let before = net.metrics().total_messages();
    let cfg = GossipMaxConfig { run_sampling };
    let out = gossip_max(&mut net, &drr.forest, &cc.state, &cfg);
    let messages = (net.metrics().total_messages() - before) as f64;
    (out.fraction_after_sampling, messages)
}

/// Run E14.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let n = options.showcase_n();
    let trials = options.trials();
    let mut table = Table::new(
        format!("E14 — Gossip-max with and without the sampling procedure (n = {n})"),
        &[
            "loss δ",
            "frac roots w/ Max (no sampling)",
            "frac roots w/ Max (with sampling)",
            "phase-III msgs (no sampling)",
            "phase-III msgs (with sampling)",
        ],
    );
    for &loss in &[0.0, 0.05, 0.10, 0.20] {
        let sweep = Sweep::over(vec![n], trials).with_base_seed(0x5a11 + (loss * 1000.0) as u64);
        let result = sweep.run(|n, seed| {
            let (frac_without, msgs_without) = one_trial(n, seed, loss, false);
            let (frac_with, msgs_with) = one_trial(n, seed.wrapping_add(1 << 32), loss, true);
            vec![
                ("frac_without".to_string(), frac_without),
                ("frac_with".to_string(), frac_with),
                ("msgs_without".to_string(), msgs_without),
                ("msgs_with".to_string(), msgs_with),
            ]
        });
        let p = &result.points[0];
        table.push_row(vec![
            format!("{loss}"),
            fmt_float(p.metrics["frac_without"].mean),
            fmt_float(p.metrics["frac_with"].mean),
            fmt_float(p.metrics["msgs_without"].mean),
            fmt_float(p.metrics["msgs_with"].mean),
        ]);
    }
    table.push_note("Theorem 5: gossip alone reaches a constant fraction; Theorem 6: the O(n)-message sampling procedure completes the consensus");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_covers_loss_rates() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), 4);
    }
}
