//! E16 — Latency-tail cost of round-synchronous gossip.
//!
//! Round counts are the paper's time metric, but in a deployment a round is
//! only as fast as its slowest message. This experiment runs DRR-gossip-max
//! on [`ShardedTransport`] with three latency models of **equal median** —
//! constant, uniform and log-normal with increasing σ — and measures what
//! the round-barrier actually costs in virtual time:
//!
//! * rounds (identical across models by construction: same protocol, and
//!   the RNG draws for latency do not perturb protocol-level choices of the
//!   constant model — they do for the others, so rounds may wobble),
//! * delivered-latency p50/p99 (the per-message view),
//! * virtual completion time and its ratio to the constant-latency ideal
//!   (the straggler tax of `RoundPolicy::Stretch`), and
//! * the late-drop fraction when the same workloads run under a fixed
//!   per-round deadline at 4× the median instead.

use super::ExperimentOptions;
use gossip_analysis::{fmt_float, fmt_mean_or_dash, Summary, Table};
use gossip_drr::protocol::{drr_gossip_max, DrrGossipConfig};
use gossip_net::SimConfig;
use gossip_runtime::{AsyncConfig, LatencyModel, RoundPolicy, ShardedTransport, SweepRunner};

const MEDIAN_US: f64 = 1_000.0;

fn models() -> Vec<(&'static str, LatencyModel)> {
    vec![
        ("constant", LatencyModel::Constant(MEDIAN_US as u64)),
        (
            "uniform ±50%",
            LatencyModel::Uniform {
                lo_us: (MEDIAN_US * 0.5) as u64,
                hi_us: (MEDIAN_US * 1.5) as u64,
            },
        ),
        (
            "log-normal σ=0.5",
            LatencyModel::LogNormal {
                median_us: MEDIAN_US,
                sigma: 0.5,
            },
        ),
        (
            "log-normal σ=1.0",
            LatencyModel::LogNormal {
                median_us: MEDIAN_US,
                sigma: 1.0,
            },
        ),
        (
            "log-normal σ=1.5",
            LatencyModel::LogNormal {
                median_us: MEDIAN_US,
                sigma: 1.5,
            },
        ),
    ]
}

struct TailOutcome {
    rounds: f64,
    p50_us: f64,
    p99_us: f64,
    virtual_ms: f64,
    late_fraction: f64,
}

fn one_trial(n: usize, seed: u64, latency: LatencyModel, policy: RoundPolicy) -> TailOutcome {
    let vals: Vec<f64> = (0..n).map(|i| ((i * 37) % 1009) as f64).collect();
    let config = AsyncConfig::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(0.02)
            .with_value_range(1009.0),
    )
    .with_latency(latency)
    .with_link_spread(0.2)
    .with_round_policy(policy);
    // One shard per trial: the sweep already fans trials out over the cores.
    let mut engine = ShardedTransport::new(config, 1);
    let report = drr_gossip_max(&mut engine, &vals, &DrrGossipConfig::paper());
    let am = engine.async_metrics();
    let sent = engine.now_us();
    let total = report.total_messages.max(1);
    TailOutcome {
        rounds: report.total_rounds as f64,
        p50_us: am.latency.quantile(0.5) as f64,
        p99_us: am.latency.quantile(0.99) as f64,
        virtual_ms: sent as f64 / 1_000.0,
        late_fraction: am.late_drops as f64 / total as f64,
    }
}

/// Run E16.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let n = options.showcase_n();
    let seeds = SweepRunner::trial_seeds(0x01A7_E9C1, options.trials() as usize);
    let runner = SweepRunner::new();

    let mut table = Table::new(
        format!("E16 — latency tail vs round-barrier cost (n = {n}, equal medians)"),
        &[
            "latency model",
            "rounds",
            "p50 µs",
            "p99 µs",
            "virtual ms (stretch)",
            "vs constant",
            "late frac @4×median deadline",
        ],
    );

    let model_list = models();
    let stretch = runner.run_grid(&model_list, &seeds, |&(_, latency), seed| {
        one_trial(n, seed, latency, RoundPolicy::Stretch)
    });
    let deadline = runner.run_grid(&model_list, &seeds, |&(_, latency), seed| {
        one_trial(
            n,
            seed,
            latency,
            RoundPolicy::FixedDeadline((MEDIAN_US * 4.0) as u64),
        )
    });

    // NaN-sentinel safe: a cell whose every trial is "not measured" must
    // render "—", and a stray sentinel must not poison the column mean
    // (Summary::of would panic on it; of_finite drops it).
    let mean = |cell: &[TailOutcome], f: &dyn Fn(&TailOutcome) -> f64| {
        Summary::of_finite(cell.iter().map(f)).mean
    };
    let t = seeds.len();
    let baseline_ms = mean(&stretch[0..t], &|o| o.virtual_ms);
    for (mi, (name, _)) in model_list.iter().enumerate() {
        let s_cell = &stretch[mi * t..(mi + 1) * t];
        let d_cell = &deadline[mi * t..(mi + 1) * t];
        let virtual_ms = mean(s_cell, &|o| o.virtual_ms);
        table.push_row(vec![
            name.to_string(),
            fmt_mean_or_dash(s_cell.iter().map(|o| o.rounds)),
            fmt_mean_or_dash(s_cell.iter().map(|o| o.p50_us)),
            fmt_mean_or_dash(s_cell.iter().map(|o| o.p99_us)),
            fmt_float(virtual_ms),
            format!("{:.2}x", virtual_ms / baseline_ms.max(f64::MIN_POSITIVE)),
            fmt_mean_or_dash(d_cell.iter().map(|o| o.late_fraction)),
        ]);
    }
    table.push_note(
        "all models share a 1 ms median: the whole spread in wall-clock cost is tail-induced \
         (rounds stretch to their slowest message)",
    );
    table.push_note(
        "under a fixed 4 ms deadline the tail shows up as late-dropped messages instead",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_table_with_one_row_per_model() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), models().len());
    }

    #[test]
    fn heavier_tails_cost_more_virtual_time_at_equal_median() {
        let constant = one_trial(
            1 << 10,
            3,
            LatencyModel::Constant(1_000),
            RoundPolicy::Stretch,
        );
        let heavy = one_trial(
            1 << 10,
            3,
            LatencyModel::LogNormal {
                median_us: 1_000.0,
                sigma: 1.5,
            },
            RoundPolicy::Stretch,
        );
        assert!(
            heavy.virtual_ms > 2.0 * constant.virtual_ms,
            "heavy {} vs constant {}",
            heavy.virtual_ms,
            constant.virtual_ms
        );
        assert!(heavy.p99_us > 3.0 * heavy.p50_us);
        assert_eq!(constant.late_fraction, 0.0);
    }
}
