//! E17 — Continuous anti-entropy aggregation: staleness and rejoin
//! recovery vs churn rate.
//!
//! The one-shot experiments (E1–E16) measure a protocol that runs once and
//! stops; rejoiners stay `Stale` forever (E15's stale-fraction column).
//! E17 measures the subsystem built to close that gap: the event-driven
//! anti-entropy layer of `gossip-ae`, tracking a **drifting** signal under
//! **ongoing churn**. Per churn rate, over several seeds:
//!
//! * **staleness** — relative error of alive nodes' estimates against the
//!   exact current mean of the signal over the alive set (mean and p99
//!   across nodes and sampling points, sampled every tick);
//! * **rejoin recovery** — for every churn-produced rejoin, the number of
//!   anti-entropy ticks until the node's estimate re-entered the 1% band
//!   around the fully-synced reference estimate (see
//!   `gossip_ae::recovery`): count measured, share recovered, mean and max
//!   ticks;
//! * **msgs/node/tick** — the steady-state cost of the layer.
//!
//! Staleness is judged against ground truth (so the unavoidable
//! membership-detection floor under churn is visible), recovery against
//! the reference estimate (so it isolates re-sync speed, anti-entropy's
//! actual job). Ticks drive everything: the churn window, the sampling
//! cadence and the recovery unit are all one tick, which is what makes
//! "recovers within k ticks" a well-defined, backend-independent claim.

use super::ExperimentOptions;
use gossip_ae::{
    ae_driver, AeConfig, RecoveryOutcome, RecoveryTracker, SignalModel, RECOVERY_BOUND_TICKS,
};
use gossip_analysis::{fmt_mean_or_dash, Summary, Table};
use gossip_net::SimConfig;
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, SweepRunner};

/// Per-tick crash rates swept by the experiment (rejoin rate is fixed).
const CHURN_RATES: [f64; 4] = [0.0, 0.005, 0.01, 0.02];
/// Per-tick rejoin probability for dead nodes.
const REJOIN_RATE: f64 = 0.25;
/// Relative-error band for "recovered".
const RECOVERY_BAND: f64 = 0.01;

struct TrialOutcome {
    mean_staleness: f64,
    p99_staleness: f64,
    rejoins: f64,
    recovered_fraction: f64,
    mean_recovery_ticks: f64,
    max_recovery_ticks: f64,
    msgs_per_node_tick: f64,
}

fn ae_config() -> AeConfig {
    AeConfig::default().with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(1_000.0))
}

fn one_trial(n: usize, seed: u64, crash_rate: f64, ticks: u64) -> TrialOutcome {
    let ae = ae_config();
    let engine = AsyncConfig::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(0.02)
            .with_value_range(10_000.0),
    )
    .with_latency(LatencyModel::LogNormal {
        median_us: 800.0,
        sigma: 0.7,
    })
    .with_link_spread(0.2)
    .with_churn(ChurnModel::per_round(crash_rate, REJOIN_RATE).with_min_alive(n / 2));
    // One shard per trial: the sweep already fans trials out over the cores.
    let mut driver = ae_driver(engine, ae, 1);
    let mut tracker = RecoveryTracker::new(RECOVERY_BAND, ae.expiry_us);

    // The first quarter of the run is boot transient (stores still filling
    // from nothing); staleness is sampled after it, recovery tracking from
    // the start (rejoins during warmup are real rejoins).
    let warmup = ticks / 4;
    let mut staleness: Vec<f64> = Vec::new();
    for k in 1..=ticks {
        driver.run_until(k * ae.tick_us);
        tracker.observe(&driver);
        if k <= warmup {
            continue;
        }
        let now = driver.now_us();
        let alive: Vec<_> = driver.alive_nodes().collect();
        let truth = ae
            .signal
            .true_mean(alive.iter().copied(), now)
            .expect("min_alive keeps the network populated");
        for &v in &alive {
            // Every alive node holds at least its own fresh entry (on_start
            // and the update timer re-stamp it), so an estimate always
            // exists; staleness is the whole story.
            let est = driver
                .handler(v)
                .estimate(now)
                .expect("alive nodes always hold their own fresh entry");
            staleness.push(((est - truth) / truth).abs());
        }
    }

    let records = tracker.finish();
    let mut recovery_ticks: Vec<f64> = Vec::new();
    let mut unrecovered = 0usize;
    for record in &records {
        match record.outcome {
            RecoveryOutcome::Recovered { ticks } => recovery_ticks.push(ticks as f64),
            // Crashing again mid-recovery is churn's business; running out
            // of tape with plenty of ticks left would be the protocol's.
            RecoveryOutcome::CrashedAgain { .. } => {}
            RecoveryOutcome::Unresolved { ticks_observed } => {
                if ticks_observed >= RECOVERY_BOUND_TICKS {
                    unrecovered += 1;
                }
            }
        }
    }
    let measurable = recovery_ticks.len() + unrecovered;
    staleness.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let p99 = staleness
        .get((staleness.len().saturating_sub(1)) * 99 / 100)
        .copied()
        .unwrap_or(f64::NAN);
    let recovery = Summary::of(&recovery_ticks);

    TrialOutcome {
        mean_staleness: Summary::of(&staleness).mean,
        p99_staleness: p99,
        rejoins: records.len() as f64,
        recovered_fraction: if measurable == 0 {
            f64::NAN
        } else {
            recovery_ticks.len() as f64 / measurable as f64
        },
        mean_recovery_ticks: if recovery_ticks.is_empty() {
            f64::NAN // no recoveries to average — render "—", not 0 ticks
        } else {
            recovery.mean
        },
        max_recovery_ticks: recovery_ticks.iter().copied().fold(f64::NAN, f64::max),
        msgs_per_node_tick: driver.net_metrics().total_messages() as f64
            / (n as f64 * ticks as f64),
    }
}

/// Run E17.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let n = if options.quick { 1 << 8 } else { 1 << 10 };
    let ticks = if options.quick { 60 } else { 120 };
    let seeds = SweepRunner::trial_seeds(0xE17_5EED, options.trials() as usize);
    let runner = SweepRunner::new();
    let mut table = Table::new(
        format!(
            "E17 — anti-entropy continuous aggregation (n = {n}, {ticks} ticks, drifting \
             signal, log-normal latency, rejoin = {REJOIN_RATE}/tick)"
        ),
        &[
            "crash/tick",
            "staleness mean",
            "staleness p99",
            "rejoins",
            "recovered",
            "ticks mean",
            "ticks max",
            "msgs/node/tick",
        ],
    );
    let outcomes = runner.run_grid(&CHURN_RATES, &seeds, |&crash_rate, seed| {
        one_trial(n, seed, crash_rate, ticks)
    });
    for (ci, &crash_rate) in CHURN_RATES.iter().enumerate() {
        let cell = &outcomes[ci * seeds.len()..(ci + 1) * seeds.len()];
        // NaN is the no-data sentinel (e.g. no rejoins at zero churn);
        // fmt_mean_or_dash keeps it from rendering as a measured 0.
        let mean = |f: &dyn Fn(&TrialOutcome) -> f64| fmt_mean_or_dash(cell.iter().map(f));
        table.push_row(vec![
            format!("{:.1}%", crash_rate * 100.0),
            mean(&|t| t.mean_staleness),
            mean(&|t| t.p99_staleness),
            mean(&|t| t.rejoins),
            mean(&|t| t.recovered_fraction),
            mean(&|t| t.mean_recovery_ticks),
            mean(&|t| t.max_recovery_ticks),
            mean(&|t| t.msgs_per_node_tick),
        ]);
    }
    table.push_note(
        "staleness: |estimate − true current mean over alive nodes| / truth, sampled every \
         tick over all alive, informed nodes (mean of per-trial means)",
    );
    table.push_note(
        "recovered: share of measurable rejoins whose estimate re-entered the 1% band around \
         the fully-synced reference estimate; ticks = anti-entropy intervals to get there \
         (re-crashed rejoiners are churn's business and aren't counted against the protocol)",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_table_with_all_churn_rows() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), CHURN_RATES.len());
    }

    #[test]
    fn acceptance_rejoiners_recover_quickly_and_estimates_stay_tight() {
        // The E17 acceptance criterion at one grid point: 1%/tick churn.
        let out = one_trial(1 << 8, 17, 0.01, 60);
        assert!(out.rejoins > 0.0, "churn produced rejoins");
        assert!(
            out.recovered_fraction > 0.99,
            "recovered = {}",
            out.recovered_fraction
        );
        assert!(
            out.max_recovery_ticks <= RECOVERY_BOUND_TICKS as f64,
            "slowest recovery took {} ticks",
            out.max_recovery_ticks
        );
        assert!(
            out.mean_staleness < 0.05,
            "staleness = {}",
            out.mean_staleness
        );
    }

    #[test]
    fn trials_are_deterministic() {
        let fingerprint = |t: &TrialOutcome| {
            (
                t.mean_staleness.to_bits(),
                t.rejoins.to_bits(),
                t.mean_recovery_ticks.to_bits(),
                t.msgs_per_node_tick.to_bits(),
            )
        };
        let a = one_trial(1 << 7, 5, 0.02, 40);
        let b = one_trial(1 << 7, 5, 0.02, 40);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
