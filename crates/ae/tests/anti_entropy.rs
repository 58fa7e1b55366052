//! The E17 acceptance scenario as a test: under ongoing churn, a rejoined
//! node's estimate recovers to within 1% within a bounded number of
//! anti-entropy ticks — and the whole measurement is a pure function of
//! the seed, invariant under sweep-runner thread counts.

use gossip_ae::{
    ae_driver, AeConfig, AeNode, RecoveryOutcome, RecoveryTracker, SignalModel,
    RECOVERY_BOUND_TICKS,
};
use gossip_net::SimConfig;
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver, SweepRunner};

const N: usize = 96;
const TICKS: u64 = 100;

fn scenario(seed: u64, crash_rate: f64) -> (ShardedDriver<AeNode>, AeConfig) {
    let engine = AsyncConfig::new(
        SimConfig::new(N)
            .with_seed(seed)
            .with_loss_prob(0.02)
            .with_value_range(10_000.0),
    )
    .with_latency(LatencyModel::LogNormal {
        median_us: 800.0,
        sigma: 0.6,
    })
    .with_link_spread(0.2)
    .with_churn(ChurnModel::per_round(crash_rate, 0.25).with_min_alive(N / 2));
    let ae = AeConfig::default()
        .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(1_000.0));
    (ae_driver(engine, ae, 1), ae)
}

/// Run the scenario for `TICKS` ticks, observing recoveries every tick.
fn run(seed: u64, crash_rate: f64) -> (Vec<(usize, u64, Option<u64>)>, u64) {
    let (mut driver, ae) = scenario(seed, crash_rate);
    let mut tracker = RecoveryTracker::new(0.01, ae.expiry_us);
    for k in 1..=TICKS {
        driver.run_until(k * ae.tick_us);
        tracker.observe(&driver);
    }
    let records = tracker
        .finish()
        .into_iter()
        .map(|r| {
            let recovered = match r.outcome {
                RecoveryOutcome::Recovered { ticks } => Some(ticks),
                _ => None,
            };
            (r.node.index(), r.rejoined_at_us, recovered)
        })
        .collect();
    (records, driver.order_hash())
}

#[test]
fn rejoiners_recover_within_the_tick_bound_under_ongoing_churn() {
    let (records, _) = run(42, 0.01);
    let mut measurable = 0;
    for &(node, rejoined_at, recovered) in &records {
        // Only rejoins with the full bound's worth of run left are
        // measurable; later ones may simply have run out of tape (they are
        // `Unresolved`, not failures).
        let remaining_ticks = TICKS.saturating_sub(rejoined_at / AeConfig::default().tick_us);
        if remaining_ticks < RECOVERY_BOUND_TICKS {
            continue;
        }
        // A `None` here is a node that crashed again before recovering —
        // churn's prerogative, not a protocol failure.
        if let Some(ticks) = recovered {
            measurable += 1;
            assert!(
                ticks <= RECOVERY_BOUND_TICKS,
                "node {node} rejoined at {rejoined_at}µs took {ticks} ticks"
            );
        }
    }
    assert!(
        measurable >= 3,
        "scenario produced only {measurable} measurable recoveries"
    );
}

#[test]
fn recovery_measurements_reproduce_bit_for_bit() {
    assert_eq!(run(7, 0.01), run(7, 0.01));
    let (_, hash_a) = run(7, 0.01);
    let (_, hash_b) = run(8, 0.01);
    assert_ne!(hash_a, hash_b, "different seeds schedule differently");
}

#[test]
fn sweeping_the_scenario_is_thread_count_invariant() {
    let seeds = SweepRunner::trial_seeds(0xE17, 6);
    let rates = [0.005, 0.02];
    let sweep = |threads| {
        SweepRunner::with_threads(threads).run_grid(&rates, &seeds, |&rate, seed| run(seed, rate))
    };
    let one = sweep(1);
    assert_eq!(one, sweep(2));
    assert_eq!(one, sweep(8));
}
