//! Continuous aggregation with the event-driven anti-entropy layer: watch a
//! churned-and-rejoined node recover, tick by tick.
//!
//! ```text
//! cargo run --release --example anti_entropy [n] [seed]
//! ```
//!
//! Contrast with `async_gossip` (the one-shot DRR pipeline, where rejoiners
//! finish `Stale`): here the protocol never stops — every node keeps
//! reconciling digests with random peers while the input signal drifts and
//! churn keeps killing and reviving nodes — so staleness is a *transient*,
//! measured in anti-entropy ticks, not a terminal state.

use drr_gossip::ae::{ae_driver, AeConfig, RecoveryOutcome, RecoveryTracker, SignalModel};
use drr_gossip::net::SimConfig;
use drr_gossip::runtime::{AsyncConfig, ChurnModel, LatencyModel};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1 << 9);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let ticks: u64 = 120;

    let ae = AeConfig::default()
        .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(1_000.0));
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
    .with_churn(ChurnModel::per_round(0.01, 0.25).with_min_alive(n / 2));

    println!("anti-entropy continuous aggregation, n = {n}, seed = {seed}");
    println!(
        "tick = {}µs, signal drift = {}/s, churn = 1%/tick crash, 25%/tick rejoin\n",
        ae.tick_us, ae.signal.drift_per_s
    );

    let mut driver = ae_driver(engine, ae, 2);
    let mut tracker = RecoveryTracker::new(0.01, ae.expiry_us);
    println!(
        "{:>5} {:>7} {:>10} {:>12} {:>12} {:>9}",
        "tick", "alive", "informed", "true mean", "max err", "rejoins"
    );
    for k in 1..=ticks {
        driver.run_until(k * ae.tick_us);
        tracker.observe(&driver);
        if k % 10 != 0 {
            continue;
        }
        let now = driver.now_us();
        let alive: Vec<_> = driver.alive_nodes().collect();
        let truth = ae.signal.true_mean(alive.iter().copied(), now).unwrap();
        let mut informed = 0usize;
        let mut max_err = 0.0f64;
        for &v in &alive {
            if let Some(est) = driver.handler(v).estimate(now) {
                informed += 1;
                max_err = max_err.max(((est - truth) / truth).abs());
            }
        }
        println!(
            "{k:>5} {:>7} {:>10} {truth:>12.1} {:>11.3}% {:>9}",
            alive.len(),
            informed,
            max_err * 100.0,
            driver.rejoin_log().len(),
        );
    }

    let records = tracker.finish();
    let recovered: Vec<u64> = records
        .iter()
        .filter_map(|r| match r.outcome {
            RecoveryOutcome::Recovered { ticks } => Some(ticks),
            _ => None,
        })
        .collect();
    println!("\nrejoin recovery (to within 1% of the fully-synced reference):");
    println!("  rejoins observed   {:>6}", records.len());
    println!("  recovered          {:>6}", recovered.len());
    if !recovered.is_empty() {
        let mean = recovered.iter().sum::<u64>() as f64 / recovered.len() as f64;
        let max = recovered.iter().max().unwrap();
        println!("  mean recovery      {mean:>6.1} ticks");
        println!("  slowest recovery   {max:>6} ticks");
    }
    println!(
        "  messages           {:>6} ({:.1}/node/tick)",
        driver.net_metrics().total_messages(),
        driver.net_metrics().total_messages() as f64 / (n as f64 * ticks as f64)
    );
    println!("\nre-run with the same seed for a bit-identical trace.");
}
