//! Run DRR-gossip on the sharded discrete-event engine and compare it with
//! the synchronous round-barrier backend on the same workload.
//!
//! ```text
//! cargo run --release --example async_gossip [n] [seed]
//! ```
//!
//! Shows the headline features of `gossip-runtime`: ongoing churn (crash +
//! rejoin mid-run), log-normal per-link latency with a heavy tail, virtual
//! completion time (what the round count actually costs wall-clock), and
//! bit-identical reproducibility from the seed.

use drr_gossip::drr::protocol::{drr_gossip_max, DrrGossipConfig, DrrGossipReport};
use drr_gossip::net::{Network, SimConfig};
use drr_gossip::runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedTransport};

/// Shards the node space is split into; the run is bit-identical at any
/// count.
const SHARDS: usize = 2;

fn consensus(report: &DrrGossipReport) -> (usize, usize, f64) {
    let informed: Vec<f64> = report
        .estimates
        .iter()
        .zip(&report.alive)
        .filter(|(e, &a)| a && e.is_finite())
        .map(|(&e, _)| e)
        .collect();
    let alive = report.alive.iter().filter(|&&a| a).count();
    let mut counts = std::collections::HashMap::new();
    for &e in &informed {
        *counts.entry(e.to_bits()).or_default() += 1usize;
    }
    let plurality = counts.values().copied().max().unwrap_or(0);
    let share = if informed.is_empty() {
        0.0
    } else {
        plurality as f64 / informed.len() as f64
    };
    (informed.len(), alive, share)
}

/// The next positional argument, `default` when absent; a value that does
/// not parse is a usage error (exit 2), never a silent default.
fn arg_or<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, default: T) -> T {
    match args.next() {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("async_gossip: not a number: {raw:?}");
            eprintln!("usage: async_gossip [n] [seed]");
            std::process::exit(2)
        }),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = arg_or(&mut args, 1 << 12);
    let seed: u64 = arg_or(&mut args, 7);
    let values: Vec<f64> = (0..n).map(|i| ((i * 37) % 100_003) as f64).collect();

    println!("DRR-gossip-max, n = {n}, seed = {seed}\n");

    // --- Synchronous backend: the paper's model. -------------------------
    let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.05));
    let sync_report = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
    println!("synchronous Network   (δ = 0.05):");
    println!("  rounds   {:>10}", sync_report.total_rounds);
    println!("  messages {:>10}", sync_report.total_messages);
    println!("  exact    {:>10}", sync_report.fraction_exact());

    // --- Sharded engine: churn + heavy-tailed latency. -------------------
    let config = AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.05))
        .with_latency(LatencyModel::LogNormal {
            median_us: 1_000.0,
            sigma: 1.0,
        })
        .with_link_spread(0.3)
        .with_churn(ChurnModel::per_round(0.01, 0.1).with_min_alive(n / 2));
    let mut engine = ShardedTransport::new(config.clone(), SHARDS);
    let report = drr_gossip_max(&mut engine, &values, &DrrGossipConfig::paper());
    let (informed, alive, share) = consensus(&report);
    let am = engine.async_metrics();
    println!("\nasync ShardedTransport (1%/round churn, log-normal latency σ = 1.0):");
    println!("  rounds   {:>10}", report.total_rounds);
    println!("  messages {:>10}", report.total_messages);
    println!("  alive at end      {alive:>7} / {n}");
    println!(
        "  informed          {informed:>7} ({:.1}% of alive)",
        100.0 * informed as f64 / alive as f64
    );
    println!("  consensus share   {:>8.3}", share);
    println!(
        "  churn: {} crashes, {} rejoins",
        am.churn_crashes, am.churn_rejoins
    );
    println!(
        "  latency p50/p99   {:>7} / {} µs",
        am.latency.quantile_us(0.50),
        am.latency.quantile_us(0.99)
    );
    println!(
        "  virtual time      {:>8.1} ms  ({:.2} ms/round)",
        engine.now_us() as f64 / 1e3,
        engine.now_us() as f64 / 1e3 / report.total_rounds as f64
    );

    // --- Determinism: the run is a pure function of the seed. ------------
    let mut replay = ShardedTransport::new(config, SHARDS);
    let replay_report = drr_gossip_max(&mut replay, &values, &DrrGossipConfig::paper());
    let identical = replay_report
        .estimates
        .iter()
        .zip(&report.estimates)
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && replay.now_us() == engine.now_us();
    println!("\nreplay with same seed is bit-identical: {identical}");
}
