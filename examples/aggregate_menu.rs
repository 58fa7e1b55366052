//! The full aggregate menu: Max, Min, Average, Sum, Count, Rank, median and
//! quantiles, all computed with DRR-gossip on the same lossy network.
//!
//! The paper's protocols are stated for Max and Average; Section 3.3 notes
//! that "other aggregates such as Min, Sum etc., can be calculated by a
//! suitable modification" — this example exercises exactly those
//! modifications (`gossip_drr::aggregates`).
//!
//! Run with:
//! ```text
//! cargo run --release --example aggregate_menu
//! ```

use drr_gossip::aggregate::ValueDistribution;
use drr_gossip::drr::aggregates::{
    drr_gossip_count, drr_gossip_min, drr_gossip_quantile, drr_gossip_rank, drr_gossip_sum,
};
use drr_gossip::drr::protocol::{drr_gossip_ave, drr_gossip_max, DrrGossipConfig, DrrGossipReport};
use drr_gossip::net::{Network, SimConfig};

/// One entry point of the menu, run on a fresh network.
type Run = fn(&mut Network, &[f64], &DrrGossipConfig) -> DrrGossipReport;

fn main() {
    let n = 5_000;
    let seed = 19;
    // A heavy-tailed workload: most nodes hold small values, a few hold huge ones.
    let values = ValueDistribution::Zipf {
        max: 100_000,
        exponent: 1.4,
    }
    .generate(n, seed);
    let config = DrrGossipConfig::paper();
    let sim = SimConfig::new(n)
        .with_seed(seed)
        .with_loss_prob(0.03)
        .with_value_range(100_000.0);

    println!("=== DRR-gossip aggregate menu (n = {n}, 3% message loss, Zipf workload) ===\n");
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>12} {:>10}",
        "aggregate", "exact", "estimate", "max err", "messages", "rounds"
    );
    let menu: [(&str, Run); 6] = [
        ("max", drr_gossip_max),
        ("min", drr_gossip_min),
        ("average", drr_gossip_ave),
        ("sum", drr_gossip_sum),
        ("count", |net, _, config| drr_gossip_count(net, config)),
        ("rank:1000", |net, values, config| {
            drr_gossip_rank(net, values, 1000.0, config)
        }),
    ];
    for (name, run) in menu {
        let mut net = Network::new(sim.clone());
        let report = run(&mut net, &values, &config);
        let estimate = report
            .estimates
            .iter()
            .cloned()
            .find(|e| e.is_finite())
            .unwrap_or(f64::NAN);
        println!(
            "{:<12} {:>14.2} {:>14.2} {:>10.2e} {:>12} {:>10}",
            name,
            report.exact,
            estimate,
            report.max_relative_error(),
            report.total_messages,
            report.total_rounds
        );
    }

    // Median and tail quantile via binary search: each probe averages the
    // indicators "value below the probe".
    println!("\n--- order statistics via binary search over fraction-below probes ---");
    let mut net = Network::new(sim.clone());
    let median = drr_gossip_quantile(&mut net, &values, 0.5, 1.0, &config);
    println!(
        "median : exact {:>10.2}  estimate {:>10.2}  ({} chain runs, {} messages)",
        median.exact, median.estimate, median.iterations, median.total_messages
    );
    let mut net = Network::new(sim);
    let p95 = drr_gossip_quantile(&mut net, &values, 0.95, 1.0, &config);
    println!(
        "p95    : exact {:>10.2}  estimate {:>10.2}  ({} chain runs, {} messages)",
        p95.exact, p95.estimate, p95.iterations, p95.total_messages
    );
}
