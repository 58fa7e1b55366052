//! Robustness and edge-case integration tests: degenerate network sizes,
//! extreme failure rates, adversarial workloads and the full aggregate menu.

use drr_gossip::aggregate::ValueDistribution;
use drr_gossip::drr::aggregates::{
    drr_gossip_min, drr_gossip_quantile, drr_gossip_rank, drr_gossip_sum,
};
use drr_gossip::drr::protocol::{drr_gossip_ave, drr_gossip_max, DrrGossipConfig, DrrGossipReport};
use drr_gossip::net::{Network, SimConfig, Transport};

fn network(n: usize, seed: u64, loss: f64, crash: f64) -> Network {
    Network::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(loss)
            .with_initial_crash_prob(crash)
            .with_value_range(1000.0),
    )
}

#[test]
fn tiny_networks_do_not_panic_and_stay_exact() {
    for n in [1usize, 2, 3, 4, 7, 8] {
        let values: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let mut net = network(n, 3, 0.0, 0.0);
        let max = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
        assert_eq!(max.exact, n as f64, "n = {n}");
        assert_eq!(max.fraction_exact(), 1.0, "n = {n}");

        let mut net = network(n, 3, 0.0, 0.0);
        let ave = drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper());
        let exact = (n as f64 + 1.0) / 2.0;
        assert!((ave.exact - exact).abs() < 1e-12, "n = {n}");
        assert!(
            ave.max_relative_error() < 0.05,
            "n = {n}: error {}",
            ave.max_relative_error()
        );
    }
}

#[test]
fn extreme_message_loss_still_converges_for_max() {
    // δ far beyond the paper's assumed δ < 1/8: retransmissions in the tree
    // phases and the redundancy of gossip still get the maximum through.
    let n = 1500;
    let values = ValueDistribution::Uniform {
        lo: 0.0,
        hi: 1000.0,
    }
    .generate(n, 5);
    let mut net = network(n, 5, 0.4, 0.0);
    let report = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
    assert!(
        report.fraction_exact() > 0.9,
        "only {} of nodes learned the max at 40% loss",
        report.fraction_exact()
    );
}

#[test]
fn massive_initial_crash_rate_is_survivable() {
    let n = 2000;
    let values = ValueDistribution::Uniform { lo: 0.0, hi: 100.0 }.generate(n, 7);
    let mut net = network(n, 7, 0.02, 0.6);
    let alive = net.alive_count();
    assert!(
        alive < 1000,
        "crash probability should have removed most nodes"
    );
    let report = drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper());
    // The aggregate is over the survivors and is still accurate.
    assert!(
        report.max_relative_error() < 0.1,
        "max relative error {}",
        report.max_relative_error()
    );
}

#[test]
fn constant_and_outlier_workloads() {
    let n = 1200;
    // All-equal values: every estimate must be exactly that value.
    let constant = vec![4.25; n];
    let mut net = network(n, 9, 0.05, 0.0);
    let report = drr_gossip_ave(&mut net, &constant, &DrrGossipConfig::paper());
    assert!(report.max_relative_error() < 1e-9);

    // A single extreme outlier must still be found by Max.
    let mut outlier = vec![0.0; n];
    outlier[n / 2] = 1e9;
    let mut net = Network::new(
        SimConfig::new(n)
            .with_seed(9)
            .with_loss_prob(0.05)
            .with_value_range(1e9),
    );
    let report = drr_gossip_max(&mut net, &outlier, &DrrGossipConfig::paper());
    assert_eq!(report.exact, 1e9);
    assert!(report.fraction_exact() > 0.99);
}

#[test]
fn negative_values_are_handled_by_every_aggregate() {
    let n = 1500;
    let values = ValueDistribution::Uniform {
        lo: -500.0,
        hi: -100.0,
    }
    .generate(n, 11);
    type Run = fn(&mut Network, &[f64], &DrrGossipConfig) -> DrrGossipReport;
    let sum: f64 = values.iter().sum();
    let runs: [(&str, Run, f64); 5] = [
        (
            "max",
            drr_gossip_max,
            values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        ),
        (
            "min",
            drr_gossip_min,
            values.iter().cloned().fold(f64::INFINITY, f64::min),
        ),
        ("average", drr_gossip_ave, sum / n as f64),
        ("sum", drr_gossip_sum, sum),
        (
            "rank",
            |t, v, c| drr_gossip_rank(t, v, -300.0, c),
            values.iter().filter(|&&v| v < -300.0).count() as f64,
        ),
    ];
    for (name, run, exact) in runs {
        let mut net = network(n, 11, 0.0, 0.0);
        let report = run(&mut net, &values, &DrrGossipConfig::paper());
        assert!(
            (report.exact - exact).abs() < 1e-9,
            "{name}: exact mismatch"
        );
        assert!(
            report.max_relative_error() < 0.05,
            "{name}: error {}",
            report.max_relative_error()
        );
    }
}

#[test]
fn median_is_close_on_a_skewed_workload() {
    let n = 1000;
    let values = ValueDistribution::Zipf {
        max: 1000,
        exponent: 1.5,
    }
    .generate(n, 13);
    let mut net = Network::new(SimConfig::new(n).with_seed(13).with_value_range(1000.0));
    let report = drr_gossip_quantile(&mut net, &values, 0.5, 1.0, &DrrGossipConfig::paper());
    // The exact median of a heavy-tailed Zipf sample is small; the binary
    // search over fraction-below probes should land within a few values of it.
    assert!(
        (report.estimate - report.exact).abs() <= 3.0,
        "median estimate {} vs exact {}",
        report.estimate,
        report.exact
    );
}

#[test]
fn zero_loss_and_zero_crash_are_the_defaults() {
    let cfg = SimConfig::new(64);
    assert_eq!(cfg.loss_prob, 0.0);
    assert_eq!(cfg.initial_crash_prob, 0.0);
    let net = Network::new(cfg);
    assert_eq!(net.alive_count(), 64);
}
