//! Deployability: the event-driven gossip-max handler, unchanged, on real
//! UDP sockets — and it must agree with the simulator.
//!
//! This is the cash-out of the `Handler`/`Mailbox` seam: the exact
//! `MaxGossipHandler` the `ShardedDriver` tests pin is
//! hosted by `gossip-node` over 127.0.0.1 datagrams, and every node must
//! land on the same final value the simulated run of the identical
//! configuration lands on. Skips gracefully where loopback binds are
//! forbidden; CI's loopback job probes bind capability first, so a skip
//! there means the runner genuinely has no sockets (the feature-strict
//! path lives in `gossip-node`'s own suite).

use gossip_drr::handler::{MaxGossipConfig, MaxGossipHandler};
use gossip_net::{NodeId, SimConfig};
use gossip_node::Cluster;
use gossip_runtime::{AsyncConfig, LatencyModel, ShardedDriver};
use std::time::Duration;

fn sockets_available() -> bool {
    match std::net::UdpSocket::bind(("127.0.0.1", 0)) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("skipping loopback test: UDP bind unavailable ({e})");
            false
        }
    }
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 1009) as f64).collect()
}

#[test]
fn max_gossip_converges_over_real_udp_and_matches_the_simulator() {
    if !sockets_available() {
        return;
    }
    let n = 12;
    let seed = 31;
    let vals = values(n);
    let sim = SimConfig::new(n).with_seed(seed);
    let config = MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        push_interval_us: 1_000,
    };

    // The simulator's verdict for this configuration.
    let vals_for_driver = vals.clone();
    let mut driver = ShardedDriver::new(
        AsyncConfig::new(sim).with_latency(LatencyModel::Constant(300)),
        1,
        move |me| MaxGossipHandler::new(me, vals_for_driver[me.index()], config),
    );
    driver.run_until(40_000);
    let sim_max = driver.handler(NodeId::new(0)).current_max();
    for (node, h) in driver.iter_handlers() {
        assert_eq!(
            h.current_max(),
            sim_max,
            "simulated node {node:?} not settled"
        );
    }

    // The identical handler configuration over real sockets.
    let vals_for_cluster = vals.clone();
    let mut cluster = Cluster::bind(n, seed, move |me| {
        MaxGossipHandler::new(me, vals_for_cluster[me.index()], config)
    })
    .expect("bind loopback cluster");
    let elapsed = cluster.run_until(Duration::from_secs(30), move |h| {
        h.handler().current_max() == sim_max
    });
    assert!(
        elapsed.is_some(),
        "real-socket gossip-max must reach the simulator's max"
    );
    for (node, h) in cluster.iter_handlers() {
        assert_eq!(
            h.current_max(),
            sim_max,
            "node {node:?} disagrees with the simulated run"
        );
    }
    // The exact answer is also the ground truth.
    let exact = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(sim_max, exact);

    // The wire was real: frames were encoded, sent and decoded.
    let totals = cluster.total_stats();
    assert!(totals.bytes_sent > 0);
    assert_eq!(totals.decode_errors, 0);
}

#[test]
fn value_payloads_survive_the_wire_bit_for_bit() {
    if !sockets_available() {
        return;
    }
    // Adversarial values: ±∞ and subnormals must cross the codec intact
    // (max-gossip with -inf inputs converges to the one finite value).
    let n = 8;
    let vals: Vec<f64> = (0..n)
        .map(|i| {
            if i == 3 {
                f64::MIN_POSITIVE / 2.0 // subnormal
            } else {
                f64::NEG_INFINITY
            }
        })
        .collect();
    let config = MaxGossipConfig {
        push_interval_us: 500,
        ..MaxGossipConfig::default()
    };
    let expected = f64::MIN_POSITIVE / 2.0;
    let vals_for_cluster = vals.clone();
    let mut cluster = Cluster::bind(n, 7, move |me| {
        MaxGossipHandler::new(me, vals_for_cluster[me.index()], config)
    })
    .expect("bind loopback cluster");
    let done = cluster.run_until(Duration::from_secs(20), move |h| {
        h.handler().current_max().to_bits() == expected.to_bits()
    });
    assert!(
        done.is_some(),
        "the subnormal maximum must reach every node"
    );
}
