//! Deployability: the anti-entropy node, unchanged, on real UDP sockets.
//!
//! The same `AeNode` the simulated suites pin — digest/delta
//! reconciliation, max-stamp merge, freshness windows — hosted by
//! `gossip-node` over 127.0.0.1 datagrams. With a static (drift-free)
//! signal, full reconciliation gives every replica the identical store
//! *values*, so the estimate must agree with the `ShardedDriver` run of the
//! identical configuration bit for bit (stamps differ — real clocks —
//! but values and therefore means do not). Skips gracefully where
//! loopback binds are forbidden.

use gossip_ae::protocol::{ae_driver, AeConfig, AeMsg, AeNode, DigestMode};
use gossip_ae::signal::SignalModel;
use gossip_ae::store::Entry;
use gossip_ae::wire::payload_bytes;
use gossip_net::{NodeId, SimConfig, FRAME_HEADER_BYTES, MAX_PAYLOAD_BYTES};
use gossip_node::Cluster;
use gossip_runtime::{AsyncConfig, LatencyModel};
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

#[test]
fn anti_entropy_reconciles_over_real_udp_and_matches_the_simulator() {
    if !sockets_available() {
        return;
    }
    let n = 10;
    let seed = 11;
    let sim = SimConfig::new(n).with_seed(seed).with_value_range(10_000.0);
    // Static signal, no expiry: the converged estimate is the mean of the
    // n per-node base levels — a pure function of the signal model, which
    // both execution backends share.
    let ae = AeConfig::default()
        .with_tick_us(2_000)
        .with_update_us(0)
        .with_expiry_us(0)
        .with_signal(SignalModel::uniform(0.0, 10_000.0));

    // Simulator run of the identical configuration.
    let mut driver = ae_driver(
        AsyncConfig::new(sim.clone()).with_latency(LatencyModel::Constant(400)),
        ae,
        1,
    );
    driver.run_until(200_000);
    for (node, h) in driver.iter_handlers() {
        assert_eq!(
            h.store().known(),
            n,
            "simulated node {node:?} not reconciled"
        );
    }
    let sim_estimate = driver
        .handler(NodeId::new(0))
        .estimate(driver.now_us())
        .unwrap();

    // The same AeNode over real sockets.
    let id_bits = sim.id_bits();
    let value_bits = sim.value_bits();
    let mut cluster = Cluster::bind(n, seed, move |me| {
        AeNode::new(me, n, id_bits, value_bits, ae)
    })
    .expect("bind loopback cluster");
    let elapsed = cluster.run_until(Duration::from_secs(30), move |h| {
        h.handler().store().known() == n
    });
    assert!(
        elapsed.is_some(),
        "real-socket anti-entropy must fully reconcile"
    );
    for (node, h) in cluster.iter_handlers() {
        let est = h.estimate(u64::MAX).expect("reconciled node estimates");
        assert_eq!(
            est.to_bits(),
            sim_estimate.to_bits(),
            "node {node:?}: real-socket estimate {est} vs simulated {sim_estimate}"
        );
    }

    // Three-leg exchanges really crossed the wire.
    let totals = cluster.total_stats();
    assert!(totals.bytes_sent > 0);
    assert_eq!(totals.decode_errors, 0, "every AeMsg frame decodes");
    let ticks: u64 = cluster.iter_handlers().map(|(_, h)| h.stats.syn_sent).sum();
    assert!(ticks > 0, "exchanges were initiated");
}

#[test]
fn modelled_digest_accounting_agrees_with_the_wire() {
    if !sockets_available() {
        return;
    }
    // The satellite bugfix pinned end to end: the model charges one
    // (origin, stamp) pair per *known* origin, and the wire now encodes
    // exactly those pairs — so a fresh node's opener is a handful of
    // bytes, not n stamps. Only node 0 is pumped: its store stays at
    // known = 1 (its own entry), so every datagram it emits is the same
    // one-pair SynReq and both ledgers are exactly predictable.
    let n = 10;
    let ae = AeConfig::default()
        .with_tick_us(2_000)
        .with_update_us(0)
        .with_expiry_us(0);
    let sim = SimConfig::new(n);
    let id_bits = sim.id_bits();
    let value_bits = sim.value_bits();
    let mut cluster = Cluster::bind(n, 23, move |me| AeNode::new(me, n, id_bits, value_bits, ae))
        .expect("bind loopback cluster");

    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster.host(NodeId::new(0)).stats().datagrams_sent < 3 {
        cluster.poll_node(NodeId::new(0));
        assert!(
            std::time::Instant::now() < deadline,
            "node 0 must tick and send"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
    let host = cluster.host(NodeId::new(0));
    let stats = host.stats();

    // What every one of those datagrams must have been: a SynReq with one
    // digest pair.
    let expected = AeMsg::SynReq {
        n: n as u32,
        digest: host.handler().store().sparse_digest(),
    };
    assert_eq!(host.handler().store().known(), 1, "nothing answered yet");
    let frame_bytes = (FRAME_HEADER_BYTES + payload_bytes(&expected)) as u64;
    assert_eq!(
        frame_bytes,
        12 + 23,
        "one pair = tag, arity, count, origin, a 9-byte run header and a 1-byte code"
    );
    assert_eq!(
        stats.bytes_sent,
        frame_bytes * stats.datagrams_sent,
        "wire bytes are exactly the sparse encoding, datagram for datagram"
    );
    // And the modelled ledger charged the same sparse shape: tag + arity
    // + one origin + a one-code stamp run (base, width byte, a 1-bit code)
    // per send.
    let run = gossip_ae::StampRun::HEADER_BITS + 1;
    assert_eq!(run, gossip_ae::STAMP_BITS + 8 + 1);
    let modelled_bits = u64::from(8 + 32 + id_bits + run);
    assert_eq!(
        host.metrics().total_bits(),
        modelled_bits * stats.datagrams_sent,
        "modelled bits count the same pairs the wire shipped"
    );
}

/// Store arity for the at-scale tests: a *full* flat digest at this n is
/// ~144 KB of payload — far beyond one datagram — while every Merkle-mode
/// message stays bounded. 16 real sockets carry it; the store arity is
/// what stresses the digests, not the socket count.
const BIG_ORIGINS: usize = 12_000;
const BIG_HOSTS: usize = 16;

/// The synthetic stamp of `origin`, spread across the `u64` range: the
/// stamp codec's worst case, where every code takes 8 bytes, so a digest
/// pair is 12 bytes and a delta entry 20, and the dense digest crosses the
/// datagram ceiling at ≈ 5,400 known origins.
fn big_stamp(origin: usize) -> u64 {
    (1 + origin as u64) << 48
}

/// A node of the at-scale cluster: its own entry plus a deterministic
/// shard of synthetic origins (origin o lives at host o mod BIG_HOSTS),
/// so the union over hosts covers all BIG_ORIGINS and full convergence
/// means every host holds every origin.
fn big_node(me: NodeId, mode: DigestMode, tick_us: u64) -> AeNode {
    let sim = SimConfig::new(BIG_ORIGINS).with_value_range(10_000.0);
    let ae = AeConfig::default()
        .with_tick_us(tick_us)
        .with_update_us(0)
        .with_expiry_us(0)
        .with_digest_mode(mode)
        .with_merkle_fallback_slots(32);
    let mut node = AeNode::new(me, BIG_ORIGINS, sim.id_bits(), sim.value_bits(), ae);
    for origin in (BIG_HOSTS..BIG_ORIGINS).filter(|o| o % BIG_HOSTS == me.index()) {
        node.seed_entry(
            NodeId::new(origin),
            Entry {
                stamp: big_stamp(origin),
                value: (origin as f64) * 0.5,
            },
        );
    }
    node
}

#[test]
fn merkle_mode_converges_where_a_dense_digest_cannot_fit_a_datagram() {
    if !sockets_available() {
        return;
    }
    // The premise, asserted: the flat digest of a full store at this
    // arity does not fit one UDP datagram even in sparse form.
    let full_digest = AeMsg::SynReq {
        n: BIG_ORIGINS as u32,
        digest: (0..BIG_ORIGINS)
            .map(|i| (NodeId::new(i), big_stamp(i)))
            .collect(),
    };
    assert!(
        payload_bytes(&full_digest) > 2 * MAX_PAYLOAD_BYTES,
        "premise: a full dense digest at n = {BIG_ORIGINS} exceeds two datagrams"
    );

    let mut cluster = Cluster::bind(BIG_HOSTS, 31, |me| big_node(me, DigestMode::Merkle, 2_000))
        .expect("bind loopback cluster");
    let elapsed = cluster.run_until(Duration::from_secs(120), |h| {
        h.handler().store().known() == BIG_ORIGINS
    });
    assert!(
        elapsed.is_some(),
        "merkle anti-entropy must fully reconcile {BIG_ORIGINS} origins over UDP"
    );

    let totals = cluster.total_stats();
    assert_eq!(
        totals.send_oversize, 0,
        "no merkle message outgrows a datagram"
    );
    assert_eq!(totals.decode_errors, 0, "every descent frame decodes");
    let mismatches: u64 = cluster
        .iter_handlers()
        .map(|(_, h)| h.stats.digest_mismatches)
        .sum();
    assert_eq!(mismatches, 0, "honest traffic is never dropped");

    // Full reconciliation ⇒ identical estimates, bit for bit.
    let reference = cluster
        .host(NodeId::new(0))
        .handler()
        .estimate(u64::MAX)
        .expect("reconciled node estimates");
    for (node, h) in cluster.iter_handlers() {
        let est = h.estimate(u64::MAX).expect("reconciled");
        assert_eq!(est.to_bits(), reference.to_bits(), "node {node:?} differs");
    }
}

#[test]
fn dense_mode_jams_on_oversize_digests_at_the_same_scale() {
    if !sockets_available() {
        return;
    }
    // The same cluster in dense mode: digests grow with the store, cross
    // the datagram ceiling mid-run, and from then on the exchange legs
    // are dropped *before* the kernel — counted as send_oversize (the
    // satellite bugfix: previously this was an encode panic or a raw OS
    // error masquerading as loss). No host can complete: below ≈ 5,400
    // known origins (where its own digest still fits) it lacks ≥ 6,600,
    // and 6,600 entries are 132 KB, more than one leg can carry.
    //
    // Driven by counts, not by a wall-clock span: pump until the jam is
    // counted at a sender (the pass cap only bounds a failing run), then a
    // fixed number of busy passes more. Ticks are 20 ms: a 5,000-pair
    // dense tick can outlast 2 ms in a debug build.
    let mut cluster = Cluster::bind(BIG_HOSTS, 31, |me| big_node(me, DigestMode::Dense, 20_000))
        .expect("bind loopback cluster");
    let mut passes = 0;
    while cluster.total_stats().send_oversize == 0 {
        assert!(
            passes < 1_000_000,
            "oversize digests were detected and counted at the sender"
        );
        if cluster.poll() == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        passes += 1;
    }
    let mut busy = 0;
    while busy < 200 {
        if cluster.poll() > 0 {
            busy += 1;
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    assert!(
        cluster
            .iter_handlers()
            .all(|(_, h)| h.store().known() < BIG_ORIGINS),
        "no host can assemble the full store through jammed digests"
    );
}

#[test]
fn a_late_joiner_pulls_the_whole_state_over_the_wire() {
    if !sockets_available() {
        return;
    }
    // The rejoin story on real sockets: node 9's host is created but not
    // pumped until the rest have fully reconciled among themselves; once
    // it joins the pump loop, anti-entropy fills its empty store.
    let n = 10;
    let late = NodeId::new(n - 1);
    let sim = SimConfig::new(n).with_seed(5).with_value_range(10_000.0);
    let ae = AeConfig::default()
        .with_tick_us(2_000)
        .with_update_us(0)
        .with_expiry_us(0);
    let id_bits = sim.id_bits();
    let value_bits = sim.value_bits();
    let mut cluster = Cluster::bind(n, 5, move |me| AeNode::new(me, n, id_bits, value_bits, ae))
        .expect("bind loopback cluster");

    // Phase 1: everyone but the late joiner. Its host is never pumped, so
    // its handler never runs and it knows nothing; peers' sends to it sit
    // in its socket buffer — indistinguishable from a node that is down.
    let phase1_deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        for i in 0..n - 1 {
            cluster.poll_node(NodeId::new(i));
        }
        let early_done = cluster
            .hosts()
            .iter()
            .take(n - 1)
            .all(|h| h.handler().store().known() >= n - 1);
        if early_done {
            break;
        }
        assert!(
            std::time::Instant::now() < phase1_deadline,
            "the early cohort must reconcile by itself"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(cluster.host(late).handler().store().known(), 0);

    // Phase 2: the late joiner starts participating (the cluster pump
    // polls every host, including the previously idle one).
    let caught_up = cluster.run_until(Duration::from_secs(30), move |h| {
        h.handler().store().known() == n
    });
    assert!(
        caught_up.is_some(),
        "anti-entropy must pull the late joiner to full state"
    );
}
