//! [`Cluster`] on worker threads: real parallelism, one process.
//!
//! The headline test runs **64 nodes on 64 OS threads** — SWIM membership
//! discovering the cluster from one seed, Merkle-digest anti-entropy
//! reconciling over the discovered view, every frame sealed with a
//! cluster auth key — while an attacker thread floods members with bare,
//! tampered, and wrong-key frames. Convergence is asserted per node
//! (order-independent, bit-for-bit equal stores), forgeries must be
//! counted in `auth_reject` and never adopted, and the reject rate must
//! stay flat across soak windows (the E22 discipline: a reject path that
//! leaks or stalls shows up as a rate trend, not a crash).
//!
//! Skips gracefully where loopback binds are forbidden; under
//! `--features sockets-required` a skip is a failure.

use gossip_ae::protocol::{AeConfig, AeNode, DigestMode};
use gossip_ae::signal::SignalModel;
use gossip_member::{Member, MemberConfig};
use gossip_net::{frame_with_payload, seal_frame, AuthKey, NodeId};
use gossip_node::Cluster;
use gossip_obs::TraceCtx;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Probe for loopback UDP. Under `--features sockets-required` a failed
/// probe panics instead of skipping.
fn sockets_available() -> bool {
    match std::net::UdpSocket::bind(("127.0.0.1", 0)) {
        Ok(_) => true,
        Err(e) if cfg!(feature = "sockets-required") => {
            panic!("sockets-required is on but loopback UDP binding failed: {e}")
        }
        Err(e) => {
            eprintln!("skipping loopback test: UDP bind unavailable ({e})");
            false
        }
    }
}

const GENEROUS: Duration = Duration::from_secs(30);

/// Plain HTTP GET against a status endpoint, returning the whole response.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to status endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// GET `path` from a side thread while this one keeps pumping the
/// cluster's non-blocking endpoint (in either schedule, the caller's
/// thread answers scrapes).
fn scrape(cluster: &mut Cluster<AeNode>, addr: SocketAddr, path: &'static str) -> String {
    let handle = std::thread::spawn(move || http_get(addr, path));
    while !handle.is_finished() {
        cluster.pump_status();
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.join().expect("scrape thread")
}

/// Scrape `/metrics` until it carries a series for every node: worker
/// pages land one pump slice after the workers start.
fn scrape_all_nodes(cluster: &mut Cluster<AeNode>, addr: SocketAddr) -> String {
    let deadline = std::time::Instant::now() + GENEROUS;
    loop {
        let page = scrape(cluster, addr, "/metrics");
        let all = (0..cluster.n()).all(|i| page.contains(&format!("node=\"{i}\"")));
        if all || std::time::Instant::now() >= deadline {
            return page;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sum every `{name}{{...}} value` sample in a rendered registry — the
/// scrape-side view of a per-node labelled counter.
fn summed_samples(rendered: &str, name: &str) -> u64 {
    rendered
        .lines()
        .filter(|l| l.starts_with(name) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum::<f64>() as u64
}

fn ae_config() -> AeConfig {
    // Static signal, no expiry: converged stores are bit-identical across
    // nodes, so cross-node equality is exact, not approximate.
    AeConfig::default()
        .with_tick_us(2_000)
        .with_update_us(0)
        .with_expiry_us(0)
        .with_signal(SignalModel::uniform(0.0, 10_000.0))
        .with_digest_mode(DigestMode::Merkle)
}

#[test]
fn sixty_four_threaded_nodes_converge_under_auth_and_hostile_traffic() {
    if !sockets_available() {
        return;
    }
    let n = 64;
    let key = AuthKey::from_passphrase("threaded-cluster-integration");
    let member_config =
        MemberConfig::with_seeds(vec![NodeId::new(0)]).with_probe_interval_us(50_000);
    let ae = ae_config();
    let factory_config = member_config.clone();
    let mut cluster = Cluster::bind(n, 0x64, move |me| {
        let sim = gossip_net::SimConfig::new(n);
        Member::new(
            factory_config.clone(),
            AeNode::new(me, n, sim.id_bits(), sim.value_bits(), ae),
        )
    })
    .expect("bind cluster")
    .with_auth_key(key.clone());

    // The attacker: a thread hammering the first four members with bare,
    // tampered, and wrong-key frames for the whole run. All three fail
    // authentication before any payload ever decodes, so junk payloads
    // are fine — rejection must not depend on what the forgery claims.
    let stop_attack = Arc::new(AtomicBool::new(false));
    let targets: Vec<SocketAddr> = cluster.hosts()[..4]
        .iter()
        .map(|h| h.local_addr().expect("bound socket"))
        .collect();
    let wrong_key = AuthKey::from_passphrase("not-the-cluster-key");
    let bare = frame_with_payload(NodeId::new(1), b"forged");
    let mut tampered = seal_frame(NodeId::new(1), TraceCtx::NONE, Some(&key), b"forged");
    *tampered.last_mut().unwrap() ^= 0x01;
    let sealed_wrong = seal_frame(NodeId::new(1), TraceCtx::NONE, Some(&wrong_key), b"forged");
    let attack_stop = Arc::clone(&stop_attack);
    let attacker = std::thread::spawn(move || {
        let socket = std::net::UdpSocket::bind(("127.0.0.1", 0)).expect("attacker socket");
        let mut volleys: u64 = 0;
        while !attack_stop.load(Ordering::Relaxed) {
            for addr in &targets {
                let _ = socket.send_to(&bare, addr);
                let _ = socket.send_to(&tampered, addr);
                let _ = socket.send_to(&sealed_wrong, addr);
            }
            volleys += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        volleys
    });

    // Full convergence, per node against its own state only: joined via
    // SWIM and reconciled every origin's entry. Both conditions are
    // monotone — `known()` is grow-only — so the predicate cannot flap
    // the way a momentary false suspicion would make `live_view` flap
    // when 65 busy threads contend for a few cores.
    cluster.start_threads();
    let converged = cluster.run_until(Duration::from_secs(60), move |h| {
        h.handler().is_joined() && h.handler().inner().store().known() == n
    });
    assert!(
        converged.is_some(),
        "64 threaded nodes under hostile traffic never converged"
    );

    // E22-style soak: keep the attack running and scrape the merged
    // cluster registry across windows. The summed auth-reject counter
    // must keep rising (the attack is live and counted) and its
    // per-window rate must stay flat — a generous 6× band on both sides,
    // because these are wall-clock windows on a loaded machine.
    let mut rejects_at = Vec::new();
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(200));
        rejects_at.push(summed_samples(
            &cluster.registry().render(),
            "node_auth_reject_total",
        ));
    }
    let deltas: Vec<u64> = rejects_at.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        deltas.iter().all(|&d| d > 0),
        "auth rejects stalled mid-attack: {rejects_at:?}"
    );
    let (lo, hi) = (
        *deltas.iter().min().unwrap() as f64,
        *deltas.iter().max().unwrap() as f64,
    );
    assert!(
        hi <= 6.0 * lo,
        "auth-reject rate drifted across soak windows: deltas {deltas:?}"
    );

    stop_attack.store(true, Ordering::Relaxed);
    let volleys = attacker.join().expect("attacker thread");
    assert!(volleys > 0, "the attacker never fired");
    cluster.stop_threads();
    let hosts = cluster.hosts();
    assert_eq!(hosts.len(), n);

    // Zero cross-node state bleed: every host kept its own identity, its
    // own self-entry, and the stores agree bit for bit on every origin —
    // order-independent equality, which only holds if no thread ever
    // wrote into another node's state.
    let reference = hosts[0].handler().inner().store();
    let reference_estimate = hosts[0]
        .handler()
        .inner()
        .estimate(u64::MAX)
        .expect("reconciled node estimates");
    for (i, host) in hosts.iter().enumerate() {
        assert_eq!(host.me(), NodeId::new(i), "host {i} lost its identity");
        let member = host.handler();
        assert!(member.is_joined(), "node {i} regressed out of the cluster");
        assert!(
            !member.live_view().is_empty(),
            "node {i} ended with an empty membership view"
        );
        let store = member.inner().store();
        assert_eq!(store.known(), n, "node {i} lost entries after convergence");
        for origin in 0..n {
            let own = store.get(NodeId::new(origin)).expect("known entry");
            let theirs = reference.get(NodeId::new(origin)).expect("known entry");
            assert_eq!(
                own.value.to_bits(),
                theirs.value.to_bits(),
                "node {i} disagrees with node 0 about origin {origin}"
            );
            assert!(
                (0.0..=10_000.0).contains(&own.value),
                "node {i} adopted an out-of-model value for origin {origin}: {}",
                own.value
            );
        }
        let estimate = member.inner().estimate(u64::MAX).expect("estimate");
        assert_eq!(
            estimate.to_bits(),
            reference_estimate.to_bits(),
            "node {i} estimate diverged"
        );
    }

    // Every forgery that reached a socket was rejected by authentication
    // — before sender validation, so none of the hostile counters that
    // sit *behind* the auth check ever moved, and none decoded.
    let mut total_rejects = 0;
    for (i, host) in hosts.iter().enumerate() {
        let stats = host.stats();
        total_rejects += stats.auth_reject;
        assert_eq!(stats.decode_errors, 0, "node {i} let a forgery decode");
        assert_eq!(
            stats.addr_mismatches, 0,
            "node {i} saw a forgery pass authentication"
        );
    }
    assert!(
        total_rejects > 0,
        "an attacked, auth-required cluster counted no rejects"
    );
}

#[test]
fn threaded_cluster_metrics_page_folds_nodes_under_a_label() {
    if !sockets_available() {
        return;
    }
    let n = 4;
    let ae = ae_config();
    let mut cluster = Cluster::bind(n, 7, move |me| {
        let sim = gossip_net::SimConfig::new(n);
        AeNode::new(me, n, sim.id_bits(), sim.value_bits(), ae)
    })
    .expect("bind cluster");
    let status_addr = cluster
        .serve_status(("127.0.0.1", 0))
        .expect("bind cluster status endpoint");

    cluster.start_threads();
    let converged = cluster.run_until(GENEROUS, move |h| h.handler().store().known() == n);
    assert!(
        converged.is_some(),
        "threaded anti-entropy never reconciled"
    );

    // The scrape reads worker pages, which land a slice after each worker
    // starts — retry briefly rather than racing the first one.
    let metrics = scrape_all_nodes(&mut cluster, status_addr);
    for i in 0..n {
        assert!(
            metrics.contains(&format!("node=\"{i}\"")),
            "metrics page lost node {i}'s series:\n{metrics}"
        );
    }
    assert!(
        metrics.contains("node_datagrams_sent_total"),
        "metrics page lost the wire counters:\n{metrics}"
    );
    let status = scrape(&mut cluster, status_addr, "/status");
    assert!(
        status.contains("cluster of 4, one worker thread per node"),
        "status page lost the summary:\n{status}"
    );
    assert!(
        status.contains("node 3  ae.store: "),
        "status page lost the handler lines:\n{status}"
    );

    cluster.stop_threads();
    let hosts = cluster.hosts();
    assert_eq!(hosts.len(), n);
    for (i, host) in hosts.iter().enumerate() {
        assert_eq!(host.me(), NodeId::new(i));
        assert_eq!(host.handler().store().known(), n);
        assert_eq!(host.stats().auth_reject, 0, "auth is off in this cluster");
    }
}

#[test]
fn stop_before_start_returns_the_parked_hosts() {
    if !sockets_available() {
        return;
    }
    let ae = ae_config();
    let mut cluster = Cluster::bind(3, 9, move |me| {
        let sim = gossip_net::SimConfig::new(3);
        AeNode::new(me, 3, sim.id_bits(), sim.value_bits(), ae)
    })
    .expect("bind cluster");
    cluster.stop_threads();
    let hosts = cluster.hosts();
    assert_eq!(hosts.len(), 3);
    for (i, host) in hosts.iter().enumerate() {
        assert_eq!(host.me(), NodeId::new(i));
        assert_eq!(host.stats().handler_starts, 0, "never started, never ran");
    }
}

#[test]
fn one_cluster_value_runs_both_schedules_in_turn() {
    if !sockets_available() {
        return;
    }
    let n = 4;
    let ae = ae_config();
    let mut cluster = Cluster::bind(n, 11, move |me| {
        let sim = gossip_net::SimConfig::new(n);
        AeNode::new(me, n, sim.id_bits(), sim.value_bits(), ae)
    })
    .expect("bind cluster");
    let status_addr = cluster
        .serve_status(("127.0.0.1", 0))
        .expect("bind cluster status endpoint");

    // Caller's thread first: round-robin until every store holds more
    // than its own entry.
    let partial = cluster.run_until(GENEROUS, |h| h.handler().store().known() >= 2);
    assert!(
        partial.is_some(),
        "round-robin anti-entropy made no progress"
    );
    let known_before: Vec<usize> = cluster
        .hosts()
        .iter()
        .map(|h| h.handler().store().known())
        .collect();
    let local_page = scrape_all_nodes(&mut cluster, status_addr);

    // Then the same value on worker threads, to full reconciliation.
    cluster.start_threads();
    let converged = cluster.run_until(GENEROUS, move |h| h.handler().store().known() == n);
    assert!(converged.is_some(), "workers never finished reconciling");
    let threaded_page = scrape_all_nodes(&mut cluster, status_addr);
    cluster.stop_threads();

    // One schema in both schedules: a series per node.
    for (schedule, page) in [
        ("caller's thread", &local_page),
        ("workers", &threaded_page),
    ] {
        for i in 0..n {
            assert!(
                page.contains(&format!("node_datagrams_sent_total{{node=\"{i}\"}}")),
                "{schedule} page lost node {i}'s series:\n{page}"
            );
        }
    }

    // Back on the caller's thread: the same hosts, started once, stores
    // kept across both transitions.
    assert_eq!(cluster.total_stats().handler_starts, n as u64);
    for (i, host) in cluster.hosts().iter().enumerate() {
        assert_eq!(host.me(), NodeId::new(i), "host {i} lost its identity");
        let known = host.handler().store().known();
        assert_eq!(known, n, "node {i} lost entries across the transitions");
        assert!(known >= known_before[i]);
    }

    // And the returned hosts pump again: node 0's 2 ms tick fires within
    // a bounded number of single-node passes.
    let node = NodeId::new(0);
    let ticks = cluster.host(node).handler().stats.ticks;
    let mut passes = 0;
    while cluster.host(node).handler().stats.ticks == ticks {
        assert!(passes < 20_000, "node 0 never ticked after stop_threads");
        cluster.poll_node(node);
        std::thread::sleep(Duration::from_micros(200));
        passes += 1;
    }
    assert_eq!(cluster.host(node).handler().store().known(), n);
}
