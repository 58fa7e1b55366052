//! Run a real gossip node: the simulators' protocols on actual UDP sockets.
//!
//! Two modes:
//!
//! * **Cluster mode** (default) — spin an in-process loopback cluster and
//!   watch it converge; the zero-setup demo:
//!   ```text
//!   cargo run --release --example node -- --cluster 16 --protocol max
//!   cargo run --release --example node -- --cluster 16 --protocol ae
//!   ```
//! * **Member mode** — be *one* node of a deployment: bind a socket, join
//!   a peer list (one address per node id, comma-separated, your own
//!   included), run to a deadline, report. One process per node — run
//!   several in parallel shells or machines:
//!   ```text
//!   cargo run --release --example node -- \
//!     --me 0 --peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//!     --protocol max --run-ms 3000
//!   ```
//!   (node `i` binds `peers[i]`; every process must get the same list.)
//!
//! `--protocol max` runs the event-driven uniform gossip-max
//! (`gossip_drr::handler::MaxGossipHandler`, each node's input derived
//! from its id); `--protocol ae` runs the anti-entropy node
//! (`gossip_ae::AeNode`, static signal). Both are the exact handler types
//! the simulator suites pin — nothing is reimplemented here.
//!
//! `--member` wraps either protocol in the SWIM membership layer
//! (`gossip-member`): probes, failure detection, and peer sampling over
//! the discovered live view. `--join 0` (any seed list) switches from
//! static bootstrap to join-via-seed discovery; in one-process mode
//! `--leave` announces a graceful departure at the run deadline:
//! ```text
//! cargo run --release --example node -- --cluster 16 --protocol max --member --join 0
//! cargo run --release --example node -- \
//!   --me 2 --peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//!   --join 0 --leave --run-ms 5000
//! ```

use drr_gossip::ae::protocol::{AeConfig, AeNode};
use drr_gossip::ae::signal::SignalModel;
use drr_gossip::drr::handler::{MaxGossipConfig, MaxGossipHandler};
use drr_gossip::member::{Member, MemberConfig};
use drr_gossip::net::{AuthKey, Handler, NodeId, SimConfig, WireMsg};
use gossip_node::{Cluster, NodeHost};
use std::net::SocketAddr;
use std::time::Duration;

struct Args {
    cluster: Option<usize>,
    me: usize,
    peers: Vec<SocketAddr>,
    protocol: String,
    run_ms: u64,
    seed: u64,
    /// Where to serve `/metrics` + `/status` (e.g. `127.0.0.1:9100`;
    /// port 0 for ephemeral). `None` = no endpoint.
    status_addr: Option<String>,
    /// Wrap the protocol in the SWIM membership layer (`gossip-member`).
    /// Implied by `--join` and `--leave`.
    member: bool,
    /// Seed node ids for join-via-seed bootstrap; a node not in this list
    /// discovers the cluster by announcing itself to one of them. Empty +
    /// `--member` = static bootstrap (everyone known from boot).
    join: Vec<usize>,
    /// Announce a graceful departure (self-Dead at a final incarnation)
    /// when the run deadline is reached, just before exiting.
    leave: bool,
    /// SWIM probe period (ms).
    probe_ms: u64,
    /// Cluster auth key passphrase: every frame is sealed with a
    /// truncated HMAC-SHA256 tag, and bare or badly tagged frames are
    /// rejected (counted, never fatal).
    auth_key: Option<String>,
    /// Cluster mode on OS threads: one worker thread per node
    /// (`Cluster::start_threads`) instead of the single-threaded
    /// round-robin.
    threads: bool,
    /// Cluster mode only: run an in-process attacker thread hammering
    /// node 0 with bare and tampered frames for the whole run, so the
    /// `auth_reject` counter (stdout and `/metrics`) has something to
    /// count.
    inject_hostile: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  node --cluster <n> [--protocol max|ae] [--threads] [--run-ms MS] [--seed S] \
         [--status-addr HOST:PORT] [--auth-key PHRASE] [--inject-hostile] [--member] \
         [--join I,J,...] [--probe-ms MS]\n  \
         node --me <i> --peers a:p,b:p,... [--protocol max|ae] [--run-ms MS] [--seed S] \
         [--status-addr HOST:PORT] [--auth-key PHRASE] [--member] [--join I,J,...] [--leave] \
         [--probe-ms MS]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        cluster: None,
        me: usize::MAX,
        peers: Vec::new(),
        protocol: "max".to_string(),
        run_ms: 2_000,
        seed: 7,
        status_addr: None,
        member: false,
        join: Vec::new(),
        leave: false,
        probe_ms: 250,
        auth_key: None,
        threads: false,
        inject_hostile: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--cluster" => args.cluster = Some(value().parse().unwrap_or_else(|_| usage())),
            "--me" => args.me = value().parse().unwrap_or_else(|_| usage()),
            "--peers" => {
                args.peers = value()
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--protocol" => args.protocol = value(),
            "--run-ms" => args.run_ms = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--status-addr" => args.status_addr = Some(value()),
            "--member" => args.member = true,
            "--join" => {
                args.member = true;
                args.join = value()
                    .split(',')
                    .map(|i| i.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--leave" => {
                args.member = true;
                args.leave = true;
            }
            "--probe-ms" => args.probe_ms = value().parse().unwrap_or_else(|_| usage()),
            "--auth-key" => args.auth_key = Some(value()),
            "--threads" => args.threads = true,
            "--inject-hostile" => args.inject_hostile = true,
            _ => usage(),
        }
    }
    if args.cluster.is_none() && (args.peers.is_empty() || args.me >= args.peers.len()) {
        usage();
    }
    args
}

/// The cluster key `--auth-key` names, if any.
fn cluster_key(args: &Args) -> Option<AuthKey> {
    args.auth_key.as_deref().map(AuthKey::from_passphrase)
}

/// `--inject-hostile`: an attacker thread flooding `target` with a bare
/// frame (what a keyless cluster would accept) and, when the cluster has
/// a key, a sealed-then-tampered one. Returns the stop flag and the
/// handle; the thread reports how many frames it sent.
fn spawn_attacker(
    target: SocketAddr,
    key: Option<AuthKey>,
) -> (
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<u64>,
) {
    use drr_gossip::net::{frame_with_payload, seal_frame};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let socket = std::net::UdpSocket::bind(("127.0.0.1", 0)).expect("attacker socket");
        let from = NodeId::new(1);
        let mut frames: Vec<Vec<u8>> = vec![frame_with_payload(from, b"forged")];
        if let Some(key) = &key {
            let mut tampered =
                seal_frame(from, drr_gossip::obs::TraceCtx::NONE, Some(key), b"forged");
            *tampered.last_mut().unwrap() ^= 0x01;
            frames.push(tampered);
        }
        let mut sent = 0;
        while !flag.load(Ordering::Relaxed) {
            for frame in &frames {
                if socket.send_to(frame, target).is_ok() {
                    sent += 1;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        sent
    });
    (stop, handle)
}

/// The `MemberConfig` the flags describe: join-via-seed when `--join`
/// named seeds, static bootstrap otherwise.
fn member_config(args: &Args) -> MemberConfig {
    let base = MemberConfig::default().with_probe_interval_us(args.probe_ms.max(1) * 1_000);
    if args.join.is_empty() {
        MemberConfig {
            static_bootstrap: true,
            ..base
        }
    } else {
        MemberConfig {
            seeds: args.join.iter().map(|&i| NodeId::new(i)).collect(),
            ..base
        }
    }
}

/// One `/status`-style line summarising a member's view of the cluster.
fn member_summary<H: Handler>(m: &Member<H>) -> String {
    let (alive, suspect, dead, unknown) = m.view_counts();
    format!(
        "incarnation {} | view: {alive} alive, {suspect} suspect, {dead} dead, {unknown} unknown",
        m.incarnation()
    )
}

/// Each node's gossip-max input, derived from its id (every process
/// computes the same vector, so the true maximum is known everywhere).
fn own_value(me: NodeId) -> f64 {
    ((me.index() * 37) % 1009) as f64
}

fn max_handler(n: usize, me: NodeId) -> MaxGossipHandler {
    let sim = SimConfig::new(n);
    let config = MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        push_interval_us: 1_000,
    };
    MaxGossipHandler::new(me, own_value(me), config)
}

fn ae_handler(n: usize, me: NodeId) -> AeNode {
    let sim = SimConfig::new(n).with_value_range(10_000.0);
    let config = AeConfig::default()
        .with_tick_us(4_000)
        .with_update_us(0)
        .with_expiry_us(0)
        .with_signal(SignalModel::uniform(0.0, 10_000.0));
    AeNode::new(me, n, sim.id_bits(), sim.value_bits(), config)
}

fn run_member<H: Handler>(
    args: &Args,
    handler: H,
    on_deadline: impl FnOnce(&mut NodeHost<H>),
    report: impl Fn(&NodeHost<H>) -> String,
) where
    H::Msg: WireMsg,
{
    let me = NodeId::new(args.me);
    let bind = args.peers[args.me];
    let mut host = NodeHost::bind(bind, me, args.peers.clone(), args.seed, handler)
        .unwrap_or_else(|e| {
            eprintln!("cannot bind {bind}: {e}");
            std::process::exit(1);
        })
        // A small event ring so `/trace` shows the last protocol activity.
        .with_trace(256);
    if let Some(key) = cluster_key(args) {
        host = host.with_auth_key(key);
        println!("frame authentication: required (--auth-key)");
    }
    if let Some(addr) = &args.status_addr {
        match host.serve_status(addr.as_str()) {
            Ok(bound) => println!("status endpoint on http://{bound} (/metrics /status /trace)"),
            Err(e) => {
                eprintln!("cannot bind status endpoint {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "node {me} up on {} ({} peers), running {} ms",
        host.local_addr().expect("bound socket has an address"),
        host.n(),
        args.run_ms
    );
    host.run_for(Duration::from_millis(args.run_ms));
    on_deadline(&mut host);
    print_stats(&format!("node {me} done"), host.stats());
    println!("  timer lag p99: {} us", host.timer_lag().quantile(0.99));
    println!("  {}", report(&host));
}

/// Every `NodeStats` counter, so nothing the host measured is invisible
/// from the command line.
fn print_stats(who: &str, stats: &gossip_node::NodeStats) {
    println!(
        "{who}: {} msgs in / {} out ({} wire bytes out, {} in), {} timer fires \
         ({} cancelled), {} starts",
        stats.messages_dispatched,
        stats.datagrams_sent,
        stats.bytes_sent,
        stats.bytes_received,
        stats.timer_fires,
        stats.cancelled_timer_skips,
        stats.handler_starts,
    );
    println!(
        "  errors: {} send, {} oversize, {} recv, {} decode, {} auth rejects, \
         {} unknown senders, {} addr mismatches ({} datagrams received)",
        stats.send_errors,
        stats.send_oversize,
        stats.recv_errors,
        stats.decode_errors,
        stats.auth_reject,
        stats.unknown_sender_drops,
        stats.addr_mismatches,
        stats.datagrams_received,
    );
}

/// Stop and settle an `--inject-hostile` attacker, reporting its volume.
fn finish_attacker(
    attacker: Option<(
        std::sync::Arc<std::sync::atomic::AtomicBool>,
        std::thread::JoinHandle<u64>,
    )>,
) {
    if let Some((stop, handle)) = attacker {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let sent = handle.join().expect("attacker thread");
        println!("attacker: {sent} hostile frames injected at node 0");
    }
}

/// Cluster mode: n in-process hosts on loopback sockets, round-robined
/// from this thread, or one OS thread each with `--threads`. Either way
/// the `/metrics` page carries one series per node under a `node` label.
fn run_cluster<H>(
    n: usize,
    args: &Args,
    factory: impl Fn(NodeId) -> H,
    done: impl Fn(&H) -> bool + Send + Sync + 'static,
    report: impl Fn(&H) -> String,
) where
    H: Handler + Send + 'static,
    H::Msg: WireMsg,
{
    let mut cluster = Cluster::bind(n, args.seed, factory)
        .unwrap_or_else(|e| {
            eprintln!("cannot bind a loopback cluster: {e}");
            std::process::exit(1);
        })
        // A small per-host event ring so `/metrics` carries the causal
        // `trace_chain_*` families.
        .with_trace(256);
    if let Some(key) = cluster_key(args) {
        cluster = cluster.with_auth_key(key);
        println!("frame authentication: required (--auth-key)");
    }
    let schedule = if args.threads {
        "one OS thread each"
    } else {
        "round-robin on one thread"
    };
    println!("cluster: {n} nodes, {schedule}, on 127.0.0.1 ephemeral ports");
    if let Some(addr) = &args.status_addr {
        match cluster.serve_status(addr.as_str()) {
            Ok(bound) => println!("status endpoint on http://{bound} (/metrics /status)"),
            Err(e) => {
                eprintln!("cannot bind status endpoint {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    let attacker = args.inject_hostile.then(|| {
        let target = cluster
            .host(NodeId::new(0))
            .local_addr()
            .expect("bound socket has an address");
        spawn_attacker(target, cluster_key(args))
    });
    if args.threads {
        cluster.start_threads();
    }
    let timeout = Duration::from_millis(args.run_ms.max(1));
    let converged = cluster.run_until(timeout, move |h| done(h.handler()));
    match converged {
        Some(elapsed) => println!("converged in {:.1} ms (wall)", elapsed.as_secs_f64() * 1e3),
        None => println!("not converged within {} ms", args.run_ms),
    }
    // With a status endpoint up, keep serving scrapes for the rest of the
    // requested run instead of exiting at convergence.
    if args.status_addr.is_some() {
        if let Some(elapsed) = converged {
            if let Some(remaining) = timeout.checked_sub(elapsed) {
                cluster.run_for(remaining);
            }
        }
    }
    finish_attacker(attacker);
    cluster.stop_threads();
    print_stats("wire totals", &cluster.total_stats());
    for (node, h) in cluster.iter_handlers().take(4) {
        println!("  node {node}: {}", report(h));
    }
    if n > 4 {
        println!("  ... ({} more nodes)", n - 4);
    }
}

/// Cluster mode, with or without the membership layer: `--member` wraps
/// the factory in [`Member`], requires every node to finish the join
/// handshake before the convergence goal counts, and prefixes each node's
/// report with its membership view.
fn dispatch_cluster<H>(
    n: usize,
    args: &Args,
    factory: impl Fn(NodeId) -> H,
    done: impl Fn(&H) -> bool + Send + Sync + 'static,
    report: impl Fn(&H) -> String,
) where
    H: Handler + Send + 'static,
    H::Msg: WireMsg,
{
    if args.member {
        let config = member_config(args);
        run_cluster(
            n,
            args,
            move |me| Member::new(config.clone(), factory(me)),
            move |m: &Member<H>| m.is_joined() && done(m.inner()),
            move |m: &Member<H>| format!("{} | {}", member_summary(m), report(m.inner())),
        );
    } else {
        run_cluster(n, args, factory, done, report);
    }
}

/// One-process-per-node mode, with or without the membership layer:
/// `--join` makes this node discover the cluster through the named seeds,
/// `--leave` announces a graceful departure at the run deadline.
fn dispatch_process<H: Handler>(args: &Args, handler: H, report: impl Fn(&H) -> String)
where
    H::Msg: WireMsg,
{
    if args.member {
        let leave = args.leave;
        run_member(
            args,
            Member::new(member_config(args), handler),
            move |host| {
                if leave {
                    host.with_handler(|h, mailbox| h.initiate_leave(mailbox));
                    println!(
                        "node {} announced a graceful leave (final incarnation {})",
                        host.me(),
                        host.handler().incarnation() + 1
                    );
                }
            },
            move |host| {
                format!(
                    "{} | {}",
                    member_summary(host.handler()),
                    report(host.handler().inner())
                )
            },
        );
    } else {
        run_member(args, handler, |_| {}, move |host| report(host.handler()));
    }
}

fn main() {
    let args = parse_args();
    match (args.cluster, args.protocol.as_str()) {
        (Some(n), "max") => {
            let exact = (0..n)
                .map(|i| own_value(NodeId::new(i)))
                .fold(f64::NEG_INFINITY, f64::max);
            dispatch_cluster(
                n,
                &args,
                move |me| max_handler(n, me),
                move |h: &MaxGossipHandler| h.current_max() == exact,
                |h| format!("max estimate = {}", h.current_max()),
            );
        }
        (Some(n), "ae") => dispatch_cluster(
            n,
            &args,
            move |me| ae_handler(n, me),
            move |h: &AeNode| h.store().known() == n,
            move |h| {
                format!(
                    "knows {}/{} origins, mean estimate = {:?}",
                    h.store().known(),
                    n,
                    h.estimate(u64::MAX)
                )
            },
        ),
        (None, "max") => {
            let n = args.peers.len();
            let me = NodeId::new(args.me);
            dispatch_process(&args, max_handler(n, me), |h| {
                format!("max estimate = {}", h.current_max())
            });
        }
        (None, "ae") => {
            let n = args.peers.len();
            let me = NodeId::new(args.me);
            dispatch_process(&args, ae_handler(n, me), move |h| {
                format!(
                    "knows {}/{} origins, mean estimate = {:?}",
                    h.store().known(),
                    n,
                    h.estimate(u64::MAX)
                )
            });
        }
        _ => usage(),
    }
}
