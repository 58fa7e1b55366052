//! The determinism suite: seed-reproducibility of the round-barrier
//! facade under heavy-tailed latency and churn (pinned to golden
//! fingerprints, see [`common::Golden`]), thread-count invariance of the
//! sweep runner, and — for the event-driven face — pinned timer/delivery
//! ordering and shard-count invariance. Bit-equality with the synchronous
//! backend in the compatibility configuration lives in `facade.rs`.

use gossip_drr::handler::{MaxGossipConfig, MaxGossipHandler};
use gossip_drr::protocol::{drr_gossip_max, DrrGossipConfig};
use gossip_net::{Handler, Mailbox, Network, NodeId, Phase, SimConfig, TimerId};
use gossip_obs::{TraceKind, TraceReason};
use gossip_runtime::{
    AsyncConfig, ChurnModel, LatencyModel, ShardedDriver, ShardedTransport, SweepRunner,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

mod common;
use common::{assert_golden, check_golden, golden_of, shard_counts, Golden};

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 1009) as f64).collect()
}

fn churny_config(n: usize, seed: u64) -> AsyncConfig {
    AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.05))
        .with_latency(LatencyModel::LogNormal {
            median_us: 1_000.0,
            sigma: 0.7,
        })
        .with_link_spread(0.3)
        .with_churn(ChurnModel::per_round(0.01, 0.1).with_min_alive(n / 2))
}

/// Algorithm 7 on `t`, fingerprinted.
fn gossip_max_golden(t: &mut ShardedTransport, vals: &[f64]) -> Golden {
    Golden::new().report(&drr_gossip_max(t, vals, &DrrGossipConfig::paper()))
}

#[test]
fn facade_is_bit_reproducible_under_latency_and_churn() {
    // Log-normal latency, spread links and churn: the protocol outcome,
    // virtual time and engine metrics are a pure function of the seed —
    // pinned absolutely, at every shard count.
    let n = 1200;
    let vals = values(n);
    let golden = 0x1470_EE9A_98AD_E453;
    assert_golden(
        "gossip-max, log-normal",
        &churny_config(n, 42),
        golden,
        |t| gossip_max_golden(t, &vals),
    );

    // ... and a different seed produces a different run.
    let other = golden_of(&churny_config(n, 43), 1, |t| gossip_max_golden(t, &vals));
    assert_ne!(golden, other);
}

#[test]
fn sweep_runner_results_do_not_depend_on_thread_count() {
    let n = 400;
    let vals = values(n);
    let seeds = SweepRunner::trial_seeds(0xD0_5EED, 8);
    let trial =
        |_: &(), seed: u64| golden_of(&churny_config(n, seed), 1, |t| gossip_max_golden(t, &vals));
    let one = SweepRunner::with_threads(1).run_grid(&[()], &seeds, trial);
    let two = SweepRunner::with_threads(2).run_grid(&[()], &seeds, trial);
    let eight = SweepRunner::with_threads(8).run_grid(&[()], &seeds, trial);
    assert_eq!(one, two);
    assert_eq!(one, eight);
    check_golden(
        "the eight sweep trials",
        Golden::new().words(one).finish(),
        0x1B4F_B6BC_047E_410C,
    );
}

/// One recorded callback: `(virtual time, kind, node/sender index)`.
type ProbeEvent = (u64, &'static str, usize);

/// A handler that records every callback into a shared, globally ordered
/// log — the instrument for pinning dispatch interleavings.
#[derive(Debug)]
struct Probe {
    me: NodeId,
    log: Arc<Mutex<Vec<ProbeEvent>>>,
}

impl Handler for Probe {
    type Msg = ();

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<()>) {
        self.log
            .lock()
            .unwrap()
            .push((mailbox.now_us(), "start", self.me.index()));
        if self.me.index() == 0 {
            // Scheduled before the timer below: the message's Deliver event
            // carries a smaller origin sequence number than node 0's timer.
            mailbox.send(NodeId::new(1), Phase::Other, 8, ());
        }
        mailbox.set_timer(1_000, TimerId(0));
    }

    fn on_message(&mut self, from: NodeId, _msg: (), mailbox: &mut dyn Mailbox<()>) {
        self.log
            .lock()
            .unwrap()
            .push((mailbox.now_us(), "msg", from.index()));
    }

    fn on_timer(&mut self, _timer: TimerId, mailbox: &mut dyn Mailbox<()>) {
        self.log
            .lock()
            .unwrap()
            .push((mailbox.now_us(), "timer", self.me.index()));
    }
}

#[test]
fn timer_events_order_deterministically_against_deliveries() {
    // Constant 1 ms latency puts node 0's message and every timer at the
    // same virtual instant, t = 1000. Ties break by (origin node, the
    // origin's own schedule order), which the on_start sequence fixes
    // completely: node 0 sends before arming its timer, and node 1's timer
    // sorts after both. The interleaving is therefore not merely
    // reproducible — it is *this*:
    let golden = vec![
        (0, "start", 0),
        (0, "start", 1),
        (1_000, "msg", 0),   // origin 0, its first scheduled event
        (1_000, "timer", 0), // origin 0, its second
        (1_000, "timer", 1), // origin 1, its first
    ];
    for _ in 0..3 {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        // One shard: the handlers share a log, which two shards on two
        // threads would fill in either order.
        let config = AsyncConfig::new(SimConfig::new(2).with_seed(3));
        let mut driver = ShardedDriver::new(config, 1, move |me| Probe {
            me,
            log: Arc::clone(&sink),
        });
        driver.run_until(1_000);
        assert_eq!(*log.lock().unwrap(), golden);
        assert_eq!(driver.metrics().timer_fires, 2);
        assert_eq!(driver.metrics().messages_dispatched, 1);
    }
}

fn max_gossip_driver(n: usize, seed: u64, vals: Vec<f64>) -> ShardedDriver<MaxGossipHandler> {
    let sim = SimConfig::new(n).with_seed(seed).with_loss_prob(0.05);
    let handler_config = MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        ..MaxGossipConfig::default()
    };
    let config = AsyncConfig::new(sim)
        .with_latency(LatencyModel::LogNormal {
            median_us: 700.0,
            sigma: 0.6,
        })
        .with_link_spread(0.25)
        .with_churn(ChurnModel::per_round(0.005, 0.1).with_min_alive(n / 2));
    ShardedDriver::new(config, 1, move |me| {
        MaxGossipHandler::new(me, vals[me.index()], handler_config)
    })
}

#[test]
fn event_driven_dispatch_order_is_invariant_across_thread_counts() {
    // The driver's order hash fingerprints the entire dispatch schedule —
    // timers, deliveries and crashes in key order. Sweeping trials
    // across worker counts must reproduce it bit for bit, and resuming in
    // slices must walk the same schedule as one uninterrupted run.
    let n = 300;
    let vals = values(n);
    let seeds = SweepRunner::trial_seeds(0xD1CE, 6);
    let trial = |&slices: &u64, seed: u64| {
        let mut driver = max_gossip_driver(n, seed, vals.clone());
        for k in 1..=slices {
            driver.run_until(k * 60_000 / slices);
        }
        let maxima: Vec<u64> = driver
            .iter_handlers()
            .map(|(_, h)| h.current_max().to_bits())
            .collect();
        let m = driver.metrics();
        (m.order_hash, m.timer_fires, m.rejoin_log, maxima)
    };
    let grid = [1u64, 4];
    let one = SweepRunner::with_threads(1).run_grid(&grid, &seeds, trial);
    let two = SweepRunner::with_threads(2).run_grid(&grid, &seeds, trial);
    let eight = SweepRunner::with_threads(8).run_grid(&grid, &seeds, trial);
    assert_eq!(one, two);
    assert_eq!(one, eight);
    // Slicing the run differently must not change the schedule either:
    // grid row 0 (one shot) equals grid row 1 (four slices), seed by seed.
    assert_eq!(one[..seeds.len()], one[seeds.len()..]);
}

fn sharded_max_driver(n: usize, seed: u64, shards: usize) -> ShardedDriver<MaxGossipHandler> {
    let sim = SimConfig::new(n).with_seed(seed).with_loss_prob(0.05);
    let handler_config = MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        ..MaxGossipConfig::default()
    };
    let vals = values(n);
    let config = AsyncConfig::new(sim)
        .with_latency(LatencyModel::Uniform {
            lo_us: 300,
            hi_us: 2_000,
        })
        .with_link_spread(0.25)
        .with_churn(ChurnModel::per_round(0.005, 0.1).with_min_alive(n / 2));
    ShardedDriver::new(config, shards, move |me| {
        MaxGossipHandler::new(me, vals[me.index()], handler_config)
    })
}

/// Everything a sharded run can disagree on: the dispatch-order hash, the
/// driver counters, the rejoin schedule, the merged transport metrics and
/// every node's final store.
type ShardedFingerprint = (u64, u64, u64, Vec<(u64, NodeId)>, u64, Vec<u64>);

fn sharded_fingerprint(driver: &ShardedDriver<MaxGossipHandler>) -> ShardedFingerprint {
    let m = driver.metrics();
    (
        m.order_hash,
        m.timer_fires,
        m.stale_timer_skips,
        m.rejoin_log.clone(),
        driver.net_metrics().total_messages(),
        driver
            .iter_handlers()
            .map(|(_, h)| h.current_max().to_bits())
            .collect(),
    )
}

#[test]
fn sharded_dispatch_is_invariant_across_shard_counts_and_reruns() {
    // The sharded engine's determinism contract: the entire dispatch
    // schedule — fingerprinted by the shard-count-invariant order hash —
    // and every node's final store are identical across shard counts
    // (CI pins {1, 2, 8} via GOSSIP_TEST_SHARDS) and across re-runs.
    let n = 400;
    let run = |shards| {
        let mut driver = sharded_max_driver(n, 0xD15C, shards);
        driver.run_until(60_000);
        sharded_fingerprint(&driver)
    };
    let counts = shard_counts();
    let reference = run(counts[0]);
    for &shards in &counts {
        assert_eq!(reference, run(shards), "shard count {shards} diverged");
    }
    // Re-run reproducibility, and seed sensitivity as the control.
    assert_eq!(reference, run(counts[0]));
    let mut other = sharded_max_driver(n, 0xD15D, counts[0]);
    other.run_until(60_000);
    assert_ne!(reference.0, sharded_fingerprint(&other).0);
}

#[test]
fn sharded_runs_are_invariant_across_slicing_and_worker_paths() {
    // Slicing the event loop differently, or flipping between the scoped-
    // thread and sequential execution paths, must not move a single event.
    let n = 300;
    let one_shot = {
        let mut driver = sharded_max_driver(n, 0xBEEF, 8).with_parallel(false);
        driver.run_until(50_000);
        sharded_fingerprint(&driver)
    };
    let sliced = {
        let mut driver = sharded_max_driver(n, 0xBEEF, 8).with_parallel(false);
        for t in [1, 999, 12_345, 31_007, 31_008, 50_000] {
            driver.run_until(t);
        }
        sharded_fingerprint(&driver)
    };
    let threaded = {
        let mut driver = sharded_max_driver(n, 0xBEEF, 8).with_parallel(true);
        driver.run_until(50_000);
        sharded_fingerprint(&driver)
    };
    assert_eq!(one_shot, sliced);
    assert_eq!(one_shot, threaded);
}

#[test]
fn sharded_max_agrees_with_the_other_execution_models() {
    // Other execution model, same aggregate: the event-driven face must
    // land every node on the maximum the round protocols compute.
    let n = 600;
    let vals = values(n);
    let mut net = Network::new(SimConfig::new(n).with_seed(31));
    let round_report = drr_gossip_max(&mut net, &vals, &DrrGossipConfig::paper());
    assert_eq!(round_report.fraction_exact(), 1.0);

    let sim = SimConfig::new(n).with_seed(31);
    let handler_config = MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        ..MaxGossipConfig::default()
    };
    let vals_for_driver = vals.clone();
    let mut driver = ShardedDriver::new(AsyncConfig::new(sim), 8, move |me| {
        MaxGossipHandler::new(me, vals_for_driver[me.index()], handler_config)
    });
    driver.run_until(50_000);
    for (node, h) in driver.iter_handlers() {
        assert_eq!(
            h.current_max(),
            round_report.exact,
            "node {node:?} disagrees across execution models"
        );
    }
}

/// A failure-detector-shaped workload for the cancellation contract: every
/// node heartbeats a random peer each interval and keeps one "suspect"
/// timer armed, cancelled and re-armed by every message it receives. Under
/// loss and churn both paths run hot: cancels suppress armed timers, and
/// quiet stretches let suspicion fire.
#[derive(Debug, Clone)]
struct Suspector {
    me: NodeId,
    heartbeat_us: u64,
    suspect_us: u64,
    heartbeats_seen: u64,
    suspicions: u64,
}

const HB: TimerId = TimerId(0);
const SUSPECT: TimerId = TimerId(1);

impl Handler for Suspector {
    type Msg = ();

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<()>) {
        mailbox.set_timer(gossip_net::stagger_us(self.me, self.heartbeat_us, 2), HB);
        mailbox.set_timer(self.suspect_us, SUSPECT);
    }

    fn on_message(&mut self, _from: NodeId, _msg: (), mailbox: &mut dyn Mailbox<()>) {
        self.heartbeats_seen += 1;
        mailbox.cancel_timer(SUSPECT);
        mailbox.set_timer(self.suspect_us, SUSPECT);
    }

    fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<()>) {
        match timer {
            HB => {
                let peer = mailbox.sample_peer();
                mailbox.send(peer, Phase::Other, 16, ());
                mailbox.set_timer(self.heartbeat_us, HB);
            }
            SUSPECT => {
                self.suspicions += 1;
                mailbox.set_timer(self.suspect_us, SUSPECT);
            }
            other => panic!("unexpected timer {other}"),
        }
    }
}

fn suspector_factory(n: usize) -> impl Fn(NodeId) -> Suspector + Send + 'static {
    let _ = n;
    move |me| Suspector {
        me,
        heartbeat_us: 1_000,
        suspect_us: 3_500,
        heartbeats_seen: 0,
        suspicions: 0,
    }
}

#[test]
fn cancellation_is_order_stable_across_shard_counts() {
    // The determinism contract extended to cancel_timer + jitter: the
    // dispatch schedule (order hash), the suppressed-timer count and every
    // node's observable state must not depend on how the node space is
    // sharded — with and without host-injected timer jitter.
    let n = 96;
    let run = |seed, shards, jitter| {
        let config = AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.2))
            .with_latency(LatencyModel::Uniform {
                lo_us: 300,
                hi_us: 2_000,
            })
            .with_churn(ChurnModel::per_round(0.01, 0.1).with_min_alive(n / 2));
        let mut d =
            ShardedDriver::new(config, shards, suspector_factory(n)).with_timer_jitter_us(jitter);
        d.run_until(60_000);
        let m = d.metrics();
        let states: Vec<(u64, u64)> = d
            .iter_handlers()
            .map(|(_, h)| (h.heartbeats_seen, h.suspicions))
            .collect();
        (
            m.order_hash,
            m.cancelled_timer_skips,
            m.timer_fires,
            m.stale_timer_skips,
            states,
        )
    };
    for &jitter in &[0u64, 250] {
        let counts = common::shard_counts();
        let reference = run(0xCA9, counts[0], jitter);
        assert!(
            reference.1 > 0,
            "the workload must actually exercise cancellation (jitter {jitter})"
        );
        let suspicions: u64 = reference.4.iter().map(|&(_, s)| s).sum();
        assert!(
            suspicions > 0,
            "quiet stretches must let suspicion fire (jitter {jitter})"
        );
        for &shards in &counts {
            assert_eq!(
                reference,
                run(0xCA9, shards, jitter),
                "shard count {shards} changed a cancellation-heavy run (jitter {jitter})"
            );
        }
        assert_ne!(
            reference.0,
            run(0xCAA, counts[0], jitter).0,
            "a seed change must move the schedule (jitter {jitter})"
        );
    }
}

/// A [`Suspector`] that remembers when its incarnation booted, so a stale
/// suspicion timer leaking across a crash/rejoin boundary is observable:
/// a fresh incarnation's first suspicion cannot legitimately fire before
/// `boot + suspect_us`, because `on_start` armed the timer at boot.
#[derive(Debug, Clone)]
struct EpochSuspector {
    me: NodeId,
    heartbeat_us: u64,
    suspect_us: u64,
    boot_us: u64,
    early_fires: u64,
    suspicions: u64,
    heartbeats_seen: u64,
}

impl Handler for EpochSuspector {
    type Msg = ();

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<()>) {
        self.boot_us = mailbox.now_us();
        mailbox.set_timer(gossip_net::stagger_us(self.me, self.heartbeat_us, 3), HB);
        mailbox.set_timer(self.suspect_us, SUSPECT);
    }

    fn on_message(&mut self, _from: NodeId, _msg: (), mailbox: &mut dyn Mailbox<()>) {
        self.heartbeats_seen += 1;
        mailbox.cancel_timer(SUSPECT);
        mailbox.set_timer(self.suspect_us, SUSPECT);
    }

    fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<()>) {
        match timer {
            HB => {
                let peer = mailbox.sample_peer();
                mailbox.send(peer, Phase::Other, 16, ());
                mailbox.set_timer(self.heartbeat_us, HB);
            }
            SUSPECT => {
                if mailbox.now_us() < self.boot_us + self.suspect_us {
                    // Only a timer armed *before* this incarnation booted
                    // can be due this early — a stale-timer leak.
                    self.early_fires += 1;
                }
                self.suspicions += 1;
                mailbox.set_timer(self.suspect_us, SUSPECT);
            }
            other => panic!("unexpected timer {other}"),
        }
    }
}

#[test]
fn rejoin_within_a_suspicion_window_never_inherits_the_stale_timer() {
    // The membership layer's stale-timer edge, pinned at the driver level:
    // a node that crashes and rejoins *within one suspicion window* (the
    // churn window, 850 µs, is a fraction of suspect_us) boots a fresh
    // incarnation whose suspicion deadline restarts from the rejoin — the
    // pre-crash timer, due mid-window, must be swallowed by the epoch
    // check, never fire into the new incarnation and kill it early. And
    // like every driver property, the outcome is shard-count invariant.
    let n = 96;
    let run = |shards| {
        let config = AsyncConfig::new(SimConfig::new(n).with_seed(0x4E10).with_loss_prob(0.1))
            .with_latency(LatencyModel::Uniform {
                lo_us: 300,
                hi_us: 2_000,
            })
            .with_churn(ChurnModel::per_round(0.05, 0.5).with_min_alive(n / 2));
        let mut d = ShardedDriver::new(config, shards, |me| EpochSuspector {
            me,
            heartbeat_us: 1_000,
            suspect_us: 3_500,
            boot_us: 0,
            early_fires: 0,
            suspicions: 0,
            heartbeats_seen: 0,
        })
        .with_window_us(850);
        d.run_until(60_000);
        let states: Vec<(u64, u64, u64, u64)> = d
            .iter_handlers()
            .map(|(_, h)| (h.boot_us, h.early_fires, h.suspicions, h.heartbeats_seen))
            .collect();
        let m = d.metrics();
        (
            m.order_hash,
            m.stale_timer_skips,
            m.rejoin_log.clone(),
            states,
        )
    };
    let counts = common::shard_counts();
    let reference = run(counts[0]);
    assert!(
        !reference.2.is_empty(),
        "churn produced no rejoins — the edge was not exercised"
    );
    assert!(
        reference.1 > 0,
        "no stale timer was ever skipped — the edge was not exercised"
    );
    // Rejoins restart mid-run, so rebooted incarnations exist…
    assert!(reference.3.iter().any(|&(boot, ..)| boot > 0));
    // …and not one of them saw a pre-crash suspicion timer fire early.
    for (i, &(boot, early, ..)) in reference.3.iter().enumerate() {
        assert_eq!(
            early, 0,
            "node {i} (booted {boot} µs): a stale suspicion timer crossed the rejoin"
        );
    }
    for &shards in &counts {
        assert_eq!(reference, run(shards), "shard count {shards} diverged");
    }
}

#[test]
fn observability_is_passive_on_both_faces_at_every_shard_count() {
    // The instrumentation contract: enabling the trace ring and scraping
    // the registry mid-run must not move a single event. The order hash —
    // the fingerprint of the entire dispatch schedule — and every node's
    // final state must be bit-identical with observability on or off, on
    // both faces of the sharded core, at every shard count CI pins.
    let n = 400;

    let sharded_run = |shards: usize, traced: bool| {
        let mut driver = sharded_max_driver(n, 0x0B5, shards);
        if traced {
            driver = driver.with_trace(512);
        }
        driver.run_until(30_000);
        if traced {
            // A scrape in the middle of the run: purely a read.
            let mut registry = gossip_obs::Registry::new();
            driver.fill_registry(&mut registry);
            assert!(!registry.is_empty());
        }
        driver.run_until(60_000);
        sharded_fingerprint(&driver)
    };
    let counts = shard_counts();
    let reference = sharded_run(counts[0], false);
    for &shards in &counts {
        assert_eq!(
            reference,
            sharded_run(shards, false),
            "shard count {shards} diverged untraced"
        );
        assert_eq!(
            reference,
            sharded_run(shards, true),
            "tracing changed a {shards}-shard run"
        );
    }

    // And the trace actually recorded something when enabled.
    let mut driver = sharded_max_driver(n, 0x0B5, counts[0]).with_trace(512);
    driver.run_until(60_000);
    let ring = driver.trace().expect("trace enabled");
    assert!(ring.total() > 0, "an instrumented run records events");

    // The round-barrier face under the synchronous-protocol bridge: the
    // raw-transport path mints causal roots per send, and doing so must
    // not move a bit — the traced run lands on the untraced run's golden.
    let vals = values(n);
    let config = churny_config(n, 0x0B5);
    let golden = 0x3623_87EF_5360_A52F;
    assert_golden("gossip-max, untraced", &config, golden, |t| {
        gossip_max_golden(t, &vals)
    });
    for &shards in &counts {
        let mut facade = ShardedTransport::new(config.clone(), shards).with_trace(512);
        let traced = gossip_max_golden(&mut facade, &vals);
        let mut registry = gossip_obs::Registry::new();
        facade.fill_registry(&mut registry);
        assert!(!registry.is_empty());
        assert!(
            facade.trace().expect("trace enabled").total() > 0,
            "an instrumented facade run records events"
        );
        check_golden(
            &format!("gossip-max, traced, {shards} shard(s)"),
            traced
                .word(facade.now_us())
                .async_metrics(&facade.async_metrics())
                .finish(),
            golden,
        );
    }
}

#[test]
fn traced_driver_arrivals_carry_their_sends_context_at_every_shard_count() {
    // A queued delivery's causal context waits in its receiver shard's
    // trace table under the payload's arena key, and a cross-shard send
    // carries it through the exchange. Either way, every arrival must be
    // recorded with exactly the (trace id, hop) its send was — a Recv, or
    // the Drop of a receiver that died in flight — and the tallies must
    // not depend on how the node space is cut.
    let n = 96;
    let run = |shards: usize| {
        let mut driver = sharded_max_driver(n, 0x7ACE, shards).with_trace(1 << 15);
        driver.run_until(40_000);
        let ring = driver.trace().expect("trace enabled");
        assert_eq!(ring.overwritten(), 0, "the ring holds the whole run");
        let mut sends = HashMap::new();
        for send in ring.iter().filter(|e| e.kind == TraceKind::Send) {
            assert!(send.ctx().is_some() && send.hop == 1, "{send:?}");
            // One push per timer fire, each fire a chain of its own.
            assert!(sends.insert(send.trace_id, send).is_none(), "{send:?}");
        }
        let chunk = n.div_ceil(driver.num_shards());
        let (mut local, mut cross, mut dead) = (0, 0, 0);
        let (mut recvs, mut arrivals) = (0, 0);
        for arrival in ring.iter() {
            match (arrival.kind, arrival.reason) {
                (TraceKind::Recv, _) => recvs += 1,
                (TraceKind::Drop, TraceReason::DeadEndpoint) => dead += 1,
                _ => continue,
            }
            arrivals += 1;
            let send = sends
                .get(&arrival.trace_id)
                .unwrap_or_else(|| panic!("{arrival:?} has no send"));
            assert_eq!(arrival.ctx(), send.ctx(), "{arrival:?} vs {send:?}");
            assert_eq!((arrival.node, arrival.peer), (send.peer, send.node));
            assert!(arrival.at_us > send.at_us);
            if send.node as usize / chunk == send.peer as usize / chunk {
                local += 1;
            } else {
                cross += 1;
            }
        }
        assert!(local > 0, "{shards} shard(s): no local delivery");
        assert!(
            shards == 1 || cross > 0,
            "{shards} shards: no cross-shard delivery"
        );
        assert!(dead > 0, "churn killed no receiver in flight");
        let chains = gossip_obs::reconstruct(&ring).chains.len();
        (recvs, arrivals, sends.len(), chains)
    };
    let counts = shard_counts();
    let reference = run(counts[0]);
    for &shards in &counts[1..] {
        assert_eq!(reference, run(shards), "shard count {shards} diverged");
    }
}

#[test]
fn drr_gossip_still_converges_under_churn_and_heavy_tails() {
    // The acceptance scenario: ≥ 1% per-round churn, log-normal latency.
    // Nodes that churned away during the one-shot protocol and rejoined hold
    // no data (state re-sync is an anti-entropy concern, see ROADMAP), so
    // convergence is judged over the informed population: it must be a solid
    // majority of the final alive set and overwhelmingly hold the true max.
    let n = 2000;
    let vals = values(n);
    let mut outcome = None;
    let golden = golden_of(&churny_config(n, 5), 4, |t| {
        let report = drr_gossip_max(t, &vals, &DrrGossipConfig::paper());
        let golden = Golden::new().report(&report);
        outcome = Some((report, t.async_metrics()));
        golden
    });
    check_golden("gossip-max, n = 2000", golden, 0x6CA9_1E19_31BC_A196);
    let (report, async_metrics) = outcome.expect("the run happened");
    let informed: Vec<f64> = report
        .estimates
        .iter()
        .zip(&report.alive)
        .filter(|(e, &a)| a && e.is_finite())
        .map(|(&e, _)| e)
        .collect();
    let alive_total = report.alive.iter().filter(|&&a| a).count();
    assert!(
        informed.len() * 10 >= alive_total * 7,
        "only {}/{} alive nodes hold an estimate",
        informed.len(),
        alive_total
    );
    let exact = informed.iter().filter(|&&e| e == report.exact).count();
    assert!(
        (exact as f64) / (informed.len() as f64) > 0.95,
        "only {exact}/{} informed nodes agree on the max",
        informed.len()
    );
    assert!(async_metrics.churn_crashes > 0, "churn actually happened");
    assert!(
        async_metrics.latency.quantile_us(0.99) > 2 * async_metrics.latency.quantile_us(0.5),
        "log-normal tail is visible"
    );
}
