//! E21 — SWIM failure detection: latency and false positives vs probe
//! period × loss rate × n, simulator vs real sockets.
//!
//! The membership layer (`gossip-member`) promises two numbers: how fast
//! a genuinely dead member is *declared* Dead everywhere (detection
//! latency, naturally measured in probe periods — one to judge the
//! unanswered probe, `suspect_periods` to let refutation race, one for
//! the sweep), and how rarely a *live* member is wrongly suspected
//! (false positives, driven by message loss racing the indirect-probe
//! leg). This experiment measures both:
//!
//! * **sim rows** — `ShardedDriver` over the discrete-event engine with a
//!   crash-only churn schedule; crashes and Declared-Dead transitions
//!   are read from the passive trace ring, so the measurement itself
//!   moves nothing. Loss is a model parameter, so the false-positive
//!   column sweeps it directly.
//! * **real rows** — `gossip-node`'s `Cluster`: one member stops
//!   being polled (a real kill: its socket stays bound, nothing
//!   answers), survivors run on real UDP until everyone holds a Dead
//!   record. The loopback wire is loss-free, so real rows double as the
//!   zero-false-positive control. Runners without sockets get a note
//!   instead of rows.
//!
//! The claim under test: detection latency lands inside the
//! `3 + 1/(1-loss)`-period envelope on both backends, and loss-free runs
//! raise zero false suspicions.

use super::ExperimentOptions;
use gossip_analysis::{fmt_float, Table};
use gossip_member::{Liveness, Member, MemberConfig};
use gossip_net::{Handler, Mailbox, NodeId, SimConfig, TimerId};
use gossip_obs::{TraceKind, TraceReason};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver};
use std::time::{Duration, Instant};

/// Probe periods simulated per configuration.
const SIM_PERIODS: u64 = 80;

/// Application payload under the membership layer: nothing. E21 measures
/// the detector itself; the aggregate-over-discovered-view story is the
/// loopback suite's and E19's job.
struct Idle;

impl Handler for Idle {
    type Msg = u8;
    fn on_start(&mut self, _mailbox: &mut dyn Mailbox<u8>) {}
    fn on_message(&mut self, _from: NodeId, _msg: u8, _mailbox: &mut dyn Mailbox<u8>) {}
    fn on_timer(&mut self, _timer: TimerId, _mailbox: &mut dyn Mailbox<u8>) {}
}

fn detector_config(probe_interval_us: u64) -> MemberConfig {
    MemberConfig {
        suspect_periods: 1,
        proxies: 3,
        ..MemberConfig::static_full().with_probe_interval_us(probe_interval_us)
    }
}

struct Outcome {
    crashes: u64,
    detected: u64,
    /// Mean first-detection latency over detected crashes (µs).
    mean_detect_us: f64,
    /// Worst first-detection latency (µs).
    max_detect_us: u64,
    false_suspicions: u64,
    suspicions: u64,
}

/// One simulated configuration: crash-only churn, detection read from the
/// passive trace ring (Crash events vs the first Declared-Dead note
/// naming the same node).
fn run_sim(n: usize, probe_us: u64, loss: f64, seed: u64) -> Outcome {
    let horizon = SIM_PERIODS * probe_us;
    // Aim for a handful of crashes per run, drawn at probe-period
    // boundaries so detection latency is measured from a clean instant.
    let crash_prob = 6.0 / (n as f64 * SIM_PERIODS as f64);
    let config = AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss))
        .with_latency(LatencyModel::Constant(300))
        .with_churn(ChurnModel::per_round(crash_prob, 0.0).with_min_alive(n * 3 / 4));
    let member_config = detector_config(probe_us);
    // One shard: the ring then holds events in dispatch order, which the
    // fold below relies on (a Crash is seen before the Declared-Dead notes
    // it causes).
    let mut driver = ShardedDriver::new(config, 1, move |_me| {
        Member::new(member_config.clone(), Idle)
    })
    .with_window_us(probe_us)
    .with_trace(1 << 18);
    driver.run_until(horizon);

    // Fold the ring: every crash instant, and the first Declared-Dead
    // note per crashed node at or after its crash.
    let trace = driver.trace().expect("trace ring enabled");
    let mut crash_at: Vec<Option<u64>> = vec![None; n];
    let mut detect_at: Vec<Option<u64>> = vec![None; n];
    for event in trace.iter() {
        match (event.kind, event.reason) {
            (TraceKind::Crash, _) => {
                let i = event.node as usize;
                crash_at[i].get_or_insert(event.at_us);
            }
            (TraceKind::State, TraceReason::DeclaredDead) => {
                let victim = event.peer as usize;
                if victim < n {
                    if let Some(crashed) = crash_at[victim] {
                        if event.at_us >= crashed && detect_at[victim].is_none() {
                            detect_at[victim] = Some(event.at_us);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    let mut crashes = 0;
    let mut detected = 0;
    let mut latency_sum = 0u64;
    let mut latency_max = 0u64;
    for i in 0..n {
        let Some(crashed) = crash_at[i] else { continue };
        crashes += 1;
        // Ignore crashes too close to the horizon to be detectable.
        if horizon.saturating_sub(crashed) < 6 * probe_us {
            crashes -= 1;
            continue;
        }
        if let Some(at) = detect_at[i] {
            detected += 1;
            let latency = at - crashed;
            latency_sum += latency;
            latency_max = latency_max.max(latency);
        }
    }
    let mut false_suspicions = 0;
    let mut suspicions = 0;
    for (_, h) in driver.iter_handlers() {
        false_suspicions += h.stats().false_suspicions;
        suspicions += h.stats().suspicions_local;
    }
    Outcome {
        crashes,
        detected,
        mean_detect_us: if detected > 0 {
            latency_sum as f64 / detected as f64
        } else {
            0.0
        },
        max_detect_us: latency_max,
        false_suspicions,
        suspicions,
    }
}

/// One real-socket configuration: kill one member of a loopback cluster
/// (stop polling it) and clock the survivors' detection on the wall.
fn run_real(n: usize, probe_us: u64, seed: u64) -> std::io::Result<Outcome> {
    let member_config = MemberConfig {
        probe_fanout: 2,
        ..detector_config(probe_us)
    };
    let mut cluster =
        gossip_node::Cluster::bind(n, seed, move |_me| Member::new(member_config.clone(), Idle))?;
    let period = Duration::from_micros(probe_us);
    cluster.run_for(2 * period); // warmup: everyone probing
    let victim = NodeId::new(n / 2);
    let started = Instant::now();
    let deadline = started + 8 * period;
    let mut detect_wall: Option<Duration> = None;
    while Instant::now() < deadline {
        let mut dispatched = 0;
        for i in 0..n {
            let node = NodeId::new(i);
            if node != victim {
                dispatched += cluster.poll_node(node);
            }
        }
        let all_dead = cluster
            .iter_handlers()
            .all(|(node, h)| node == victim || h.state_of(victim) == Some(Liveness::Dead));
        if all_dead {
            detect_wall = Some(started.elapsed());
            break;
        }
        if dispatched == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let mut false_suspicions = 0;
    let mut suspicions = 0;
    for (node, h) in cluster.iter_handlers() {
        if node == victim {
            continue;
        }
        false_suspicions += h.stats().false_suspicions;
        suspicions += h.stats().suspicions_local;
    }
    let detect_us = detect_wall.map(|d| d.as_micros() as u64);
    Ok(Outcome {
        crashes: 1,
        detected: u64::from(detect_us.is_some()),
        mean_detect_us: detect_us.unwrap_or(0) as f64,
        max_detect_us: detect_us.unwrap_or(0),
        false_suspicions,
        suspicions,
    })
}

fn push_outcome(table: &mut Table, n: usize, probe_us: u64, loss: f64, backend: &str, o: &Outcome) {
    let periods = |us: f64| us / probe_us as f64;
    table.push_row(vec![
        n.to_string(),
        (probe_us / 1_000).to_string(),
        fmt_float(loss),
        backend.to_string(),
        format!("{}/{}", o.detected, o.crashes),
        if o.detected > 0 {
            fmt_float(periods(o.mean_detect_us))
        } else {
            "—".to_string()
        },
        if o.detected > 0 {
            fmt_float(periods(o.max_detect_us as f64))
        } else {
            "—".to_string()
        },
        o.suspicions.to_string(),
        o.false_suspicions.to_string(),
    ]);
}

/// Run E21.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let sizes: Vec<usize> = if options.quick {
        vec![16, 48]
    } else {
        vec![16, 64, 192]
    };
    let probes_us: Vec<u64> = if options.quick {
        vec![10_000, 20_000]
    } else {
        vec![5_000, 10_000, 20_000]
    };
    let losses: Vec<f64> = if options.quick {
        vec![0.0, 0.1]
    } else {
        vec![0.0, 0.05, 0.2]
    };
    let seed = 0xE21;
    let mut table = Table::new(
        format!(
            "E21 — SWIM failure detection: latency (probe periods) and false suspicions \
             vs probe period × loss × n ({SIM_PERIODS} periods, suspect_periods = 1, \
             3 proxies)"
        ),
        &[
            "n",
            "probe ms",
            "loss",
            "backend",
            "detected",
            "detect mean (periods)",
            "detect max (periods)",
            "suspicions",
            "false susp",
        ],
    );
    for &n in &sizes {
        for &probe_us in &probes_us {
            for &loss in &losses {
                let outcome = run_sim(n, probe_us, loss, seed);
                push_outcome(&mut table, n, probe_us, loss, "sim", &outcome);
            }
        }
    }
    // Real rows: loss-free by nature (loopback), wall-clock probe periods.
    let real_sizes: Vec<usize> = if options.quick { vec![8] } else { vec![8, 16] };
    let real_probe_us = 50_000;
    let mut bind_failure = None;
    for &n in &real_sizes {
        match run_real(n, real_probe_us, seed) {
            Ok(outcome) => push_outcome(&mut table, n, real_probe_us, 0.0, "real", &outcome),
            Err(e) => {
                bind_failure = Some(e);
                break;
            }
        }
    }
    table.push_note(
        "sim = ShardedDriver + crash-only churn at probe-period boundaries; detection read \
         from the passive trace ring (Crash event → first Declared-Dead note); real = \
         gossip-node Cluster (round-robin), one member killed by never polling it again, \
         wall-clock detection until every survivor holds a Dead record",
    );
    table.push_note(
        "expected envelope: one period to judge the unanswered probe (stretched by \
         1/(1-loss) while loss eats both probe legs), one suspect period, one sweep — \
         detect mean should sit near 3 periods at loss 0 and grow with loss; false \
         suspicions must be 0 in every loss-free row",
    );
    if let Some(e) = bind_failure {
        table.push_note(format!(
            "real rows unavailable on this runner: loopback UDP binding failed ({e})"
        ));
    }
    vec![table]
}
