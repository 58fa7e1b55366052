//! E22 — soak: a drift-asserting long-horizon run of the full stack.
//!
//! Every leak starts as a slope. An arena that forgets to reuse slots, a
//! calendar queue that grows with horizon instead of population, a retry
//! loop that quietly accelerates, a trace ring whose overwrite counter
//! outruns its event counter — none of these fail a short functional
//! test, and all of them kill a node that runs for a week. E22 runs the
//! whole stack (SWIM membership wrapping Merkle anti-entropy, under
//! churn) for an hours-equivalent horizon, scrapes the observability
//! registry periodically, and *asserts* flatness instead of merely
//! plotting it:
//!
//! * **occupancy gauges** (arena live/capacity, queue capacity) must not
//!   grow past a small multiple of their post-warmup level;
//! * **every monotonic counter's rate** — not a named allowlist; the
//!   registry is enumerated — must not accelerate between the first and
//!   second half of the steady state;
//! * **peak RSS** (Linux `VmHWM`, reset at warmup end) must stay within
//!   a fixed band of the warmed-up footprint;
//! * **convergence telemetry** must stay sane: the mean per-node
//!   `ae_convergence_lag` stays bounded, i.e. the cluster keeps adopting.
//!
//! Two backends, same assertions:
//!
//! * **sim rows** — `ShardedDriver` (shard counts from
//!   `GOSSIP_TEST_SHARDS`, the determinism suite's matrix knob), hours
//!   of virtual time with crash/rejoin churn and a passive trace ring
//!   small enough to wrap, so the overwrite path itself is soaked.
//! * **real row** — `gossip-node`'s `Cluster` (round-robin) on real UDP
//!   with a real `/metrics` endpoint scraped over TCP, hostile datagrams
//!   injected at the sockets, and one member churned (unpolled, then
//!   resumed) mid-run. The page carries one series per `node`; the scrape
//!   sums them, so the drift check reads cluster totals. Wall-clock bounded; runners without sockets get a
//!   note instead of a row.
//!
//! Any violation fails the process loudly — this experiment doubles as
//! the CI soak smoke (`--quick`).

use super::{peak_rss_mib, reset_peak_rss, ExperimentOptions};
use gossip_ae::{AeConfig, AeNode, DigestMode, SignalModel};
use gossip_analysis::{fmt_float, Table};
use gossip_member::{Member, MemberConfig};
use gossip_net::{NodeId, SimConfig};
use gossip_obs::Registry;
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// The soaked handler: SWIM failure detection wrapping Merkle
/// anti-entropy — detector transitions, AE exchanges, churn rejoins and
/// trace records all in one run.
type Soaked = Member<AeNode>;

/// Fraction of scrapes treated as warmup (bulk initial reconciliation,
/// ring fill, allocator growth) and excluded from the drift assertions.
const WARMUP_FRACTION: f64 = 0.34;

/// Occupancy gauges may not exceed `2x + slack` of their first
/// post-warmup reading; counter rates may not exceed `2x + slack` of the
/// first steady-state half's rate. Generous on purpose: the assertion
/// hunts monotone growth over hours, not scrape-to-scrape noise.
const GROWTH_FACTOR: f64 = 2.0;

/// Occupancy gauges get a tighter band than counter rates: a warmed-up
/// arena breathing with churn stays well inside 1.5× its early steady
/// mean; slow monotone growth does not.
const GAUGE_FACTOR: f64 = 1.5;

/// One observability scrape: everything the registry exposed, split by
/// metric type (histograms are drift-checked through their `_count`
/// behaviour only, which the counter map carries implicitly via totals
/// the backends export — e.g. `trace_events_total`).
struct Snapshot {
    at_us: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Snapshot {
    fn from_registry(at_us: u64, registry: &Registry) -> Snapshot {
        Snapshot {
            at_us,
            counters: registry
                .iter_counters()
                .map(|(name, labels, v)| (format!("{name}{labels}"), v))
                .collect(),
            gauges: registry
                .iter_gauges()
                .map(|(name, labels, v)| (format!("{name}{labels}"), v))
                .collect(),
        }
    }
}

/// Parse a Prometheus 0.0.4 text page into the same shape
/// [`Snapshot::from_registry`] produces, using the `# TYPE` lines to
/// classify families (histogram series are skipped; their `_count`/`_sum`
/// lines belong to the histogram, not to the drift check). Samples are
/// summed across the `node` label, so a cluster page reads as totals.
fn parse_prometheus(at_us: u64, text: &str) -> Snapshot {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut snap = Snapshot {
        at_us,
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (parts.next(), parts.next()) {
                types.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let family = key.split('{').next().unwrap_or(key);
        let Ok(v) = value.parse::<f64>() else {
            continue;
        };
        match types.get(family).map(String::as_str) {
            Some("counter") => {
                *snap.counters.entry(without_node_label(key)).or_default() += v as u64;
            }
            Some("gauge") => *snap.gauges.entry(without_node_label(key)).or_default() += v,
            _ => {}
        }
    }
    snap
}

/// A sample key with its `node` label dropped: `f{leg="x",node="3"}`
/// becomes `f{leg="x"}`, and `f{node="3"}` becomes `f`.
fn without_node_label(key: &str) -> String {
    let Some((family, labels)) = key.split_once('{') else {
        return key.to_string();
    };
    let kept: Vec<&str> = labels
        .trim_end_matches('}')
        .split(',')
        .filter(|pair| !pair.starts_with("node="))
        .collect();
    if kept.is_empty() {
        family.to_string()
    } else {
        format!("{family}{{{}}}", kept.join(","))
    }
}

/// The drift verdict over a scrape series: every violated flatness
/// assertion, in words. Empty = the soak held.
fn drift_violations(snapshots: &[Snapshot], occupancy_gauges: &[&str]) -> Vec<String> {
    let mut violations = Vec::new();
    let warmup = ((snapshots.len() as f64) * WARMUP_FRACTION).ceil() as usize;
    let steady = &snapshots[warmup.min(snapshots.len().saturating_sub(2))..];
    if steady.len() < 3 {
        violations.push(format!(
            "not enough scrapes for a drift verdict ({} total, {} post-warmup)",
            snapshots.len(),
            steady.len()
        ));
        return violations;
    }

    // Occupancy gauges: bounded, not merely non-accelerating. Quarter
    // means smooth the oscillation (in-flight payload counts breathe
    // with churn); the last quarter may not sit meaningfully above the
    // first.
    let quarter = (steady.len() / 4).max(1);
    for &name in occupancy_gauges {
        let series: Vec<f64> = steady
            .iter()
            .filter_map(|s| s.gauges.get(name).copied())
            .collect();
        if series.len() < steady.len() {
            violations.push(format!("occupancy gauge {name} missing from scrapes"));
            continue;
        }
        let mean = |window: &[f64]| window.iter().sum::<f64>() / window.len() as f64;
        let early = mean(&series[..quarter]);
        let late = mean(&series[series.len() - quarter..]);
        let bound = GAUGE_FACTOR * early + 64.0;
        if late > bound {
            violations.push(format!(
                "gauge {name} grew from {early:.0} to {late:.0} post-warmup (bound {bound:.0})"
            ));
        }
    }

    // Every monotonic counter: the second steady half's growth may not
    // exceed twice what the first half's rate predicts (plus an absolute
    // event slack for rare, bursty families). Deceleration is fine;
    // acceleration is the leak. Counters that *decrease* somewhere in
    // the window are sums over state that legally resets — handlers are
    // rebuilt from the factory at every rejoin, and the causal
    // reconstructor counts over a sliding ring window — so they carry no
    // monotonic-rate contract. Infrastructure counters (driver, engine,
    // wire, trace ring) never reset: going backwards there is itself a
    // violation.
    let mid = steady.len() / 2;
    let (a, b, c) = (&steady[0], &steady[mid], &steady[steady.len() - 1]);
    let span1 = (b.at_us - a.at_us).max(1) as f64 / 1e6;
    let span2 = (c.at_us - b.at_us).max(1) as f64 / 1e6;
    for (name, &v0) in &a.counters {
        let series: Vec<u64> = steady
            .iter()
            .filter_map(|s| s.counters.get(name).copied())
            .collect();
        if series.len() < steady.len() {
            continue;
        }
        if series.windows(2).any(|w| w[1] < w[0]) {
            if !may_reset(name) {
                violations.push(format!(
                    "infrastructure counter {name} went backwards ({series:?})"
                ));
            }
            continue;
        }
        let (v1, v2) = (series[mid], series[steady.len() - 1]);
        let rate1 = (v1 - v0) as f64 / span1;
        let grew = (v2 - v1) as f64;
        let bound = GROWTH_FACTOR * rate1 * span2 + 50.0 + 5.0 * span2;
        if grew > bound {
            violations.push(format!(
                "counter {name} accelerated: {rate1:.2}/s then {:.2}/s \
                 (+{grew:.0} in {span2:.0}s, bound +{bound:.0})",
                grew / span2,
            ));
        }
    }
    violations
}

/// Counter families summed over state that legally resets mid-run:
/// handler counters restart with the handler at every churn rejoin, and
/// `trace_chain_*` counts over the ring's sliding window. Everything
/// else — driver, engine, wire, ring totals — must be monotonic.
fn may_reset(name: &str) -> bool {
    !(name.starts_with("driver_")
        || name.starts_with("engine_")
        || name.starts_with("node_")
        || name.starts_with("trace_events")
        || name.starts_with("trace_ring"))
}

/// RSS flatness: peak since the warmup-end reset may not exceed the
/// warmed-up footprint by more than 25% + 64 MiB. `None` (no procfs)
/// asserts nothing.
fn rss_violation(base_mib: Option<f64>) -> (Option<f64>, Option<String>) {
    let Some(base) = base_mib else {
        return (None, None);
    };
    let Some(end) = peak_rss_mib() else {
        return (None, None);
    };
    let grew = end - base;
    let bound = base * 0.25 + 64.0;
    let violation = (grew > bound).then(|| {
        format!("peak RSS grew {grew:.1} MiB past the warmed-up footprint (bound {bound:.1})")
    });
    (Some(grew), violation)
}

struct Outcome {
    horizon_s: f64,
    scrapes: usize,
    counters_checked: usize,
    gauges_checked: usize,
    trace_events: u64,
    trace_overwrites: u64,
    rss_delta_mib: Option<f64>,
    violations: Vec<String>,
}

fn soaked_factory(
    n: usize,
    probe_us: u64,
    ae: AeConfig,
) -> impl Fn(NodeId) -> Soaked + Send + 'static + Clone {
    let member = MemberConfig {
        suspect_periods: 2,
        proxies: 3,
        ..MemberConfig::static_full().with_probe_interval_us(probe_us)
    };
    move |me| {
        let sim = SimConfig::new(n);
        Member::new(
            member.clone(),
            AeNode::new(me, n, sim.id_bits(), sim.value_bits(), ae),
        )
    }
}

/// One simulated soak: hours-equivalent virtual horizon on the sharded
/// driver, churn on, trace ring sized to wrap.
fn run_sim(n: usize, shards: usize, horizon_us: u64, scrape_us: u64, seed: u64) -> Outcome {
    let probe_us = 1_000_000;
    let ae = AeConfig::default()
        .with_tick_us(1_000_000)
        .with_update_us(2_000_000)
        .with_expiry_us(0)
        .with_digest_mode(DigestMode::Merkle)
        .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(100.0));
    let crash_prob = 0.2 / n as f64; // a crash somewhere every ~5 windows

    // Uniform latency, not log-normal: the sharded driver's bounded-lag
    // epoch is the latency floor, and log-normal's 1 µs support would
    // shrink epochs to a microsecond — hours of virtual time would drown
    // in barriers instead of events.
    let config = AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.01))
        .with_latency(LatencyModel::Uniform {
            lo_us: 20_000,
            hi_us: 150_000,
        })
        .with_churn(ChurnModel::per_round(crash_prob, 0.25).with_min_alive(n * 3 / 4));
    // Churn windows at the anti-entropy tick: a crash every ~5 s of
    // virtual time, dead nodes back (restarted empty) within a few.
    let mut driver = ShardedDriver::new(config, shards, soaked_factory(n, probe_us, ae))
        .with_window_us(1_000_000)
        .with_trace(1 << 13);

    let mut snapshots = Vec::new();
    let mut rss_base = None;
    let scrapes_total = horizon_us / scrape_us;
    let warmup_end = ((scrapes_total as f64) * WARMUP_FRACTION).ceil() as u64;
    for k in 1..=scrapes_total {
        driver.run_until(k * scrape_us);
        let mut registry = Registry::new();
        driver.fill_registry(&mut registry);
        snapshots.push(Snapshot::from_registry(driver.now_us(), &registry));
        if k == warmup_end {
            reset_peak_rss();
            rss_base = peak_rss_mib();
        }
    }

    let last = snapshots.last().expect("at least one scrape");
    let trace_events = last
        .counters
        .get("trace_events_total")
        .copied()
        .unwrap_or(0);
    let trace_overwrites = last
        .counters
        .get("trace_ring_overwrites_total")
        .copied()
        .unwrap_or(0);
    let counters_checked = last.counters.len();
    let gauges_checked = last.gauges.len();

    let mut violations = drift_violations(
        &snapshots,
        &[
            "engine_arena_live",
            "engine_arena_capacity",
            "engine_queue_capacity_events",
        ],
    );
    // Convergence telemetry sanity: the cluster must still be adopting.
    // `ae_convergence_lag` sums over handlers, so divide by n for the
    // per-node mean; the drifting signal re-stamps every 2 ticks, so a
    // healthy node adopts within a few ticks of that.
    if let Some(lag) = last.gauges.get("ae_convergence_lag") {
        let mean = lag / n as f64;
        if mean > 16.0 {
            violations.push(format!(
                "mean ae_convergence_lag is {mean:.1} ticks at the horizon — nodes stopped \
                 adopting"
            ));
        }
    } else {
        violations.push("ae_convergence_lag missing from the registry".to_string());
    }
    // The ring was sized to wrap: a soak that never exercised the
    // overwrite path tested less than it claims.
    if trace_overwrites == 0 {
        violations.push("trace ring never wrapped — ring oversized for the soak".to_string());
    }
    let (rss_delta_mib, rss_viol) = rss_violation(rss_base);
    violations.extend(rss_viol);

    Outcome {
        horizon_s: horizon_us as f64 / 1e6,
        scrapes: snapshots.len(),
        counters_checked,
        gauges_checked,
        trace_events,
        trace_overwrites,
        rss_delta_mib,
        violations,
    }
}

/// Minimal HTTP GET against the cluster endpoint, pumping the cluster
/// (minus any churned-out member) so the single-threaded server answers.
fn http_get(
    cluster: &mut gossip_node::Cluster<Soaked>,
    down: Option<NodeId>,
    path: &str,
) -> std::io::Result<String> {
    let addr = cluster.status_addr().expect("status endpoint bound");
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(5)))?;
    (&stream).write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        for i in 0..cluster.n() {
            let node = NodeId::new(i);
            if Some(node) != down {
                cluster.poll_node(node);
            }
        }
        cluster.pump_status();
        match (&stream).read(&mut buf) {
            Ok(0) => break,
            Ok(k) => raw.extend_from_slice(&buf[..k]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "scrape timed out",
            ));
        }
    }
    let text = String::from_utf8(raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(text
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default())
}

/// Datagrams no honest peer sends: garbage, a truncated header, a frame
/// with unknown flag bits, and a frame from a sender id outside the
/// cluster. All must land in drop counters, not in handler state.
fn hostile_datagrams() -> Vec<Vec<u8>> {
    vec![
        vec![0xFF; 40],
        vec![0x75, 0xCA],
        // Correct magic/version, flags byte 0x80 (unknown bit set).
        vec![
            0x75, 0xCA, 0x01, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ],
        // Correct header shape, sender id 0xFFFF (no such member).
        vec![
            0x75, 0xCA, 0x01, 0x00, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ],
    ]
}

/// One wall-clock soak on real sockets: scrape `/metrics` over TCP,
/// inject hostile datagrams, churn one member out and back in.
fn run_real(
    n: usize,
    wall: Duration,
    scrape_every: Duration,
    seed: u64,
) -> std::io::Result<Outcome> {
    let probe_us = 100_000;
    let ae = AeConfig::default()
        .with_tick_us(100_000)
        .with_update_us(200_000)
        .with_expiry_us(0)
        .with_digest_mode(DigestMode::Merkle)
        .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(100.0));
    let mut cluster =
        gossip_node::Cluster::bind(n, seed, soaked_factory(n, probe_us, ae))?.with_trace(1 << 10);
    cluster.serve_status(("127.0.0.1", 0))?;
    let member_addrs: Vec<_> = (0..n)
        .map(|i| cluster.host(NodeId::new(i)).local_addr())
        .collect::<std::io::Result<Vec<_>>>()?;
    let hostile_socket = UdpSocket::bind(("127.0.0.1", 0))?;

    let started = Instant::now();
    let deadline = started + wall;
    let scrapes_total = (wall.as_micros() / scrape_every.as_micros()).max(3) as usize;
    let warmup_end = ((scrapes_total as f64) * WARMUP_FRACTION).ceil() as usize;
    // Churn window: member n-1 goes unpolled for ~5 probe periods in the
    // middle of the steady state, then resumes (refutes, rejoins).
    let victim = NodeId::new(n - 1);
    let churn_start = started + wall / 2;
    let churn_end = churn_start + Duration::from_micros(5 * probe_us);

    let mut snapshots = Vec::new();
    let mut next_scrape = started + scrape_every;
    let mut rss_base = None;
    while Instant::now() < deadline {
        let now = Instant::now();
        let down = (now >= churn_start && now < churn_end).then_some(victim);
        if now >= next_scrape {
            for payload in hostile_datagrams() {
                for addr in &member_addrs {
                    hostile_socket.send_to(&payload, addr)?;
                }
            }
            let body = http_get(&mut cluster, down, "/metrics")?;
            snapshots.push(parse_prometheus(
                started.elapsed().as_micros() as u64,
                &body,
            ));
            if snapshots.len() == warmup_end {
                reset_peak_rss();
                rss_base = peak_rss_mib();
            }
            next_scrape += scrape_every;
            continue;
        }
        let mut dispatched = 0;
        for i in 0..n {
            let node = NodeId::new(i);
            if Some(node) != down {
                dispatched += cluster.poll_node(node);
            }
        }
        dispatched += cluster.pump_status();
        if dispatched == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    let last = snapshots.last().expect("at least one scrape");
    let trace_events = last
        .counters
        .get("trace_events_total")
        .copied()
        .unwrap_or(0);
    let trace_overwrites = last
        .counters
        .get("trace_ring_overwrites_total")
        .copied()
        .unwrap_or(0);
    let counters_checked = last.counters.len();
    let gauges_checked = last.gauges.len();
    let mut violations = drift_violations(&snapshots, &[]);
    // The hostile datagrams must actually have been counted as rejected
    // input — a soak whose poison went unnoticed proves nothing.
    let decode_errors = last
        .counters
        .get("node_decode_errors_total")
        .copied()
        .unwrap_or(0);
    if decode_errors == 0 {
        violations.push("hostile datagrams never reached the decode-error counter".to_string());
    }
    if trace_events == 0 {
        violations.push("trace rings recorded nothing".to_string());
    }
    let (rss_delta_mib, rss_viol) = rss_violation(rss_base);
    violations.extend(rss_viol);

    Ok(Outcome {
        horizon_s: started.elapsed().as_secs_f64(),
        scrapes: snapshots.len(),
        counters_checked,
        gauges_checked,
        trace_events,
        trace_overwrites,
        rss_delta_mib,
        violations,
    })
}

/// Shard counts to soak: `GOSSIP_TEST_SHARDS` (the determinism matrix
/// knob, comma-separated) when set, a spread otherwise.
fn shard_counts(quick: bool) -> Vec<usize> {
    match std::env::var("GOSSIP_TEST_SHARDS") {
        Ok(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad GOSSIP_TEST_SHARDS entry {s:?}"))
            })
            .collect(),
        Err(_) if quick => vec![2],
        Err(_) => vec![1, 4],
    }
}

fn push_outcome(table: &mut Table, backend: &str, shards: &str, n: usize, o: &Outcome) {
    table.push_row(vec![
        backend.to_string(),
        shards.to_string(),
        n.to_string(),
        fmt_float(o.horizon_s),
        o.scrapes.to_string(),
        o.counters_checked.to_string(),
        o.gauges_checked.to_string(),
        o.trace_events.to_string(),
        o.trace_overwrites.to_string(),
        o.rss_delta_mib
            .map(fmt_float)
            .unwrap_or_else(|| "n/a".to_string()),
        o.violations.len().to_string(),
    ]);
}

/// Run E22. Panics — loudly, with the full list — on any drift violation.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let mut table = Table::new(
        "E22 — soak: drift assertions over an hours-equivalent churned run (SWIM + Merkle \
         anti-entropy + causal tracing; every monotonic counter's rate, occupancy gauges, \
         peak RSS)"
            .to_string(),
        &[
            "backend",
            "shards",
            "n",
            "horizon s",
            "scrapes",
            "counters",
            "gauges",
            "trace events",
            "ring overwrites",
            "rss Δ MiB",
            "violations",
        ],
    );
    let mut all_violations: Vec<String> = Vec::new();

    let (n, horizon_us, scrape_us) = if options.quick {
        (32, 180_000_000, 10_000_000)
    } else {
        (96, 7_200_000_000, 120_000_000)
    };
    for shards in shard_counts(options.quick) {
        let outcome = run_sim(n, shards, horizon_us, scrape_us, 0xE22);
        all_violations.extend(
            outcome
                .violations
                .iter()
                .map(|v| format!("[sim shards={shards}] {v}")),
        );
        push_outcome(&mut table, "sim", &shards.to_string(), n, &outcome);
    }

    let (real_n, real_wall, real_scrape) = if options.quick {
        (4, Duration::from_secs(4), Duration::from_millis(500))
    } else {
        (6, Duration::from_secs(30), Duration::from_secs(2))
    };
    match run_real(real_n, real_wall, real_scrape, 0xE22) {
        Ok(outcome) => {
            all_violations.extend(outcome.violations.iter().map(|v| format!("[real] {v}")));
            push_outcome(&mut table, "real", "—", real_n, &outcome);
        }
        Err(e) => table.push_note(format!(
            "real row unavailable on this runner: loopback sockets failed ({e})"
        )),
    }

    table.push_note(
        "sim = ShardedDriver, hours of virtual time, crash/rejoin churn, trace ring sized \
         to wrap; real = Cluster (round-robin) on 127.0.0.1 UDP, /metrics scraped over \
         TCP and summed over nodes, hostile datagrams at every scrape, one member unpolled then resumed mid-run",
    );
    table.push_note(
        "drift verdict: post-warmup occupancy gauges bounded by 1.5× their early steady \
         mean; every monotonic counter's second-half rate bounded by 2× its first-half \
         rate; peak RSS (VmHWM, reset at warmup end) within 25% + 64 MiB; mean \
         ae_convergence_lag bounded (the cluster keeps adopting)",
    );
    if all_violations.is_empty() {
        table.push_note("0 drift violations — the soak held");
    }
    assert!(
        all_violations.is_empty(),
        "E22 drift violations:\n  {}",
        all_violations.join("\n  ")
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at_s: u64, counters: &[(&str, u64)], gauges: &[(&str, f64)]) -> Snapshot {
        Snapshot {
            at_us: at_s * 1_000_000,
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            gauges: gauges.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn flat_series_pass_the_drift_check() {
        let snapshots: Vec<Snapshot> = (0..12)
            .map(|k| {
                snap(
                    k * 10,
                    &[("sends_total", 1000 * k)],
                    &[("arena_live", 50.0 + (k % 2) as f64)],
                )
            })
            .collect();
        assert!(drift_violations(&snapshots, &["arena_live"]).is_empty());
    }

    #[test]
    fn an_accelerating_counter_is_a_violation() {
        // Rate doubles each interval in the second half: a retry storm.
        let mut v = 0u64;
        let snapshots: Vec<Snapshot> = (0..12)
            .map(|k| {
                v += if k < 8 { 100 } else { 100 << (k - 7) };
                snap(k * 10, &[("retries_total", v)], &[])
            })
            .collect();
        let violations = drift_violations(&snapshots, &[]);
        assert!(
            violations.iter().any(|v| v.contains("retries_total")),
            "storm not flagged: {violations:?}"
        );
    }

    #[test]
    fn a_growing_occupancy_gauge_is_a_violation() {
        let snapshots: Vec<Snapshot> = (0..12)
            .map(|k| snap(k * 10, &[], &[("arena_live", 100.0 * (k + 1) as f64)]))
            .collect();
        let violations = drift_violations(&snapshots, &["arena_live"]);
        assert!(
            violations.iter().any(|v| v.contains("arena_live")),
            "leak not flagged: {violations:?}"
        );
    }

    #[test]
    fn prometheus_pages_round_trip_into_snapshots() {
        let page = "# HELP a_total things\n# TYPE a_total counter\na_total 42\n\
                    # HELP g stuff\n# TYPE g gauge\ng{node=\"3\"} 1.5\ng{node=\"4\"} 2.5\n\
                    # TYPE l_total counter\nl_total{leg=\"x\",node=\"0\"} 1\n\
                    l_total{leg=\"x\",node=\"1\"} 2\n\
                    # TYPE h histogram\nh_bucket{le=\"1\"} 7\nh_count 7\nh_sum 3\n";
        let snap = parse_prometheus(5, page);
        assert_eq!(snap.counters.get("a_total"), Some(&42));
        // Per-node series sum into one cluster total; other labels stay.
        assert_eq!(snap.gauges.get("g"), Some(&4.0));
        assert_eq!(snap.counters.get("l_total{leg=\"x\"}"), Some(&3));
        // Histogram series stay out of the drift maps.
        assert!(snap.counters.keys().all(|k| !k.starts_with("h_")));
    }

    #[test]
    fn quick_sim_soak_holds() {
        // A miniature of the CI smoke: short horizon, drift assertions
        // active, single shard pair to keep the suite fast.
        let outcome = run_sim(16, 2, 120_000_000, 8_000_000, 0x50AC);
        assert!(
            outcome.violations.is_empty(),
            "drift violations: {:?}",
            outcome.violations
        );
        assert!(outcome.trace_events > 0);
    }
}
