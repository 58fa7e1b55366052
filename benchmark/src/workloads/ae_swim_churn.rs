//! `ae-swim-churn` — the event engine used the opposite way: heavy
//! handlers.
//!
//! SWIM membership wrapping Merkle-digest anti-entropy (`Member<AeNode>`)
//! on a one-shard `ShardedDriver`: 1 s ticks, a drifting signal re-stamped
//! every 2 s, 20–150 ms latency, 1 % loss, a crash about every five
//! windows and rejoin probability 0.25. `ae::merkle`, `ae::store` and
//! `member::swim` dominate (several times `events-churn`'s cost per
//! event), so a handler-side gain shows here and not there, an engine-side
//! gain the other way round, and a change that helps one while costing the
//! other is caught.
//!
//! Unit of work: one dispatched event. `rounds`: the mean time of the cold
//! start, in ticks, for an alive node's store to know every origin: the
//! area above the share-of-complete-stores curve, sampled every quarter
//! tick (a first-passage time of the last node would be a tail statistic
//! that moves by a tick from seed to seed; the mean does not, and a
//! rejoiner mid-repair costs it what the repair takes). An operation is
//! one node that is alive at the end
//! and has been up for at least `RECOVERY_BOUND_TICKS`, the library's own
//! bound on rejoin repair; it is correct when its store is complete. The
//! dispatch-order hash is the rep's fingerprint.

use super::Rep;
use crate::alloc;
use crate::spans::Tracer;
use crate::stats::mix;
use gossip_ae::{AeConfig, AeNode, DigestMode, SignalModel, RECOVERY_BOUND_TICKS};
use gossip_member::{Member, MemberConfig};
use gossip_net::{NodeId, SimConfig};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver};
use std::time::Instant;

pub const NAME: &str = "ae-swim-churn";
/// Why the workload exists, in `BENCHMARK.json`'s one line.
pub const WHY: &str =
    "heavy handlers (SWIM over Merkle anti-entropy) on the same engine: ae and member dominate, so handler and engine gains show on opposite workloads";

/// One anti-entropy tick, one SWIM probe period and one churn window.
const TICK_US: u64 = 1_000_000;

type Node = Member<AeNode>;

#[derive(Clone, Debug)]
pub struct AeSwimChurn {
    pub n: usize,
    pub seed: u64,
    /// Ticks of cold start in the set-up section (stores fill by about
    /// tick 10) and of steady state in the measured section.
    pub setup_ticks: u64,
    pub work_ticks: u64,
}

impl AeSwimChurn {
    pub fn new(seed: u64, toy: bool) -> Self {
        AeSwimChurn {
            n: if toy { 16 } else { 256 },
            seed,
            setup_ticks: if toy { 8 } else { 14 },
            work_ticks: if toy { 6 } else { 45 },
        }
    }

    pub fn driver(&self) -> ShardedDriver<Node> {
        let n = self.n;
        let ae = AeConfig::default()
            .with_tick_us(TICK_US)
            .with_update_us(2 * TICK_US)
            .with_expiry_us(0)
            .with_digest_mode(DigestMode::Merkle)
            .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(100.0));
        let member = MemberConfig {
            suspect_periods: 2,
            proxies: 3,
            ..MemberConfig::static_full().with_probe_interval_us(TICK_US)
        };
        let sim = SimConfig::new(n)
            .with_seed(mix(self.seed, 1 << 32))
            .with_loss_prob(0.01);
        let (id_bits, value_bits) = (sim.id_bits(), sim.value_bits());
        let config = AsyncConfig::new(sim)
            .with_latency(LatencyModel::Uniform {
                lo_us: 20_000,
                hi_us: 150_000,
            })
            .with_churn(ChurnModel::per_round(0.2 / n as f64, 0.25).with_min_alive(n * 3 / 4));
        ShardedDriver::new(config, 1, move |me: NodeId| {
            Member::new(member.clone(), AeNode::new(me, n, id_bits, value_bits, ae))
        })
        .with_window_us(TICK_US)
    }

    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        let root = tr.enter("rep");
        let started = Instant::now();
        let setup = tr.enter("setup");
        let mut driver = tr.span("runtime.shard.construct", || self.driver());
        // Quarter-tick slices, so the cold start can be watched; slicing a
        // run never changes it, and every rep slices alike.
        let mut filling: Vec<(usize, f64)> = Vec::new();
        let cold = tr.enter("runtime.shard.run_until");
        for quarter in 1..=4 * self.setup_ticks {
            driver.run_until(quarter * TICK_US / 4);
            filling.push(knowing_most(&driver));
        }
        tr.exit_counted(cold, 4 * self.setup_ticks);
        tr.exit(setup);
        let setup_s = started.elapsed().as_secs_f64();

        let events_before = driver.events_dispatched();
        let net_before = driver.net_metrics();
        let allocs_before = alloc::snapshot().calls;
        let end = (self.setup_ticks + self.work_ticks) * TICK_US;
        let started = Instant::now();
        tr.span("runtime.shard.run_until", || driver.run_until(end));
        let work_s = started.elapsed().as_secs_f64();
        let heap = alloc::snapshot();
        let reading = tr.enter("runtime.shard.counters");
        let events = driver.events_dispatched() - events_before;
        let net = driver.net_metrics();
        let counters = driver.metrics();
        tr.exit_counted(reading, 3);
        let bytes = (net.total_bits() - net_before.total_bits()) / 8;

        let (full, _) = *filling.last().expect("the cold start has ticks");
        let rounds: f64 = filling
            .iter()
            .map(|&(most, share)| if most == full { 1.0 - share } else { 1.0 })
            .sum::<f64>()
            / 4.0;

        let mut up_since = vec![0u64; self.n];
        for &(at, node) in &counters.rejoin_log {
            up_since[node.index()] = at;
        }
        let settled = end.saturating_sub(RECOVERY_BOUND_TICKS * TICK_US);
        let (mut attempted, mut failed) = (0, 0);
        let mut ae = gossip_ae::AeNodeStats::default();
        let mut swim = gossip_member::MemberStats::default();
        for (node, handler) in driver.iter_handlers() {
            if driver.is_alive(node) && up_since[node.index()] <= settled {
                attempted += 1;
                failed += u64::from(handler.inner().store().known() < full);
            }
            let (a, s) = (handler.inner().stats, handler.stats());
            ae.syn_sent += a.syn_sent;
            ae.entries_adopted += a.entries_adopted;
            ae.digest_mismatches += a.digest_mismatches;
            swim.probes_sent += s.probes_sent;
            swim.ping_reqs_sent += s.ping_reqs_sent;
            swim.false_suspicions += s.false_suspicions;
            swim.updates_applied += s.updates_applied;
            swim.stale_updates += s.stale_updates;
        }
        let node_ticks = (self.n as u64 * (self.setup_ticks + self.work_ticks)) as f64;
        let layer = vec![
            (
                "ae.protocol.adopt_per_syn",
                ae.entries_adopted as f64 / ae.syn_sent as f64,
            ),
            (
                "ae.protocol.bytes_per_node_per_tick",
                bytes as f64 / (self.n as u64 * self.work_ticks) as f64,
            ),
            ("ae.protocol.digest_mismatches", ae.digest_mismatches as f64),
            (
                "member.swim.probes_per_node_per_tick",
                swim.probes_sent as f64 / node_ticks,
            ),
            (
                "member.swim.ping_req_ratio",
                swim.ping_reqs_sent as f64 / swim.probes_sent as f64,
            ),
            ("member.swim.false_suspicions", swim.false_suspicions as f64),
            (
                "member.swim.stale_update_ratio",
                swim.stale_updates as f64 / (swim.updates_applied + swim.stale_updates) as f64,
            ),
        ];
        tr.exit(root);
        Rep {
            setup_s,
            work_s,
            units: events,
            msgs: net.total_messages() - net_before.total_messages(),
            bytes,
            nodes: self.n as u64,
            fingerprint: counters.order_hash,
            attempted,
            failed,
            rounds,
            allocs_work: heap.calls - allocs_before,
            peak_heap_bytes: heap.peak_live,
            layer,
        }
    }
}

/// The most origins any alive node's store knows, and the share of alive
/// nodes knowing that many.
fn knowing_most(driver: &ShardedDriver<Node>) -> (usize, f64) {
    let (mut most, mut holders, mut alive) = (0usize, 0u64, 0u64);
    for (node, handler) in driver.iter_handlers() {
        if !driver.is_alive(node) {
            continue;
        }
        alive += 1;
        let known = handler.inner().store().known();
        if known > most {
            most = known;
            holders = 0;
        }
        holders += u64::from(known == most);
    }
    (most, holders as f64 / alive.max(1) as f64)
}
