//! `events-churn` — the event core with a trivial handler.
//!
//! `MaxGossipHandler` (one push per node per interval, a `max` on receipt)
//! on a `ShardedDriver` with loss, latency and per-round churn. The
//! calendar queue, payload arena, node table, cross-shard exchange and
//! churn machinery of `runtime::shard` are nearly all of the time and the
//! handler almost none. Two shards on the sequential path exercise the
//! exchange without putting a second thread on a two-core box.
//!
//! Unit of work: one dispatched event (`events_dispatched()`). `rounds`:
//! the first instant, in push intervals at a tenth of an interval's
//! resolution, at which at least 99 % of the alive nodes hold the maximum.
//! An operation is one node that is alive at the horizon and has been up
//! for at least [`SETTLE_INTERVALS`] (a rejoiner restarts from its own
//! value and is told the maximum again by the next push that reaches it);
//! it is correct when it holds the maximum. The dispatch-order hash at the
//! end of the measured section is the rep's fingerprint.

use super::Rep;
use crate::alloc;
use crate::spans::Tracer;
use crate::stats::mix;
use gossip_drr::{MaxGossipConfig, MaxGossipHandler};
use gossip_net::{NodeId, SimConfig};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver};
use std::time::Instant;

pub const NAME: &str = "events-churn";
/// Why the workload exists, in `BENCHMARK.json`'s one line.
pub const WHY: &str =
    "trivial handler on two sequential shards under churn: the calendar queue, arena, node table and cross-shard exchange of runtime::shard are nearly all of the time";

/// One push interval, µs of virtual time (the handler's default).
const INTERVAL_US: u64 = 1_000;
/// A node up for this many intervals has been pushed to, but for a chance
/// below e⁻¹⁵.
const SETTLE_INTERVALS: u64 = 16;
/// Capacity of the passive trace ring in the `trace` variant.
const TRACE_RING: usize = 1 << 13;

#[derive(Clone, Debug)]
pub struct EventsChurn {
    pub n: usize,
    pub seed: u64,
    /// Intervals run in the set-up section (boot callbacks, arena and
    /// calendar growth), in the measured section, and in all by a
    /// counting rep.
    pub setup_intervals: u64,
    pub work_intervals: u64,
    pub horizon_intervals: u64,
    /// The workload is two shards, sequential, untraced; the traced run's
    /// differential runs vary these.
    pub shards: usize,
    pub parallel: bool,
    pub trace: bool,
}

impl EventsChurn {
    pub fn new(seed: u64, toy: bool) -> Self {
        EventsChurn {
            n: if toy { 2_000 } else { 100_000 },
            seed,
            setup_intervals: 2,
            work_intervals: 10,
            horizon_intervals: 40,
            shards: 2,
            parallel: false,
            trace: false,
        }
    }

    fn driver(&self) -> ShardedDriver<MaxGossipHandler> {
        let n = self.n;
        let sim = SimConfig::new(n)
            .with_seed(mix(self.seed, 1 << 32))
            .with_loss_prob(0.01)
            .with_value_range(100_000.0);
        let handler = MaxGossipConfig {
            push_interval_us: INTERVAL_US,
            bits: sim.id_bits() + sim.value_bits(),
            ..MaxGossipConfig::default()
        };
        let config = AsyncConfig::new(sim)
            .with_latency(LatencyModel::Uniform {
                lo_us: 500,
                hi_us: 1_500,
            })
            .with_churn(ChurnModel::per_round(0.002, 0.05).with_min_alive(n / 2));
        let seed = self.seed;
        let driver = ShardedDriver::new(config, self.shards, move |me: NodeId| {
            let own = (mix(seed, me.index() as u64) % 1_000_003) as f64;
            MaxGossipHandler::new(me, own, handler)
        })
        .with_parallel(self.parallel);
        if self.trace {
            driver.with_trace(TRACE_RING)
        } else {
            driver
        }
    }

    pub fn rep(&self, counting: bool, tr: &mut Tracer) -> Rep {
        let root = tr.enter("rep");
        let started = Instant::now();
        let setup = tr.enter("setup");
        let mut driver = tr.span("runtime.shard.construct", || self.driver());
        tr.span("runtime.shard.run_until", || {
            driver.run_until(self.setup_intervals * INTERVAL_US)
        });
        tr.exit(setup);
        let setup_s = started.elapsed().as_secs_f64();

        let events_before = driver.events_dispatched();
        let net_before = driver.net_metrics();
        let allocs_before = alloc::snapshot().calls;
        let work_end = (self.setup_intervals + self.work_intervals) * INTERVAL_US;
        let started = Instant::now();
        tr.span("runtime.shard.run_until", || driver.run_until(work_end));
        let work_s = started.elapsed().as_secs_f64();
        let heap = alloc::snapshot();
        let reading = tr.enter("runtime.shard.counters");
        let events = driver.events_dispatched();
        let net = driver.net_metrics();
        let counters = driver.metrics();
        tr.exit_counted(reading, 3);

        let layer = vec![
            (
                "runtime.shard.arena_reuse_ratio",
                driver.arena_reuse_total() as f64 / net.total_messages() as f64,
            ),
            (
                "runtime.shard.arena_capacity",
                driver.arena_capacity() as f64,
            ),
            (
                "runtime.shard.queue_capacity_events",
                driver.queue_capacity_events() as f64,
            ),
            (
                "runtime.shard.wasted_event_ratio",
                (counters.stale_timer_skips + counters.dead_receiver_drops) as f64 / events as f64,
            ),
        ];
        let mut rep = Rep {
            setup_s,
            work_s,
            units: events - events_before,
            msgs: net.total_messages() - net_before.total_messages(),
            bytes: (net.total_bits() - net_before.total_bits()) / 8,
            nodes: self.n as u64,
            fingerprint: counters.order_hash,
            rounds: f64::NAN,
            allocs_work: heap.calls - allocs_before,
            peak_heap_bytes: heap.peak_live,
            layer,
            ..Rep::default()
        };
        if counting {
            self.run_to_horizon(&mut driver, work_end, &mut rep);
        }
        tr.exit(root);
        rep
    }

    /// Run on to the horizon, watching the maximum spread: fills `rounds`
    /// and the operations tally.
    fn run_to_horizon(
        &self,
        driver: &mut ShardedDriver<MaxGossipHandler>,
        from_us: u64,
        rep: &mut Rep,
    ) {
        // (instant, largest value an alive node holds, share holding it)
        let mut seen: Vec<(u64, f64, f64)> = Vec::new();
        let horizon = self.horizon_intervals * INTERVAL_US;
        let mut now = from_us;
        loop {
            let (top, share) = holding_top(driver);
            seen.push((now, top, share));
            if now >= horizon {
                break;
            }
            // A tenth of an interval while the maximum takes the network
            // over; whole intervals before and after.
            let step = if (0.5..0.99).contains(&share) {
                INTERVAL_US / 10
            } else {
                INTERVAL_US
            };
            now = (now + step).min(horizon);
            driver.run_until(now);
        }
        let (_, target, _) = *seen.last().expect("at least one reading");
        rep.rounds = seen
            .iter()
            .find(|&&(_, top, share)| top == target && share >= 0.99)
            .map_or(f64::NAN, |&(at, _, _)| at as f64 / INTERVAL_US as f64);

        let mut up_since = vec![0u64; self.n];
        for &(at, node) in &driver.metrics().rejoin_log {
            up_since[node.index()] = at;
        }
        let settled = horizon.saturating_sub(SETTLE_INTERVALS * INTERVAL_US);
        for (node, handler) in driver.iter_handlers() {
            if driver.is_alive(node) && up_since[node.index()] <= settled {
                rep.attempted += 1;
                rep.failed += u64::from(handler.current_max() != target);
            }
        }
    }
}

/// The largest value any alive node holds, and the share of alive nodes
/// holding it.
fn holding_top(driver: &ShardedDriver<MaxGossipHandler>) -> (f64, f64) {
    let (mut top, mut holders, mut alive) = (f64::NEG_INFINITY, 0u64, 0u64);
    for (node, handler) in driver.iter_handlers() {
        if !driver.is_alive(node) {
            continue;
        }
        alive += 1;
        let current = handler.current_max();
        if current > top {
            top = current;
            holders = 0;
        }
        holders += u64::from(current == top);
    }
    (top, holders as f64 / alive.max(1) as f64)
}
