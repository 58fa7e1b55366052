//! Engine-level metrics: virtual time, drop causes, churn counts, the
//! delivered-latency distribution, and the sharded driver's dispatch
//! counters with their order fingerprint.
//!
//! Message/round/bit accounting lives in [`gossip_net::Metrics`] exactly as
//! on the synchronous backend (so protocol-level reports are comparable
//! across backends); this module tracks what only an asynchronous engine
//! can know.

use gossip_net::NodeId;
use serde::{Deserialize, Serialize};

/// Fixed-resolution log-scale histogram of latencies (µs).
///
/// Buckets subdivide each power of two into 8 sub-buckets, giving ≤ ~9%
/// relative quantile error over the full `u64` range at a fixed 512-slot
/// footprint — plenty for tail inspection without storing samples.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

const SUB_BUCKETS: u64 = 8;
const NUM_BUCKETS: usize = (64 * SUB_BUCKETS) as usize;

fn bucket_of(us: u64) -> usize {
    if us < SUB_BUCKETS {
        return us as usize; // exact for the first octave
    }
    let octave = 63 - us.leading_zeros() as u64;
    let offset = (us >> (octave.saturating_sub(3))) & (SUB_BUCKETS - 1);
    (octave * SUB_BUCKETS + offset) as usize
}

fn bucket_midpoint(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUB_BUCKETS {
        return bucket;
    }
    let octave = bucket / SUB_BUCKETS;
    let offset = bucket % SUB_BUCKETS;
    let base = 1u64 << octave;
    let step = (base / SUB_BUCKETS).max(1);
    base + offset * step + step / 2
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Record one delivered-message latency.
    pub fn record(&mut self, us: u64) {
        self.counts[bucket_of(us).min(NUM_BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency (µs); 0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.total as f64
        }
    }

    /// Minimum recorded latency (µs); 0 when empty.
    pub fn min_us(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_us
        }
    }

    /// Maximum recorded latency (µs).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Approximate `q`-quantile (e.g. `0.99`), by cumulative bucket walk.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_midpoint(i).clamp(self.min_us(), self.max_us);
            }
        }
        self.max_us
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Export into the observability layer's histogram type. Both use the
    /// same 512-slot log-bucket layout, so this is a lossless copy.
    pub fn to_obs(&self) -> gossip_obs::Histogram {
        gossip_obs::Histogram::from_raw(
            &self.counts,
            self.total,
            self.sum_us,
            self.min_us,
            self.max_us,
        )
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// What the asynchronous engine knows beyond [`gossip_net::Metrics`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AsyncMetrics {
    /// Messages dropped because they missed a fixed round deadline.
    pub late_drops: u64,
    /// Messages dropped by the per-node bandwidth budget.
    pub bandwidth_drops: u64,
    /// Mid-run crashes applied by the churn model.
    pub churn_crashes: u64,
    /// Rejoins applied by the churn model.
    pub churn_rejoins: u64,
    /// Latency distribution of *delivered* messages.
    pub latency: LatencyHistogram,
}

impl AsyncMetrics {
    /// Merge another metrics object into this one (counters add, latency
    /// histograms merge). The sharded engine keeps one `AsyncMetrics` per
    /// shard and merges them into the global view on demand.
    pub fn merge(&mut self, other: &AsyncMetrics) {
        self.late_drops += other.late_drops;
        self.bandwidth_drops += other.bandwidth_drops;
        self.churn_crashes += other.churn_crashes;
        self.churn_rejoins += other.churn_rejoins;
        self.latency.merge(&other.latency);
    }

    /// Route these counters into an observability registry as the
    /// `engine_*` families. Purely a read.
    pub fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        registry.add_counter(
            "engine_late_drops_total",
            "Messages dropped for missing a fixed round deadline",
            &[],
            self.late_drops,
        );
        registry.add_counter(
            "engine_bandwidth_drops_total",
            "Messages dropped by the per-node bandwidth budget",
            &[],
            self.bandwidth_drops,
        );
        registry.add_counter(
            "engine_churn_crashes_total",
            "Mid-run crashes applied by the churn model",
            &[],
            self.churn_crashes,
        );
        registry.add_counter(
            "engine_churn_rejoins_total",
            "Rejoins applied by the churn model",
            &[],
            self.churn_rejoins,
        );
        registry.merge_histogram(
            "engine_delivery_latency_us",
            "Latency distribution of delivered messages (virtual us)",
            &[],
            &self.latency.to_obs(),
        );
    }
}

/// Counters the sharded driver maintains on top of [`AsyncMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriverMetrics {
    /// `on_start` invocations (initial boots + rejoin restarts).
    pub handler_starts: u64,
    /// Messages dispatched into `on_message`.
    pub messages_dispatched: u64,
    /// Timer events dispatched into `on_timer`.
    pub timer_fires: u64,
    /// Timers dropped because their incarnation was superseded by a rejoin
    /// (or their node is currently dead).
    pub stale_timer_skips: u64,
    /// Timers suppressed by
    /// [`Mailbox::cancel_timer`](gossip_net::Mailbox::cancel_timer) before
    /// they fired.
    pub cancelled_timer_skips: u64,
    /// Delivered messages dropped at dispatch because the receiver crashed
    /// in a later window than the delivery verdict was computed in.
    pub dead_receiver_drops: u64,
    /// Every rejoin restart, as `(boundary instant µs, node)` in dispatch
    /// order. Experiments use this to measure re-sync recovery time.
    pub rejoin_log: Vec<(u64, NodeId)>,
    /// FNV-style fingerprint of the dispatch schedule: each node's events
    /// (timestamp, kind, origin, origin sequence) fold into a per-node
    /// hash, and the per-node hashes fold here in node-id order. Two runs
    /// dispatching the same events in the same order — the determinism
    /// contract — agree on it, whatever the shard count.
    pub order_hash: u64,
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl DriverMetrics {
    pub(crate) fn new() -> Self {
        DriverMetrics {
            order_hash: FNV_OFFSET,
            ..DriverMetrics::default()
        }
    }

    /// Fold one word into the order hash. The sharded driver combines its
    /// per-node dispatch hashes through this, in node-id order.
    pub(crate) fn fold_word(&mut self, w: u64) {
        self.order_hash = (self.order_hash ^ w).wrapping_mul(FNV_PRIME);
    }

    /// Route these counters into an observability registry as the
    /// `driver_*` families. Purely a read.
    pub fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        registry.add_counter(
            "driver_handler_starts_total",
            "on_start invocations (boots + rejoin restarts)",
            &[],
            self.handler_starts,
        );
        registry.add_counter(
            "driver_messages_dispatched_total",
            "Messages dispatched into on_message",
            &[],
            self.messages_dispatched,
        );
        registry.add_counter(
            "driver_timer_fires_total",
            "Timer events dispatched into on_timer",
            &[],
            self.timer_fires,
        );
        registry.add_counter(
            "driver_stale_timer_skips_total",
            "Timers dropped for a superseded incarnation or dead node",
            &[],
            self.stale_timer_skips,
        );
        registry.add_counter(
            "driver_cancelled_timer_skips_total",
            "Timers suppressed by cancel_timer before firing",
            &[],
            self.cancelled_timer_skips,
        );
        registry.add_counter(
            "driver_dead_receiver_drops_total",
            "Deliveries dropped because the receiver crashed later",
            &[],
            self.dead_receiver_drops,
        );
        registry.add_counter(
            "driver_rejoins_total",
            "Rejoin restarts applied",
            &[],
            self.rejoin_log.len() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(us);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min_us(), 1);
        assert_eq!(h.max_us(), 1000);
        let p50 = h.quantile_us(0.5);
        assert!((450..=560).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((900..=1000).contains(&p99), "p99 = {p99}");
        assert!((h.mean_us() - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.min_us(), 0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1000);
        b.record(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min_us(), 10);
        assert_eq!(a.max_us(), 2000);
    }

    #[test]
    fn buckets_are_monotone_in_latency() {
        let mut last = 0;
        for us in [0u64, 1, 7, 8, 9, 100, 1000, 65_000, 1 << 33] {
            let b = bucket_of(us);
            assert!(b >= last, "bucket({us}) = {b} < {last}");
            last = b;
        }
        assert!(bucket_of(u64::MAX) < NUM_BUCKETS);
    }
}
