//! Engine-level metrics: virtual time, drop causes, churn counts, the
//! delivered-latency distribution, and the sharded driver's dispatch
//! counters with their order fingerprint.
//!
//! Message/round/bit accounting lives in [`gossip_net::Metrics`] exactly as
//! on the synchronous backend (so protocol-level reports are comparable
//! across backends); this module tracks what only an asynchronous engine
//! can know.

use gossip_net::NodeId;
use gossip_obs::Histogram;
use serde::{Deserialize, Serialize};

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
    /// Latency distribution of *delivered* messages (µs).
    pub latency: Histogram,
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
            &self.latency,
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

/// Export the gauges both faces of the simulator share: population,
/// liveness, virtual time, shard count and queue memory.
pub(crate) fn fill_engine_gauges(
    registry: &mut gossip_obs::Registry,
    nodes: usize,
    alive: usize,
    now_us: u64,
    shards: usize,
    queue_capacity_events: usize,
) {
    let mut gauge = |name, help, value: f64| registry.set_gauge(name, help, &[], value);
    gauge(
        "engine_nodes",
        "Nodes in the simulated network (crashed included)",
        nodes as f64,
    );
    gauge("engine_alive_nodes", "Currently alive nodes", alive as f64);
    gauge(
        "engine_virtual_time_us",
        "Current virtual time (us)",
        now_us as f64,
    );
    gauge(
        "engine_shards",
        "Shards hosting the node space",
        shards as f64,
    );
    gauge(
        "engine_queue_capacity_events",
        "Event slots the calendar queues hold memory for",
        queue_capacity_events as f64,
    );
}

impl DriverMetrics {
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
