//! Configuration shared by both faces of the sharded core:
//! [`AsyncConfig`] (what [`ShardedTransport`](crate::ShardedTransport) and
//! [`ShardedDriver`](crate::ShardedDriver) are built from) and the
//! [`RoundPolicy`] that closes a round window.

use crate::churn::ChurnModel;
use crate::latency::LatencyModel;
use gossip_net::{NodeId, SimConfig};
use rand::rngs::SmallRng;

/// How a round window closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize, Default)]
pub enum RoundPolicy {
    /// The window stretches until the slowest message of the round has
    /// arrived (but at least the latency median). Nothing is ever late;
    /// stragglers show up as *virtual-time* cost — the quantity the
    /// `latency_tail` experiment measures.
    #[default]
    Stretch,
    /// The window closes after a fixed duration (µs); messages still in
    /// flight at the deadline are dropped and counted in
    /// [`AsyncMetrics::late_drops`](crate::AsyncMetrics::late_drops).
    FixedDeadline(u64),
}

/// Full configuration of the sharded core (facade and driver alike).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AsyncConfig {
    /// The shared simulation parameters (size, seed, loss, value range —
    /// exactly what the synchronous backend takes).
    pub sim: SimConfig,
    /// Message latency model.
    pub latency: LatencyModel,
    /// Per-link deterministic latency spread in `[0, 1)`; `0` disables it.
    pub link_spread: f64,
    /// Ongoing churn model.
    pub churn: ChurnModel,
    /// Per-node, per-round sending budget in bits; `None` = unlimited.
    pub bandwidth_bits_per_round: Option<u64>,
    /// Round-closing policy.
    pub round_policy: RoundPolicy,
}

impl AsyncConfig {
    /// Engine configuration with defaults: constant 1 ms latency, no churn,
    /// no bandwidth cap, stretching rounds — the compatibility
    /// configuration that mirrors the synchronous `Network` bit for bit.
    pub fn new(sim: SimConfig) -> Self {
        sim.validate().expect("invalid simulation configuration");
        AsyncConfig {
            sim,
            latency: LatencyModel::default(),
            link_spread: 0.0,
            churn: ChurnModel::none(),
            bandwidth_bits_per_round: None,
            round_policy: RoundPolicy::default(),
        }
    }

    /// Set the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Set the deterministic per-link latency spread (`[0, 1)`).
    pub fn with_link_spread(mut self, spread: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&spread),
            "link spread must lie in [0, 1), got {spread}"
        );
        self.link_spread = spread;
        self
    }

    /// Set the churn model.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Cap each node's per-round sending budget (bits).
    pub fn with_bandwidth_bits_per_round(mut self, bits: u64) -> Self {
        assert!(bits > 0, "bandwidth budget must be positive");
        self.bandwidth_bits_per_round = Some(bits);
        self
    }

    /// Set the round-closing policy.
    pub fn with_round_policy(mut self, policy: RoundPolicy) -> Self {
        self.round_policy = policy;
        self
    }

    /// One message's latency from `from` to `to` (µs): a
    /// [`LatencyModel::sample`] times the link's deterministic bias,
    /// rounded, at least 1 µs. Draws what the sample draws.
    #[inline]
    pub(crate) fn link_latency_us(&self, rng: &mut SmallRng, from: NodeId, to: NodeId) -> u64 {
        let latency_us = self.latency.sample(rng);
        if self.link_spread > 0.0 {
            let bias = LatencyModel::link_bias(self.sim.seed, from, to, self.link_spread);
            ((latency_us as f64) * bias).round().max(1.0) as u64
        } else {
            latency_us
        }
    }
}
