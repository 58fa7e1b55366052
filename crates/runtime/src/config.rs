//! Configuration shared by both faces of the sharded core:
//! [`AsyncConfig`] (what [`ShardedTransport`](crate::ShardedTransport) and
//! [`ShardedDriver`](crate::ShardedDriver) are built from), the
//! [`RoundPolicy`] that closes a round window, and the initial-liveness
//! draw every backend shares with the synchronous
//! [`Network`](gossip_net::Network).

use crate::churn::ChurnModel;
use crate::latency::LatencyModel;
use gossip_net::SimConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Draw the initial liveness pattern exactly like
/// [`Network::new`](gossip_net::Network::new): the same
/// `seed ^ SETUP_STREAM_SALT` stream, the same per-node draw order, the
/// same all-dead rescue. Shared by the facade and the sharded driver, so
/// every backend starts from the identical alive set for the same
/// `SimConfig`. Returns the liveness vector, the alive count, and
/// the stream positioned for the backend's subsequent churn draws.
pub(crate) fn draw_initial_liveness(sim: &SimConfig) -> (Vec<bool>, usize, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(sim.seed ^ gossip_net::SETUP_STREAM_SALT);
    let mut alive = vec![true; sim.n];
    let mut alive_count = sim.n;
    if sim.initial_crash_prob > 0.0 {
        for slot in alive.iter_mut() {
            if rng.gen_bool(sim.initial_crash_prob) {
                *slot = false;
                alive_count -= 1;
            }
        }
        if alive_count == 0 {
            alive[0] = true;
            alive_count = 1;
        }
    }
    (alive, alive_count, rng)
}

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
}
