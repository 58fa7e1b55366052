//! The [`Transport`] abstraction: what a protocol needs from a network.
//!
//! The protocols of this workspace were originally written directly against
//! the round-synchronous [`Network`](crate::Network). `Transport` extracts
//! the surface they actually use — liveness queries, deterministic sampling,
//! message transmission and the round barrier — so that the same protocol
//! code runs unchanged on
//!
//! * the synchronous [`Network`](crate::Network) (the paper's model), and
//! * `gossip-runtime`'s `ShardedTransport` — the round-barrier face of
//!   the discrete-event simulator, which adds per-link latency, ongoing
//!   churn and per-node bandwidth budgets behind the same contract. It
//!   rules on every message at send time and queues nothing, so it costs
//!   about what `Network` does per message and carries the one-shot
//!   protocol chain to n ≥ 10⁷.
//!
//! The contract every implementation must honour:
//!
//! * All randomness flows through [`Transport::rng_mut`] /
//!   [`Transport::derive_rng`], so a run is a pure function of
//!   `SimConfig::seed` (plus the backend's own configuration).
//! * [`Transport::send`] *counts* every message (the paper counts
//!   transmissions, not deliveries) and returns whether it was delivered.
//! * [`Transport::advance_round`] closes one synchronous round; what a
//!   "round" costs in virtual time is backend-specific.

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::node::NodeId;
use crate::phase::Phase;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A network backend that gossip protocols can run on.
///
/// Default methods mirror [`Network`](crate::Network)'s behaviour exactly —
/// backends only implement the small required core unless they have a faster
/// or semantically different way to do something.
pub trait Transport {
    /// The configuration the backend was built from.
    fn config(&self) -> &SimConfig;

    /// Accumulated metrics (read-only).
    fn metrics(&self) -> &Metrics;

    /// Whether a node is currently alive.
    fn is_alive(&self, node: NodeId) -> bool;

    /// Number of currently alive nodes.
    fn alive_count(&self) -> usize;

    /// The simulation RNG. Protocol-level random choices must come from here
    /// so that runs are reproducible from the seed.
    fn rng_mut(&mut self) -> &mut SmallRng;

    /// Send one `bits`-bit message; returns `true` iff delivered.
    fn send(&mut self, from: NodeId, to: NodeId, phase: Phase, bits: u32) -> bool;

    /// Close the current synchronous round.
    fn advance_round(&mut self);

    /// Reset the metrics (keeps liveness and RNG state).
    fn reset_metrics(&mut self);

    // ---- Derived API (identical across backends) ----

    /// Number of nodes (including crashed ones).
    #[inline]
    fn n(&self) -> usize {
        self.config().n
    }

    /// Number of completed rounds.
    #[inline]
    fn round(&self) -> u64 {
        self.metrics().rounds()
    }

    /// Iterator over all node ids, `0..n`.
    fn nodes(&self) -> NodeIdIter {
        NodeIdIter { range: 0..self.n() }
    }

    /// Iterator over currently alive node ids.
    fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_
    where
        Self: Sized,
    {
        (0..self.n())
            .map(NodeId::new)
            .filter(move |&v| self.is_alive(v))
    }

    /// Derive an independent RNG stream from the simulation seed.
    fn derive_rng(&self, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.config().seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ salt)
    }

    /// Sample a node uniformly at random from all `n` nodes. The sampled
    /// node may be crashed; sending to it will then fail.
    #[inline]
    fn sample_uniform(&mut self) -> NodeId
    where
        Self: Sized,
    {
        let n = self.n();
        NodeId::new(self.rng_mut().gen_range(0..n))
    }

    /// Sample a uniformly random node different from `me` (returns `me` for
    /// a singleton network).
    fn sample_other_than(&mut self, me: NodeId) -> NodeId
    where
        Self: Sized,
    {
        if self.n() == 1 {
            return me;
        }
        loop {
            let candidate = self.sample_uniform();
            if candidate != me {
                return candidate;
            }
        }
    }

    /// Sample a uniformly random *alive* node.
    fn sample_uniform_alive(&mut self) -> NodeId
    where
        Self: Sized,
    {
        loop {
            let candidate = self.sample_uniform();
            if self.is_alive(candidate) {
                return candidate;
            }
        }
    }

    /// How much virtual time a retransmission has before its round closes,
    /// if this backend enforces a delivery deadline. `None` (the default)
    /// means deliveries never expire — retries are limited only by the
    /// caller's budget.
    fn deadline_budget_us(&self) -> Option<u64> {
        None
    }

    /// The backend's round-trip-time estimate (µs): roughly how long one
    /// timeout-plus-retransmission cycle costs. `None` (the default) means
    /// the backend has no latency model to estimate from.
    fn rtt_estimate_us(&self) -> Option<u64> {
        None
    }

    /// Send with up to `max_attempts` retransmissions until delivery. Each
    /// attempt is counted as a message. Returns `(attempts, delivered)`.
    ///
    /// RTT-aware under deadlines: when the backend reports both a
    /// [`deadline_budget_us`](Transport::deadline_budget_us) and an
    /// [`rtt_estimate_us`](Transport::rtt_estimate_us), the retry budget is
    /// capped by the serialized-timeout model — attempt `k` ships after
    /// `k − 1` timeout cycles (`(k−1)·rtt`) and needs one more one-way trip
    /// (`rtt/2`) to arrive, so attempts past that point are not sent (the
    /// blind-retransmission waste the `latency_tail` experiment measures as
    /// `late_drops`). This default applies the model as an a-priori cap;
    /// backends that track virtual time exactly (the asynchronous engine)
    /// override this method and charge each retry's elapsed timeout cycles
    /// against the deadline for real.
    fn send_with_retries(
        &mut self,
        from: NodeId,
        to: NodeId,
        phase: Phase,
        bits: u32,
        max_attempts: u32,
    ) -> (u32, bool) {
        let max_attempts = match (self.deadline_budget_us(), self.rtt_estimate_us()) {
            (Some(deadline), Some(rtt)) if rtt > 0 => {
                let one_way = rtt / 2;
                let feasible = if deadline <= one_way {
                    1 // even the first attempt is a gamble; send it and stop
                } else {
                    (1 + (deadline - one_way) / rtt).min(u64::from(u32::MAX)) as u32
                };
                max_attempts.min(feasible.max(1))
            }
            _ => max_attempts,
        };
        let mut attempts = 0;
        while attempts < max_attempts {
            attempts += 1;
            if self.send(from, to, phase, bits) {
                return (attempts, true);
            }
            // A dead endpoint will never succeed; avoid burning the budget.
            if !self.is_alive(from) || !self.is_alive(to) {
                return (attempts, false);
            }
        }
        (attempts, false)
    }
}

/// Concrete iterator over all node ids (keeps [`Transport::nodes`]
/// object-safe-friendly and borrow-free).
#[derive(Clone, Debug)]
pub struct NodeIdIter {
    range: std::ops::Range<usize>,
}

impl Iterator for NodeIdIter {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.range.next().map(NodeId::new)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for NodeIdIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    // A deliberately tiny fake backend exercising the default methods.
    struct Fake {
        config: SimConfig,
        metrics: Metrics,
        rng: SmallRng,
        dead: Vec<bool>,
        deadline_us: Option<u64>,
        rtt_us: Option<u64>,
        deliver: bool,
    }

    impl Fake {
        fn new(n: usize) -> Self {
            Fake {
                config: SimConfig::new(n).with_seed(7),
                metrics: Metrics::new(),
                rng: SmallRng::seed_from_u64(7),
                dead: vec![false; n],
                deadline_us: None,
                rtt_us: None,
                deliver: true,
            }
        }
    }

    impl Transport for Fake {
        fn config(&self) -> &SimConfig {
            &self.config
        }
        fn metrics(&self) -> &Metrics {
            &self.metrics
        }
        fn is_alive(&self, node: NodeId) -> bool {
            !self.dead[node.index()]
        }
        fn alive_count(&self) -> usize {
            self.dead.iter().filter(|&&d| !d).count()
        }
        fn rng_mut(&mut self) -> &mut SmallRng {
            &mut self.rng
        }
        fn send(&mut self, from: NodeId, to: NodeId, phase: Phase, bits: u32) -> bool {
            let ok = self.deliver && self.is_alive(from) && self.is_alive(to);
            self.metrics.record_send(phase, bits, ok);
            ok
        }
        fn advance_round(&mut self) {
            self.metrics.advance_round();
        }
        fn reset_metrics(&mut self) {
            self.metrics.reset();
        }
        fn deadline_budget_us(&self) -> Option<u64> {
            self.deadline_us
        }
        fn rtt_estimate_us(&self) -> Option<u64> {
            self.rtt_us
        }
    }

    #[test]
    fn default_methods_work_on_a_custom_backend() {
        let mut fake = Fake::new(8);
        fake.dead[3] = true;
        assert_eq!(fake.n(), 8);
        assert_eq!(fake.alive_count(), 7);
        assert_eq!(fake.nodes().count(), 8);
        assert_eq!(fake.alive_nodes().count(), 7);
        assert!(fake.alive_nodes().all(|v| v != NodeId::new(3)));
        for _ in 0..100 {
            let v = fake.sample_uniform_alive();
            assert!(fake.is_alive(v));
            assert_ne!(fake.sample_other_than(NodeId::new(1)), NodeId::new(1));
        }
        let (attempts, ok) =
            fake.send_with_retries(NodeId::new(0), NodeId::new(3), Phase::Other, 8, 5);
        assert!(!ok);
        assert_eq!(attempts, 1, "dead endpoint should not be retried");
        assert_eq!(fake.metrics().total_messages(), 1);
    }

    #[test]
    fn retries_stop_when_the_deadline_cannot_be_met() {
        // rtt = 2000µs (one-way 1000µs), deadline 5000µs: attempt k arrives
        // around (k−1)·2000 + 1000, so attempts 1..=3 are feasible, 4+ are
        // guaranteed-late and must not be sent.
        let mut fake = Fake::new(4);
        fake.deliver = false;
        fake.deadline_us = Some(5_000);
        fake.rtt_us = Some(2_000);
        let (attempts, ok) =
            fake.send_with_retries(NodeId::new(0), NodeId::new(1), Phase::Other, 8, 64);
        assert!(!ok);
        assert_eq!(attempts, 3, "retry budget capped by the deadline");
        assert_eq!(fake.metrics().total_messages(), 3);

        // A deadline shorter than one trip still allows the single gamble.
        fake.deadline_us = Some(500);
        let (attempts, _) =
            fake.send_with_retries(NodeId::new(0), NodeId::new(1), Phase::Other, 8, 64);
        assert_eq!(attempts, 1);

        // Without a deadline (or without an RTT model) the cap is inactive.
        fake.deadline_us = None;
        let (attempts, _) =
            fake.send_with_retries(NodeId::new(0), NodeId::new(1), Phase::Other, 8, 5);
        assert_eq!(attempts, 5);
        fake.deadline_us = Some(5_000);
        fake.rtt_us = None;
        let (attempts, _) =
            fake.send_with_retries(NodeId::new(0), NodeId::new(1), Phase::Other, 8, 5);
        assert_eq!(attempts, 5);
    }

    #[test]
    fn network_and_trait_defaults_sample_identically() {
        // Network implements the hot sampling paths itself; the trait default
        // must stay bit-for-bit compatible so protocols behave the same on
        // backends that use the defaults.
        let cfg = SimConfig::new(64).with_seed(42);
        let mut net = Network::new(cfg.clone());
        let mut fake = Fake {
            config: cfg.clone(),
            metrics: Metrics::new(),
            rng: net.rng_mut().clone(),
            dead: vec![false; 64],
            deadline_us: None,
            rtt_us: None,
            deliver: true,
        };
        for _ in 0..200 {
            let a = net.sample_uniform();
            let b = Transport::sample_uniform(&mut fake);
            assert_eq!(a, b);
        }
        assert_eq!(net.derive_rng(9), Transport::derive_rng(&fake, 9));
    }
}
