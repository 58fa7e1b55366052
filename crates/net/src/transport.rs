//! The [`Transport`] abstraction: what a protocol needs from a network.
//!
//! `Transport` is the surface every protocol of the workspace is written
//! against — liveness queries, deterministic sampling, message
//! transmission and the round barrier — so that the same protocol code
//! runs unchanged on
//!
//! * the synchronous [`Network`](crate::Network) (the paper's model), and
//! * `gossip-runtime`'s `ShardedTransport` — the round-barrier face of
//!   the discrete-event simulator, which adds per-link latency, ongoing
//!   churn and per-node bandwidth budgets behind the same contract. It
//!   rules on every message at send time and queues nothing, so it costs
//!   about what `Network` does per message and carries the one-shot
//!   protocol chain to n ≥ 10⁷.
//!
//! A backend implements the required core (configuration, metrics,
//! liveness, the RNG, `send`, the round barrier); the derived methods
//! (`n`, `round`, `nodes`, `alive_nodes`, `derive_rng`, the samplers and
//! `send_with_retries`) are written once, here. `Network` implements the
//! core only. `ShardedTransport` also overrides
//! `send_with_retries`, to charge retries against a round deadline. Both
//! backends, and the event-driven `ShardedDriver`, start from the one
//! initial-crash draw, [`draw_initial_liveness`](crate::draw_initial_liveness).
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
/// Backends implement the required core; the derived methods below draw
/// from [`rng_mut`](Transport::rng_mut) in one fixed order, so two backends
/// seeded alike sample alike. Override one only for a semantically
/// different rule, as the simulator's facade does for deadline-bound
/// retries.
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

    /// Send with up to `max_attempts` retransmissions until delivery. Each
    /// attempt is counted as a message. Returns `(attempts, delivered)`.
    /// Retries stop early once either endpoint is dead (no attempt could
    /// succeed). Backends that track virtual time override this to charge
    /// each retry's timeout cycles against a round deadline.
    fn send_with_retries(
        &mut self,
        from: NodeId,
        to: NodeId,
        phase: Phase,
        bits: u32,
        max_attempts: u32,
    ) -> (u32, bool) {
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
