//! The round-barrier [`Transport`] facade of the simulator.
//!
//! The workspace has two protocol styles: one-shot round-barrier
//! coordinators (`drr_gossip_max`, `drr_gossip_ave`, `push_sum_average`,
//! convergecast/broadcast on the DRR forest) written against
//! [`Transport`], and continuous [`Handler`](gossip_net::Handler)
//! protocols written for the event-driven hosts.
//! [`ShardedDriver`](crate::ShardedDriver) serves the second style from
//! sharded calendar queues; [`ShardedTransport`] serves the first from the
//! same [`AsyncConfig`] (latency, churn, bandwidth, round policy), so every
//! round-barrier protocol runs under the engine's network model
//! **unchanged** — and at a cost per message close to the synchronous
//! [`Network`](gossip_net::Network)'s, because a round barrier needs no
//! event queue at all.
//!
//! # One window per round, no queue
//!
//! * A protocol round occupies a **window** of virtual time, and all
//!   sends of a round happen logically at the window start (the
//!   phone-call model: one call per node per round, initiated
//!   simultaneously). [`Transport::send`] samples a per-link latency and
//!   draws every verdict **at send time**, from one global RNG in a fixed
//!   order: the message is delivered iff the sender is alive, the
//!   receiver is alive *at the arrival instant*, it survives loss
//!   (`SimConfig::loss_prob`), fits the sender's bandwidth budget, and —
//!   under [`RoundPolicy::FixedDeadline`] — arrives before the window
//!   closes. Mid-window crashes are pre-scheduled at the previous
//!   barrier, so "alive at the arrival instant" is known without waiting.
//! * Round-barrier protocols carry their data in the coordinator, not in
//!   the message, so the only thing a delivery does besides its verdict is
//!   record its latency in [`AsyncMetrics::latency`] (a
//!   [`gossip_obs::Histogram`]) — an order-insensitive tally, taken at
//!   send time too. Both round policies close the window at or beyond
//!   every delivered arrival, so nothing is ever in flight across a
//!   barrier and there is nothing to queue.
//! * [`Transport::advance_round`] is the barrier: it closes the window
//!   (fixed deadline, or stretch to the slowest delivered arrival, at
//!   least one latency median either way), applies the window's crashes,
//!   resets bandwidth budgets and draws next-window churn serially in
//!   node-id order. Per-node state lives in one `NodeTable`, the type each
//!   of the driver's shards keeps, and the model's laws are the driver's
//!   too: a drawn crash is recorded here, and applied at the next barrier.
//! * With [`with_trace`](ShardedTransport::with_trace), arrivals are also
//!   *recorded*: each delivery is buffered and written to the Recv ring at
//!   the barrier, stable-sorted by arrival instant. Without it no buffer
//!   exists.
//!
//! # Determinism
//!
//! Every draw happens at send or barrier time on the shared RNG, in call
//! order, so a run is a pure function of the seed. The `shards` argument
//! and [`with_parallel`](ShardedTransport::with_parallel) survive from the
//! queued implementation for their callers' sake and partition nothing;
//! runs are trivially invariant under both. In the *compatibility
//! configuration* — constant latency, no churn, no bandwidth cap — the
//! draw order matches the synchronous [`Network`](gossip_net::Network)
//! exactly and protocol runs are bit-identical across the two backends.
//! The facade determinism suite holds both: golden fingerprints for the
//! configurations only this backend can run, a live comparison against
//! `Network` for the rest.
//!
//! # Retries
//!
//! [`Transport::send_with_retries`] is the one derived method the facade
//! overrides: under [`RoundPolicy::FixedDeadline`] attempt `k` ships after
//! `k − 1` timeout cycles of one RTT (twice the latency median), and the
//! retries stop once that offset reaches the deadline.

use crate::churn::{Churn, ChurnDraw};
use crate::config::{AsyncConfig, RoundPolicy};
use crate::metrics::{fill_engine_gauges, AsyncMetrics};
use crate::soa::NodeTable;
use gossip_net::{draw_initial_liveness, Metrics, NodeId, Phase, SimConfig, Transport};
use gossip_obs::{TraceCtx, TraceKind, TraceReason, TraceRing};
use rand::rngs::SmallRng;
use rand::Rng;

/// A delivery waiting for the barrier to record its arrival (traced runs
/// only).
#[derive(Clone, Copy, Debug)]
struct PendingRecv {
    at_us: u64,
    from: u32,
    to: u32,
    ctx: TraceCtx,
}

/// What [`ShardedTransport::with_trace`] attaches. Passive: nothing here
/// feeds back into a verdict or a draw.
#[derive(Clone, Debug)]
struct FacadeTrace {
    /// Send/Drop records, written at send time.
    sends: TraceRing,
    /// Recv records, written at the barrier in arrival order.
    recvs: TraceRing,
    /// This round's deliveries, in send order.
    pending: Vec<PendingRecv>,
}

/// Round-barrier [`Transport`] under the engine's network model. See the
/// module docs.
pub struct ShardedTransport {
    config: AsyncConfig,
    /// The shared protocol RNG (seeded and positioned exactly like
    /// `Network`'s: the setup stream continues as the send/churn stream).
    rng: SmallRng,
    /// Liveness, crash instants scheduled inside the current window and
    /// the bits each sender put on the wire this round.
    nodes: NodeTable,
    /// Nodes with a crash scheduled this window, in node-id order.
    crashes: Vec<u32>,
    window_start: u64,
    round_horizon: u64,
    /// The shard count asked for, clamped to `n`. Reported, never used.
    shards: usize,
    /// Engine metrics: drop causes, churn, the delivery-latency tally.
    async_metrics: AsyncMetrics,
    metrics: Metrics,
    /// `None` unless [`with_trace`](ShardedTransport::with_trace) was used.
    trace: Option<FacadeTrace>,
}

impl ShardedTransport {
    /// Build a facade, applying initial crashes with
    /// [`draw_initial_liveness`], the draw every backend makes.
    ///
    /// `shards` partitions nothing: the facade keeps no per-shard state
    /// since it stopped queueing deliveries. The argument stays so that
    /// callers sweeping a shard ladder over both faces of the simulator
    /// need no special case; it must be at least 1 and is reported, clamped
    /// to `n`, by [`num_shards`](ShardedTransport::num_shards) and the
    /// `engine_shards` gauge.
    pub fn new(config: AsyncConfig, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        config
            .sim
            .validate()
            .expect("invalid simulation configuration");
        let (alive, _, rng) = draw_initial_liveness(&config.sim);
        ShardedTransport {
            rng,
            nodes: NodeTable::new(alive, &config),
            crashes: Vec::new(),
            window_start: 0,
            round_horizon: 0,
            shards: shards.min(config.sim.n).max(1),
            async_metrics: AsyncMetrics::default(),
            metrics: Metrics::new(),
            trace: None,
            config,
        }
    }

    /// Does nothing, and returns `self`: there is no drain left to run on
    /// worker threads. Kept because sweeps over both faces of the
    /// simulator call it on each.
    pub fn with_parallel(self, _parallel: bool) -> Self {
        self
    }

    /// Attach trace rings of the most recent `capacity` events each:
    /// Send/Drop records (with minted causal roots) at send time, Recv
    /// records at the barrier in arrival order. Passive — the facade
    /// determinism suite pins that enabling it changes no observable of
    /// the run.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace = Some(FacadeTrace {
            sends: TraceRing::new(capacity),
            recvs: TraceRing::new(capacity),
            pending: Vec::new(),
        });
        self
    }

    /// A merged view of the trace: the send-time records, then the
    /// arrivals recorded at the barriers so far. `None` unless
    /// [`with_trace`](ShardedTransport::with_trace) was used.
    pub fn trace(&self) -> Option<TraceRing> {
        let trace = self.trace.as_ref()?;
        let mut merged = trace.sends.clone();
        trace.recvs.clone().drain_into(&mut merged);
        Some(merged)
    }

    /// Mint a root causal context for an outgoing message — only when
    /// tracing is on. Derived from `(sender, records so far)`, never an
    /// RNG draw (passivity).
    fn root_send_ctx(&self, from: NodeId) -> TraceCtx {
        match &self.trace {
            Some(trace) => TraceCtx::derive(from.index() as u64, trace.sends.total()),
            None => TraceCtx::NONE,
        }
    }

    /// The shard count the facade was built with, clamped to `n`. It
    /// partitions nothing (see [`new`](ShardedTransport::new)).
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Current virtual time (µs). Advances at round barriers.
    pub fn now_us(&self) -> u64 {
        self.window_start
    }

    /// Engine-level metrics (drop causes, churn counts, latency tail).
    pub fn async_metrics(&self) -> AsyncMetrics {
        self.async_metrics.clone()
    }

    /// Event slots the facade holds memory for: 0, unless a trace is
    /// attached, in which case it is the arrival buffer's capacity.
    pub fn queue_capacity_events(&self) -> usize {
        self.trace.as_ref().map_or(0, |t| t.pending.capacity())
    }

    /// Route backend state into an observability registry: protocol
    /// metrics, engine metrics, liveness and allocation gauges. Purely a
    /// read.
    pub fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        self.metrics.fill_registry(registry);
        self.async_metrics.fill_registry(registry);
        fill_engine_gauges(
            registry,
            self.config.sim.n,
            self.nodes.alive_count,
            self.window_start,
            self.shards,
            self.queue_capacity_events(),
        );
        if let Some(ring) = self.trace() {
            ring.fill_registry(registry);
        }
    }

    /// Whether `node` will still be alive at virtual instant `at_us`,
    /// given the crashes already scheduled inside the current window.
    fn alive_at(&self, node: NodeId, at_us: u64) -> bool {
        let i = node.index();
        self.nodes.alive[i] && (self.nodes.pending_crashes == 0 || at_us < self.nodes.crash_at[i])
    }

    /// The virtual time a retransmission has before its round closes:
    /// the fixed deadline, or `None` under [`RoundPolicy::Stretch`], where
    /// deliveries never expire.
    fn retry_deadline_us(&self) -> Option<u64> {
        match self.config.round_policy {
            RoundPolicy::FixedDeadline(d) => Some(d.max(1)),
            RoundPolicy::Stretch => None,
        }
    }

    /// The round-trip-time estimate (µs): what one timeout-plus-
    /// retransmission cycle costs, twice the latency median.
    fn rtt_us(&self) -> u64 {
        2 * self.config.latency.median_us().max(1)
    }

    /// The reference window length: what one round "costs" when nothing is
    /// in flight (keeps virtual time moving on empty rounds).
    fn base_window_len(&self) -> u64 {
        match self.config.round_policy {
            RoundPolicy::FixedDeadline(d) => d.max(1),
            RoundPolicy::Stretch => self.config.latency.median_us().max(1),
        }
    }

    /// One transmission attempt, `elapsed_us` of virtual time after the
    /// send instant (`0` for a first attempt; retransmissions carry the
    /// timeout cycles already burned, see
    /// [`Transport::send_with_retries`]). The verdict sequence and the RNG
    /// draw order are pinned by the golden fingerprints, and in the
    /// compatibility configuration they are `Network`'s.
    fn send_attempt(
        &mut self,
        from: NodeId,
        to: NodeId,
        phase: Phase,
        bits: u32,
        elapsed_us: u64,
        ctx: TraceCtx,
    ) -> bool {
        debug_assert!(from.index() < self.config.sim.n, "sender out of range");
        debug_assert!(to.index() < self.config.sim.n, "receiver out of range");

        // First failed verdict, for the trace record. Tracking it adds no
        // draw and changes no verdict — passivity holds by construction.
        let mut drop_reason = TraceReason::None;

        // 1. Endpoint liveness and the loss draw, in exactly the order the
        //    synchronous Network performs them (RNG-stream compatibility).
        let mut delivered = self.nodes.alive[from.index()] && self.nodes.alive[to.index()];
        if !delivered {
            drop_reason = TraceReason::DeadEndpoint;
        }
        if delivered
            && self.config.sim.loss_prob > 0.0
            && self.rng.gen_bool(self.config.sim.loss_prob)
        {
            delivered = false;
            drop_reason = TraceReason::Loss;
        }

        // 2. Latency: sampled per message, scaled by the deterministic
        //    per-link bias. Constant latency with zero spread draws nothing.
        let latency_us = self.config.link_latency_us(&mut self.rng, from, to);
        let arrival = self.window_start + elapsed_us + latency_us;

        // 3. Bandwidth budget of the sender for this round: a live sender's
        //    attempt accrues whatever its verdict, a dead one's does not.
        let bandwidth = self.config.bandwidth_bits_per_round;
        if self.nodes.charge(from.index(), bits, bandwidth) && delivered {
            delivered = false;
            drop_reason = TraceReason::Bandwidth;
            self.async_metrics.bandwidth_drops += 1;
        }

        // 4. Receiver liveness at the arrival instant (mid-window crashes
        //    were pre-scheduled at the last barrier). Sender calls happen at
        //    the window start, so a sender crashing later this round still
        //    gets its call out.
        if delivered && !self.alive_at(to, arrival) {
            delivered = false;
            drop_reason = TraceReason::DeadEndpoint;
        }

        // 5. Fixed deadlines drop messages that outlive their round — the
        //    elapsed retransmission offset counts against the budget.
        if delivered {
            if let RoundPolicy::FixedDeadline(deadline) = self.config.round_policy {
                if elapsed_us + latency_us > deadline {
                    delivered = false;
                    drop_reason = TraceReason::Late;
                    self.async_metrics.late_drops += 1;
                }
            }
        }

        if let Some(trace) = &mut self.trace {
            let kind = if delivered {
                TraceKind::Send
            } else {
                TraceKind::Drop
            };
            trace.sends.record_ctx(
                self.window_start + elapsed_us,
                from.index() as u64,
                to.index() as u64,
                kind,
                drop_reason,
                ctx,
            );
            if delivered {
                trace.pending.push(PendingRecv {
                    at_us: arrival,
                    from: from.index() as u32,
                    to: to.index() as u32,
                    ctx,
                });
            }
        }

        if delivered {
            // Only delivered messages stretch the round and are tallied:
            // under `RoundPolicy::Stretch` the barrier waits for the
            // slowest message that actually arrives — one lost to loss,
            // churn or the bandwidth cap leaves no straggler to wait for.
            self.round_horizon = self.round_horizon.max(arrival);
            self.async_metrics.latency.record(latency_us);
        }
        self.metrics.record_send(phase, bits, delivered);
        delivered
    }
}

impl Transport for ShardedTransport {
    fn config(&self) -> &SimConfig {
        &self.config.sim
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.alive[node.index()]
    }

    fn alive_count(&self) -> usize {
        self.nodes.alive_count
    }

    fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    fn send(&mut self, from: NodeId, to: NodeId, phase: Phase, bits: u32) -> bool {
        let ctx = self.root_send_ctx(from);
        self.send_attempt(from, to, phase, bits, 0, ctx)
    }

    /// Under [`RoundPolicy::FixedDeadline`], retransmissions happen in
    /// *time*: attempt `k` ships only after `k − 1` timeout cycles of one
    /// RTT each, so its arrival carries that elapsed offset and the offset
    /// eats into the delivery budget. The retry cutoff is therefore exact:
    /// it stops precisely when even a zero-latency retransmission could no
    /// longer arrive in time. Under [`RoundPolicy::Stretch`] the round
    /// barrier is the idealization that a round's sends are simultaneous —
    /// retries stay independent same-instant draws with no time limit,
    /// exactly as on the synchronous `Network`.
    fn send_with_retries(
        &mut self,
        from: NodeId,
        to: NodeId,
        phase: Phase,
        bits: u32,
        max_attempts: u32,
    ) -> (u32, bool) {
        let deadline = self.retry_deadline_us();
        let rtt = self.rtt_us();
        // One causal root for every attempt of this logical send — the
        // retries of one message are one chain.
        let ctx = self.root_send_ctx(from);
        let mut attempts = 0;
        while attempts < max_attempts {
            let elapsed = match deadline {
                Some(d) => {
                    let elapsed = u64::from(attempts) * rtt;
                    if attempts > 0 && elapsed >= d {
                        break;
                    }
                    elapsed
                }
                None => 0,
            };
            attempts += 1;
            if self.send_attempt(from, to, phase, bits, elapsed, ctx) {
                return (attempts, true);
            }
            if !self.nodes.alive[from.index()] || !self.nodes.alive[to.index()] {
                return (attempts, false);
            }
        }
        (attempts, false)
    }

    fn advance_round(&mut self) {
        // Close the window: fixed deadline, or stretch to the slowest
        // arrival of the round (at least one base window either way).
        let horizon = match self.config.round_policy {
            RoundPolicy::FixedDeadline(d) => self.window_start + d.max(1),
            RoundPolicy::Stretch => self
                .round_horizon
                .max(self.window_start + self.base_window_len()),
        };

        // Record the round's arrivals in arrival order (ties in send
        // order). Every one of them lies at or before the horizon.
        if let Some(trace) = &mut self.trace {
            trace.pending.sort_by_key(|recv| recv.at_us);
            for recv in trace.pending.drain(..) {
                debug_assert!(recv.at_us <= horizon, "no arrival outlives its window");
                trace.recvs.record_ctx(
                    recv.at_us,
                    u64::from(recv.to),
                    u64::from(recv.from),
                    TraceKind::Recv,
                    TraceReason::None,
                    recv.ctx,
                );
            }
        }

        // Apply the window's crashes. Delivery verdicts already honoured
        // the crash instants at send time, so applying them at the barrier
        // is equivalent to interleaving them with the arrivals. Crash
        // instants lie inside (window_start, window_start + base_window_len]
        // and both policies close the window at or beyond that bound, so
        // none outlives its window.
        for i in self.crashes.drain(..) {
            self.nodes.crash(i as usize, &mut self.async_metrics);
        }

        self.window_start = horizon;
        self.round_horizon = horizon;
        self.nodes.bits_window.fill(0);
        self.metrics.advance_round();

        // Next window's churn, from the shared stream (nothing when churn is
        // disabled: RNG-stream compatibility with `Network`). A crash is
        // recorded, not queued: `alive_at` rules on arrivals after it.
        let (churn, window) = (self.config.churn, (horizon, self.base_window_len()));
        let metrics = &mut self.async_metrics;
        let mut draw = ChurnDraw::new(churn, &mut self.rng, metrics, window, [&self.nodes]);
        while let Some((i, churn)) = draw.next(&mut self.nodes) {
            if let Churn::Crash(_) = churn {
                self.crashes.push(i as u32);
            }
        }
    }
}

impl std::fmt::Debug for ShardedTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTransport")
            .field("n", &self.config.sim.n)
            .field("now_us", &self.window_start)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::latency::LatencyModel;
    use gossip_net::Network;

    fn churny_config(n: usize, seed: u64) -> AsyncConfig {
        AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.05))
            .with_latency(LatencyModel::Uniform {
                lo_us: 400,
                hi_us: 2_000,
            })
            .with_link_spread(0.2)
            .with_churn(ChurnModel::per_round(0.02, 0.1).with_min_alive(n / 2))
    }

    /// The shard count the behaviour tests below run at (it partitions
    /// nothing; `shard_count_and_drain_path_do_not_change_the_run` and the
    /// integration suite sweep the ladder all the same).
    const SHARDS: usize = 2;

    fn compat_facade(n: usize, seed: u64, loss: f64) -> ShardedTransport {
        ShardedTransport::new(
            AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss)),
            SHARDS,
        )
    }

    /// Crash `node` on the spot (tests only: in a run, crashes are drawn
    /// by the churn model and applied at the barrier).
    fn crash_now(facade: &mut ShardedTransport, node: NodeId) {
        assert!(facade.nodes.alive[node.index()], "node is already dead");
        facade.nodes.alive[node.index()] = false;
        facade.nodes.alive_count -= 1;
    }

    #[test]
    fn compat_configuration_matches_network_bit_for_bit() {
        let sim = SimConfig::new(128)
            .with_seed(21)
            .with_loss_prob(0.15)
            .with_initial_crash_prob(0.1);
        let mut net = Network::new(sim.clone());
        let mut facade = ShardedTransport::new(AsyncConfig::new(sim), SHARDS);
        assert_eq!(net.alive_count(), Transport::alive_count(&facade));
        for _ in 0..2000 {
            let a = net.sample_uniform();
            let b = Transport::sample_uniform(&mut facade);
            assert_eq!(a, b);
            let a2 = net.sample_other_than(a);
            let b2 = facade.sample_other_than(b);
            assert_eq!(a2, b2);
            assert_eq!(
                net.send(a, a2, Phase::Other, 16),
                facade.send(b, b2, Phase::Other, 16)
            );
        }
        net.advance_round();
        facade.advance_round();
        assert_eq!(net.metrics(), Transport::metrics(&facade));
    }

    #[test]
    fn virtual_time_advances_with_rounds() {
        let mut facade = compat_facade(16, 3, 0.0);
        assert_eq!(facade.now_us(), 0);
        facade.advance_round();
        let t1 = facade.now_us();
        assert!(t1 >= 1000, "constant 1ms latency floors the window");
        facade.send(NodeId::new(0), NodeId::new(1), Phase::Other, 8);
        facade.advance_round();
        assert!(facade.now_us() >= t1 + 1000);
        assert_eq!(facade.round(), 2);
    }

    #[test]
    fn stretch_rounds_wait_for_the_straggler() {
        let mut facade = ShardedTransport::new(
            AsyncConfig::new(SimConfig::new(8).with_seed(5)).with_latency(LatencyModel::Uniform {
                lo_us: 10,
                hi_us: 50_000,
            }),
            SHARDS,
        );
        for i in 0..4 {
            facade.send(NodeId::new(i), NodeId::new(i + 4), Phase::Other, 8);
        }
        facade.advance_round();
        let max_latency = facade.async_metrics().latency.max();
        assert_eq!(facade.now_us(), max_latency.max(25_005));
    }

    #[test]
    fn fixed_deadline_drops_late_messages() {
        let mut facade = ShardedTransport::new(
            AsyncConfig::new(SimConfig::new(4).with_seed(9))
                .with_latency(LatencyModel::Uniform {
                    lo_us: 1,
                    hi_us: 2_000,
                })
                .with_round_policy(RoundPolicy::FixedDeadline(1_000)),
            SHARDS,
        );
        let mut delivered = 0u32;
        for _ in 0..500 {
            if facade.send(NodeId::new(0), NodeId::new(1), Phase::Other, 8) {
                delivered += 1;
            }
            facade.advance_round();
        }
        let late = facade.async_metrics().late_drops;
        assert!(
            late > 100,
            "about half the messages should be late, got {late}"
        );
        assert_eq!(u64::from(delivered) + late, 500);
        // Virtual time is exactly rounds × deadline under a fixed policy.
        assert_eq!(facade.now_us(), 500 * 1_000);
    }

    #[test]
    fn retries_are_rtt_capped_under_fixed_deadlines_only() {
        // Constant 1 ms latency → RTT estimate 2 ms. With a 5 ms deadline,
        // attempt k arrives around (k−1)·2000 + 1000 µs: only 3 attempts
        // can meet the deadline, however large the caller's budget.
        let lossy = |policy| {
            ShardedTransport::new(
                AsyncConfig::new(SimConfig::new(4).with_seed(2).with_loss_prob(0.99))
                    .with_round_policy(policy),
                SHARDS,
            )
        };
        let mut facade = lossy(RoundPolicy::FixedDeadline(5_000));
        let (attempts, _) =
            facade.send_with_retries(NodeId::new(0), NodeId::new(1), Phase::Other, 8, 64);
        assert!(attempts <= 3, "deadline-capped, got {attempts}");

        // A deadline shorter than one trip still sends the first attempt,
        // and only that one.
        let mut facade = lossy(RoundPolicy::FixedDeadline(500));
        let (attempts, _) =
            facade.send_with_retries(NodeId::new(0), NodeId::new(1), Phase::Other, 8, 64);
        assert_eq!(attempts, 1, "one gamble, no retries");
        assert_eq!(facade.metrics().total_messages(), 1);

        // Stretching rounds never expire deliveries: the full budget is
        // available (and with 99% loss this seed burns several attempts).
        let mut facade = lossy(RoundPolicy::Stretch);
        let (attempts, _) =
            facade.send_with_retries(NodeId::new(0), NodeId::new(1), Phase::Other, 8, 64);
        assert!(attempts > 3, "uncapped under Stretch, got {attempts}");
    }

    #[test]
    fn bandwidth_budget_caps_per_round_sending() {
        let mut facade = ShardedTransport::new(
            AsyncConfig::new(SimConfig::new(4).with_seed(11)).with_bandwidth_bits_per_round(100),
            SHARDS,
        );
        let ok: Vec<bool> = (0..5)
            .map(|_| facade.send(NodeId::new(0), NodeId::new(1), Phase::Other, 40))
            .collect();
        assert_eq!(ok, vec![true, true, false, false, false]);
        assert_eq!(facade.async_metrics().bandwidth_drops, 3);
        facade.advance_round();
        // Budget resets at the barrier.
        assert!(facade.send(NodeId::new(0), NodeId::new(1), Phase::Other, 40));
        // Other senders have their own budget.
        assert!(facade.send(NodeId::new(2), NodeId::new(3), Phase::Other, 40));
    }

    #[test]
    fn lost_messages_do_not_stretch_the_round() {
        // Regression: round_horizon used to advance to the arrival instant
        // of *undelivered* messages, so under Stretch a message lost to
        // churn (or loss, or the bandwidth cap) still stretched the round
        // for everyone — a phantom tail no real barrier would wait for.
        let median: u64 = 1_000 + (80_000 - 1_000) / 2;
        let build = || {
            ShardedTransport::new(
                AsyncConfig::new(SimConfig::new(8).with_seed(33)).with_latency(
                    LatencyModel::Uniform {
                        lo_us: 1_000,
                        hi_us: 80_000,
                    },
                ),
                SHARDS,
            )
        };

        // A round whose every send fails (dead receiver) must close at the
        // base window length, not at the lost messages' would-be arrivals.
        let mut facade = build();
        crash_now(&mut facade, NodeId::new(7));
        for i in 0..4 {
            let ok = facade.send(NodeId::new(i), NodeId::new(7), Phase::Other, 8);
            assert!(!ok, "send to a crashed receiver cannot deliver");
        }
        facade.advance_round();
        assert_eq!(
            facade.now_us(),
            median,
            "a fully-lossy round inherits no phantom tail"
        );

        // Control: delivered messages still stretch to the real straggler.
        let mut facade = build();
        for i in 0..4 {
            assert!(facade.send(NodeId::new(i), NodeId::new(i + 4), Phase::Other, 8));
        }
        facade.advance_round();
        let slowest = facade.async_metrics().latency.max();
        assert_eq!(facade.now_us(), slowest.max(median));
    }

    #[test]
    fn dead_senders_are_not_charged_bandwidth() {
        // Regression: the sender's tally was charged unconditionally,
        // so a crashed node's budget kept accruing while it was dead and
        // the stale tally was what a rejoiner's accounting started from.
        let mut facade = ShardedTransport::new(
            AsyncConfig::new(SimConfig::new(4).with_seed(11)).with_bandwidth_bits_per_round(100),
            SHARDS,
        );
        crash_now(&mut facade, NodeId::new(0));
        for _ in 0..5 {
            let ok = facade.send(NodeId::new(0), NodeId::new(1), Phase::Other, 40);
            assert!(!ok, "a dead sender transmits nothing");
        }
        assert_eq!(
            facade.nodes.bits_window[0], 0,
            "attempts from a dead sender must not accrue against its budget"
        );
        assert_eq!(
            facade.async_metrics().bandwidth_drops,
            0,
            "dead-sender drops are liveness drops, not bandwidth drops"
        );

        // Over-budget sequence from a *live* sender: every transmitted
        // attempt accrues, including the ones the budget then drops.
        for _ in 0..4 {
            facade.send(NodeId::new(2), NodeId::new(3), Phase::Other, 40);
        }
        assert_eq!(facade.nodes.bits_window[2], 160, "live attempts all accrue");
        assert_eq!(facade.async_metrics().bandwidth_drops, 2);
    }

    #[test]
    fn churn_kills_and_revives_nodes_deterministically() {
        let build = || {
            ShardedTransport::new(
                AsyncConfig::new(SimConfig::new(200).with_seed(13))
                    .with_churn(ChurnModel::per_round(0.05, 0.1)),
                SHARDS,
            )
        };
        let mut facade = build();
        let mut alive_trace = Vec::new();
        for _ in 0..50 {
            facade.advance_round();
            alive_trace.push(Transport::alive_count(&facade));
        }
        assert!(facade.async_metrics().churn_crashes > 0);
        assert!(facade.async_metrics().churn_rejoins > 0);
        let alive_now = facade.alive_nodes().count();
        assert_eq!(alive_now, Transport::alive_count(&facade));
        // Bit-identical across re-runs.
        let mut second = build();
        let second_trace: Vec<usize> = (0..50)
            .map(|_| {
                second.advance_round();
                Transport::alive_count(&second)
            })
            .collect();
        assert_eq!(alive_trace, second_trace);
    }

    #[test]
    fn churn_respects_the_alive_floor() {
        let mut facade = ShardedTransport::new(
            AsyncConfig::new(SimConfig::new(32).with_seed(17))
                .with_churn(ChurnModel::per_round(0.9, 0.0).with_min_alive(5)),
            SHARDS,
        );
        for _ in 0..100 {
            facade.advance_round();
        }
        assert!(Transport::alive_count(&facade) >= 5);
    }

    #[test]
    fn mid_window_crash_blocks_delivery_after_the_instant() {
        // With crash_prob ~ 1 every node that may crash does, at a uniform
        // instant inside the next window; messages arriving after their
        // receiver's instant must not be delivered.
        let mut facade = ShardedTransport::new(
            AsyncConfig::new(SimConfig::new(64).with_seed(19))
                .with_latency(LatencyModel::Constant(500))
                .with_churn(ChurnModel::per_round(0.8, 0.0).with_min_alive(1)),
            SHARDS,
        );
        facade.advance_round(); // draw the first churn window
        let mut dropped_by_churn = 0;
        for i in 0..63 {
            if !facade.send(NodeId::new(63), NodeId::new(i), Phase::Other, 8)
                && facade.is_alive(NodeId::new(i))
            {
                dropped_by_churn += 1;
            }
        }
        assert!(
            dropped_by_churn > 0,
            "some still-alive receivers crash before +500µs"
        );
    }

    #[test]
    fn shard_count_and_drain_path_do_not_change_the_run() {
        let run = |shards, parallel| {
            let mut t = ShardedTransport::new(churny_config(96, 7), shards).with_parallel(parallel);
            let mut sent = 0u32;
            for _ in 0..30 {
                for _ in 0..48 {
                    let a = t.sample_uniform();
                    let b = t.sample_other_than(a);
                    if t.send(a, b, Phase::Other, 32) {
                        sent += 1;
                    }
                }
                t.advance_round();
            }
            (
                sent,
                t.now_us(),
                Transport::alive_count(&t),
                Transport::metrics(&t).clone(),
                t.async_metrics(),
            )
        };
        let one = run(1, false);
        assert_eq!(one, run(2, false));
        assert_eq!(one, run(8, true));
        assert_eq!(one, run(13, true));
    }

    #[test]
    fn latency_is_tallied_at_send_and_nothing_is_queued() {
        // What the calendar drain used to guarantee, held directly: at
        // every barrier the latency tally has seen exactly the delivered
        // sends so far — under both round policies, with loss and churn.
        for policy in [RoundPolicy::Stretch, RoundPolicy::FixedDeadline(1_500)] {
            let mut facade =
                ShardedTransport::new(churny_config(64, 3).with_round_policy(policy), 4);
            let mut delivered = 0u64;
            for _ in 0..40 {
                for _ in 0..64 {
                    let from = facade.sample_uniform();
                    let to = facade.sample_other_than(from);
                    delivered += u64::from(facade.send(from, to, Phase::Other, 16));
                }
                facade.advance_round();
                assert_eq!(facade.async_metrics().latency.count(), delivered);
            }
            let engine = facade.async_metrics();
            assert!(delivered > 1_000, "most sends get through");
            assert!(delivered < 40 * 64, "loss and churn drop some");
            assert!(engine.churn_crashes > 0 && engine.churn_rejoins > 0);
            if policy != RoundPolicy::Stretch {
                assert!(engine.late_drops > 0, "the deadline cuts the tail");
            }
            assert_eq!(
                facade.queue_capacity_events(),
                0,
                "an untraced run buffers nothing"
            );

            let mut registry = gossip_obs::Registry::new();
            facade.fill_registry(&mut registry);
            let text = registry.render();
            assert!(text.contains("engine_queue_capacity_events 0"));
            assert!(text.contains("engine_shards 4"));
        }
    }

    #[test]
    fn traced_arrivals_are_the_delivered_sends_in_arrival_order() {
        // Constant latency times the per-link bias: every delivery's
        // latency can be recomputed from its endpoints.
        let spread = 0.3;
        let config = AsyncConfig::new(SimConfig::new(48).with_seed(29).with_loss_prob(0.1))
            .with_latency(LatencyModel::Constant(700))
            .with_link_spread(spread)
            .with_churn(ChurnModel::per_round(0.03, 0.2).with_min_alive(24));
        let seed = config.sim.seed;
        let mut facade = ShardedTransport::new(config, SHARDS).with_trace(1 << 14);
        let mut delivered = 0usize;
        for _ in 0..25 {
            for _ in 0..48 {
                let from = facade.sample_uniform();
                let to = facade.sample_other_than(from);
                delivered += usize::from(facade.send(from, to, Phase::Other, 16));
            }
            facade.advance_round();
        }
        assert!(
            facade.queue_capacity_events() > 0,
            "a traced run buffers arrivals"
        );

        let ring = facade.trace().expect("trace enabled");
        assert_eq!(ring.overwritten(), 0, "the ring holds the whole run");
        let of_kind = |kind| ring.iter().filter(move |e| e.kind == kind);
        let recvs: Vec<_> = of_kind(TraceKind::Recv).collect();
        assert_eq!(recvs.len(), delivered);
        assert_eq!(of_kind(TraceKind::Send).count(), delivered);
        assert_eq!(
            ring.len(),
            25 * 48 + delivered,
            "one Send or Drop per attempt"
        );
        assert!(
            recvs.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "arrivals are recorded in arrival order"
        );
        for recv in recvs {
            let send = of_kind(TraceKind::Send)
                .find(|s| s.trace_id == recv.trace_id)
                .expect("every arrival has its send");
            assert_eq!((send.node, send.peer), (recv.peer, recv.node));
            let (from, to) = (
                NodeId::new(send.node as usize),
                NodeId::new(send.peer as usize),
            );
            let latency = (700.0 * LatencyModel::link_bias(seed, from, to, spread)).round();
            assert_eq!(recv.at_us, send.at_us + latency as u64);
        }
        let tally = facade.async_metrics().latency;
        assert_eq!(tally.count(), delivered as u64);
    }
}
