//! The round-barrier [`Transport`] facade over the sharded event core.
//!
//! The workspace has two protocol styles: one-shot round-barrier
//! coordinators (`drr_gossip_max`, `drr_gossip_ave`, `push_sum_average`,
//! convergecast/broadcast on the DRR forest) written against
//! [`Transport`], and continuous [`Handler`](gossip_net::Handler)
//! protocols written for the event-driven hosts. The sharded scale-out
//! work ([`ShardedDriver`](crate::ShardedDriver)) only served the second
//! style; [`ShardedTransport`] closes the gap by putting the same calendar
//! machinery behind the plain `Transport` trait, so every round-barrier
//! protocol runs on the sharded core **unchanged**.
//!
//! # Round ↔ epoch mapping
//!
//! A `Transport` round maps onto the sharded core as one **window barrier
//! per round**, with no intermediate epochs:
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
//! * Each *delivered* message becomes a plain-old-data event in the
//!   calendar queue of the **receiver's shard** (payload-free:
//!   round-barrier protocols carry their data in the coordinator, not in
//!   the event).
//! * [`Transport::advance_round`] is the barrier: it closes the window
//!   (fixed deadline, or stretch to the slowest delivered arrival, at
//!   least one latency median either way), drains every shard's calendar
//!   up to the horizon — concurrently when the host has cores to spare —
//!   tallies per-shard delivery latencies, applies the window's crashes,
//!   resets bandwidth budgets and draws next-window churn serially in
//!   node-id order.
//!
//! # Determinism
//!
//! Every protocol-visible draw happens at send time on the shared RNG, so
//! a run is a pure function of the seed; the sharded part of the machinery
//! only ever touches *order-insensitive* state. A drained event does
//! exactly one thing — record its latency into its shard's
//! [`LatencyHistogram`] — and histogram merge is a commutative sum;
//! crashes apply at the barrier from verdicts fixed at churn-draw time;
//! both round policies close the window at or beyond every delivered
//! arrival, so the queues are empty at every barrier and no state leaks
//! across rounds. Hence runs are invariant under the shard count and the
//! parallel/sequential drain path. In the *compatibility configuration* —
//! constant latency, no churn, no bandwidth cap — the draw order matches
//! the synchronous [`Network`](gossip_net::Network) exactly and protocol
//! runs are bit-identical across the two backends. The facade determinism
//! suite holds both: golden fingerprints for the configurations only this
//! backend can run, a live comparison against `Network` for the rest.
//!
//! [`LatencyHistogram`]: crate::LatencyHistogram

use crate::arena::NO_PAYLOAD;
use crate::config::{draw_initial_liveness, AsyncConfig, RoundPolicy};
use crate::latency::LatencyModel;
use crate::metrics::AsyncMetrics;
use crate::shard::{CalendarQueue, EventKind, ShardEvent};
use crate::soa::NO_CRASH;
use gossip_net::{Metrics, NodeId, Phase, SimConfig, Transport};
use gossip_obs::{TraceCtx, TraceKind, TraceReason, TraceRing};
use rand::rngs::SmallRng;
use rand::Rng;

/// Epochs shorter than this would not pay for a thread scope; the facade
/// drains whole round windows, so the only cheap case is a tiny window.
const MIN_PARALLEL_WINDOW_US: u64 = 32;

/// [`Transport`] over sharded calendar queues. See the module docs.
pub struct ShardedTransport {
    config: AsyncConfig,
    /// The shared protocol RNG (seeded and positioned exactly like
    /// `Network`'s: the setup stream continues as the send/churn stream).
    rng: SmallRng,
    alive: Vec<bool>,
    alive_count: usize,
    /// Crash instant scheduled inside the current window, per node
    /// ([`NO_CRASH`] when none is).
    crash_at: Vec<u64>,
    /// Nodes with a crash scheduled this window, in node-id order.
    crashes: Vec<u32>,
    bits_this_round: Vec<u64>,
    window_start: u64,
    round_horizon: u64,
    /// Nodes per shard; node `i`'s deliveries queue at shard `i / chunk`.
    chunk: usize,
    /// Per-shard calendar queues, receiver-partitioned. Only *delivered*
    /// messages are queued (an undelivered one has no barrier-time effect).
    queues: Vec<CalendarQueue>,
    /// Per-shard engine metrics (the latency tallies the concurrent drain
    /// writes); merged with `base_async` on read.
    shard_async: Vec<AsyncMetrics>,
    /// Engine metrics written at send/barrier time (drop causes, churn).
    base_async: AsyncMetrics,
    metrics: Metrics,
    /// Global origin-sequence counter for queued events (the calendar only
    /// needs a total order key; the facade never dispatches callbacks, so
    /// one shared counter is fine).
    next_oseq: u64,
    parallel: bool,
    /// Send/Drop records at send time (`None` unless
    /// [`with_trace`](ShardedTransport::with_trace) was used). Passive.
    trace: Option<TraceRing>,
    /// Per-shard Recv records, written by the (possibly concurrent) round
    /// drain; merged with the base ring on read, in shard order.
    shard_trace: Vec<Option<TraceRing>>,
}

impl ShardedTransport {
    /// Build a facade over `shards` receiver-partitioned calendar queues,
    /// applying initial crashes exactly like
    /// [`Network::new`](gossip_net::Network::new) (same RNG stream).
    pub fn new(config: AsyncConfig, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        config
            .sim
            .validate()
            .expect("invalid simulation configuration");
        let n = config.sim.n;
        let num_shards = shards.min(n).max(1);
        let chunk = n.div_ceil(num_shards);
        let num_shards = n.div_ceil(chunk);
        let (alive, alive_count, rng) = draw_initial_liveness(&config.sim);
        let parallel = num_shards > 1
            && std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1)
                > 1;
        ShardedTransport {
            rng,
            alive,
            alive_count,
            crash_at: vec![NO_CRASH; n],
            crashes: Vec::new(),
            bits_this_round: vec![0; n],
            window_start: 0,
            round_horizon: 0,
            chunk,
            queues: (0..num_shards).map(|_| CalendarQueue::new()).collect(),
            shard_async: vec![AsyncMetrics::default(); num_shards],
            base_async: AsyncMetrics::default(),
            metrics: Metrics::new(),
            next_oseq: 0,
            parallel,
            trace: None,
            shard_trace: vec![None; num_shards],
            config,
        }
    }

    /// Force the parallel (scoped worker threads) or sequential drain
    /// path. Results are bit-identical either way.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel && self.queues.len() > 1;
        self
    }

    /// Attach a trace ring of the most recent `capacity` events:
    /// Send/Drop records (with minted causal roots) at send time into a
    /// base ring, Recv records into per-shard rings at the round drain.
    /// Passive — the facade determinism suite pins that enabling it
    /// changes no observable of the run.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace = Some(TraceRing::new(capacity));
        self.shard_trace = (0..self.queues.len())
            .map(|_| Some(TraceRing::new(capacity)))
            .collect();
        self
    }

    /// A merged view of the trace: send-time records plus whatever the
    /// round drains recorded, in shard order. `None` unless
    /// [`with_trace`](ShardedTransport::with_trace) was used.
    pub fn trace(&self) -> Option<TraceRing> {
        let mut merged = self.trace.clone()?;
        for ring in self.shard_trace.iter().flatten() {
            ring.clone().drain_into(&mut merged);
        }
        Some(merged)
    }

    /// Mint a root causal context for an outgoing message — only when
    /// tracing is on. Derived from `(sender, records so far)`, never an
    /// RNG draw (passivity).
    fn root_send_ctx(&self, from: NodeId) -> TraceCtx {
        match &self.trace {
            Some(ring) => TraceCtx::derive(from.index() as u64, ring.total()),
            None => TraceCtx::NONE,
        }
    }

    /// Number of shards actually in use (`min(requested, n)`).
    pub fn num_shards(&self) -> usize {
        self.queues.len()
    }

    /// Current virtual time (µs). Advances at round barriers.
    pub fn now_us(&self) -> u64 {
        self.window_start
    }

    /// The engine configuration.
    pub fn async_config(&self) -> &AsyncConfig {
        &self.config
    }

    /// Engine-level metrics (drop causes, churn counts, latency tail),
    /// merged across the per-shard drain tallies.
    pub fn async_metrics(&self) -> AsyncMetrics {
        let mut merged = self.base_async.clone();
        for shard in &self.shard_async {
            merged.merge(shard);
        }
        merged
    }

    /// Take the protocol metrics out, leaving zeroed metrics behind
    /// (mirrors `Network::take_metrics`).
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::replace(&mut self.metrics, Metrics::new())
    }

    /// Total event slots the calendar queues hold memory for — the
    /// flat-memory regression probe.
    pub fn queue_capacity_events(&self) -> usize {
        self.queues.iter().map(CalendarQueue::capacity_events).sum()
    }

    /// Route backend state into an observability registry: protocol
    /// metrics, engine metrics, liveness and allocation gauges. Purely a
    /// read.
    pub fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        self.metrics.fill_registry(registry);
        self.async_metrics().fill_registry(registry);
        registry.set_gauge(
            "engine_nodes",
            "Nodes in the simulated network (crashed included)",
            &[],
            self.config.sim.n as f64,
        );
        registry.set_gauge(
            "engine_alive_nodes",
            "Currently alive nodes",
            &[],
            self.alive_count as f64,
        );
        registry.set_gauge(
            "engine_virtual_time_us",
            "Current virtual time (us)",
            &[],
            self.window_start as f64,
        );
        registry.set_gauge(
            "engine_shards",
            "Shards hosting the node space",
            &[],
            self.queues.len() as f64,
        );
        registry.set_gauge(
            "engine_queue_capacity_events",
            "Event slots the calendar queues hold memory for",
            &[],
            self.queue_capacity_events() as f64,
        );
        if let Some(ring) = self.trace() {
            registry.add_counter(
                "trace_events_total",
                "Protocol events recorded into the trace ring",
                &[],
                ring.total(),
            );
            registry.add_counter(
                "trace_ring_overwrites_total",
                "Trace events lost to ring capacity",
                &[],
                ring.overwritten(),
            );
            gossip_obs::reconstruct(&ring).fill_registry(registry);
        }
    }

    /// Whether `node` will still be alive at virtual instant `at_us`,
    /// given the crashes already scheduled inside the current window.
    fn alive_at(&self, node: NodeId, at_us: u64) -> bool {
        self.alive[node.index()] && at_us < self.crash_at[node.index()]
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
        let sender_alive = self.alive[from.index()];
        let mut delivered = sender_alive && self.alive[to.index()];
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
        let mut latency_us = self.config.latency.sample(&mut self.rng);
        if self.config.link_spread > 0.0 {
            let bias =
                LatencyModel::link_bias(self.config.sim.seed, from, to, self.config.link_spread);
            latency_us = ((latency_us as f64) * bias).round().max(1.0) as u64;
        }
        let arrival = self.window_start + elapsed_us + latency_us;

        // 3. Bandwidth budget of the sender for this round. Only a live
        //    sender puts bits on the wire: attempts from a dead node must
        //    not accrue against the budget it gets back on rejoin.
        //    Over-budget attempts by a live sender *do* accrue — the NIC
        //    tried and burned the slot — so an oversized message can starve
        //    later small ones until the barrier resets the budget.
        if delivered {
            if let Some(budget) = self.config.bandwidth_bits_per_round {
                if self.bits_this_round[from.index()] + u64::from(bits) > budget {
                    delivered = false;
                    drop_reason = TraceReason::Bandwidth;
                    self.base_async.bandwidth_drops += 1;
                }
            }
        }
        if sender_alive {
            self.bits_this_round[from.index()] += u64::from(bits);
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
                    self.base_async.late_drops += 1;
                }
            }
        }

        let record_at = self.window_start + elapsed_us;
        if let Some(ring) = &mut self.trace {
            let kind = if delivered {
                TraceKind::Send
            } else {
                TraceKind::Drop
            };
            ring.record_ctx(
                record_at,
                from.index() as u64,
                to.index() as u64,
                kind,
                drop_reason,
                ctx,
            );
        }

        if delivered {
            // Only delivered messages stretch the round and queue: under
            // `RoundPolicy::Stretch` the barrier waits for the slowest
            // message that actually arrives — one lost to loss, churn or
            // the bandwidth cap leaves no straggler to wait for and has no
            // barrier-time effect.
            self.round_horizon = self.round_horizon.max(arrival);
            let oseq = self.next_oseq;
            self.next_oseq += 1;
            self.queues[to.index() / self.chunk].push(ShardEvent {
                at_us: arrival,
                origin: from.index() as u32,
                oseq,
                to: to.index() as u32,
                kind: EventKind::Deliver {
                    phase,
                    bits,
                    latency_us,
                    payload: NO_PAYLOAD,
                    trace_id: ctx.trace_id,
                    hop: ctx.hop,
                },
            });
        }
        self.metrics.record_send(phase, bits, delivered);
        delivered
    }

    /// Draw next-window churn from the shared stream, in node-id order;
    /// draws nothing when churn is disabled (RNG-stream compatibility with
    /// `Network`). Crashes land at a uniform instant strictly inside the
    /// window and are recorded (not queued — the barrier applies them) so
    /// `alive_at` can rule on arrivals; rejoins take effect at the
    /// boundary itself.
    fn draw_churn(&mut self, window_start: u64, window_len: u64) {
        if !self.config.churn.is_enabled() {
            return;
        }
        let churn = self.config.churn;
        for i in 0..self.config.sim.n {
            if self.alive[i] {
                let can_crash = self.alive_count - self.crashes.len() > churn.min_alive;
                if can_crash
                    && churn.crash_prob > 0.0
                    && self.crash_at[i] == NO_CRASH
                    && self.rng.gen_bool(churn.crash_prob)
                {
                    let at = window_start + 1 + self.rng.gen_range(0..window_len.max(1));
                    self.crash_at[i] = at;
                    self.crashes.push(i as u32);
                }
            } else if churn.rejoin_prob > 0.0 && self.rng.gen_bool(churn.rejoin_prob) {
                self.alive[i] = true;
                self.alive_count += 1;
                self.base_async.churn_rejoins += 1;
            }
        }
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
        self.alive[node.index()]
    }

    fn alive_count(&self) -> usize {
        self.alive_count
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
        let deadline = self.deadline_budget_us();
        let rtt = self
            .rtt_estimate_us()
            .expect("the facade always has a latency model");
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
            if !self.alive[from.index()] || !self.alive[to.index()] {
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

        // Drain every shard's calendar up to the horizon (inclusive),
        // tallying delivery latencies
        // into per-shard histograms — the only per-event effect, and an
        // order-insensitive one, which is what makes the concurrent drain
        // safe and the result shard-count invariant. Empty queues must
        // sweep too: their cursors have to cross the window so next
        // round's arrivals are never "in the past".
        let end = horizon + 1;
        let drain_one =
            |queue: &mut CalendarQueue, tally: &mut AsyncMetrics, ring: &mut Option<TraceRing>| {
                queue.drain_until(end, |ev| {
                    if let EventKind::Deliver {
                        latency_us,
                        trace_id,
                        hop,
                        ..
                    } = ev.kind
                    {
                        tally.latency.record(latency_us);
                        // Arrival record into the shard's own ring: shard-
                        // local order is drain order, which is deterministic
                        // per shard whatever the thread path.
                        if let Some(ring) = ring {
                            ring.record_ctx(
                                ev.at_us,
                                u64::from(ev.to),
                                u64::from(ev.origin),
                                TraceKind::Recv,
                                TraceReason::None,
                                TraceCtx { trace_id, hop },
                            );
                        }
                    }
                });
            };
        if self.parallel && horizon - self.window_start >= MIN_PARALLEL_WINDOW_US {
            std::thread::scope(|scope| {
                for ((queue, tally), ring) in self
                    .queues
                    .iter_mut()
                    .zip(self.shard_async.iter_mut())
                    .zip(self.shard_trace.iter_mut())
                {
                    scope.spawn(move || drain_one(queue, tally, ring));
                }
            });
        } else {
            for ((queue, tally), ring) in self
                .queues
                .iter_mut()
                .zip(self.shard_async.iter_mut())
                .zip(self.shard_trace.iter_mut())
            {
                drain_one(queue, tally, ring);
            }
        }
        debug_assert!(
            self.queues.iter().all(CalendarQueue::is_empty),
            "both round policies close the window at or beyond every delivered arrival"
        );

        // Apply the window's crashes. Delivery verdicts already honoured
        // the crash instants at send time, so applying them at the barrier
        // is equivalent to interleaving them with the arrivals. Crash
        // instants lie inside (window_start, window_start + base_window_len]
        // and both policies close the window at or beyond that bound, so
        // none outlives its window.
        for i in std::mem::take(&mut self.crashes) {
            let i = i as usize;
            if self.alive[i] {
                self.alive[i] = false;
                self.alive_count -= 1;
                self.base_async.churn_crashes += 1;
            }
            self.crash_at[i] = NO_CRASH;
        }

        self.window_start = horizon;
        self.round_horizon = horizon;
        self.bits_this_round.iter_mut().for_each(|b| *b = 0);
        self.metrics.advance_round();

        let window_len = self.base_window_len();
        self.draw_churn(horizon, window_len);
    }

    fn reset_metrics(&mut self) {
        self.metrics.reset();
        self.base_async = AsyncMetrics::default();
        self.shard_async = vec![AsyncMetrics::default(); self.queues.len()];
    }

    fn deadline_budget_us(&self) -> Option<u64> {
        match self.config.round_policy {
            RoundPolicy::FixedDeadline(d) => Some(d.max(1)),
            RoundPolicy::Stretch => None,
        }
    }

    fn rtt_estimate_us(&self) -> Option<u64> {
        Some(2 * self.config.latency.median_us().max(1))
    }
}

impl std::fmt::Debug for ShardedTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTransport")
            .field("n", &self.config.sim.n)
            .field("shards", &self.queues.len())
            .field("now_us", &self.window_start)
            .field("parallel", &self.parallel)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
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

    /// The shard count the behaviour tests below run at (they are
    /// shard-count invariant; `shard_count_and_drain_path_do_not_change_the_run`
    /// and the integration suite sweep the ladder).
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
        assert!(facade.alive[node.index()], "node is already dead");
        facade.alive[node.index()] = false;
        facade.alive_count -= 1;
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
        let max_latency = facade.async_metrics().latency.max_us();
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
        let slowest = facade.async_metrics().latency.max_us();
        assert_eq!(facade.now_us(), slowest.max(median));
    }

    #[test]
    fn dead_senders_are_not_charged_bandwidth() {
        // Regression: bits_this_round[from] was charged unconditionally,
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
            facade.bits_this_round[0], 0,
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
        assert_eq!(facade.bits_this_round[2], 160, "live attempts all accrue");
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
    fn reset_metrics_clears_both_layers() {
        let mut facade = compat_facade(8, 23, 0.0);
        facade.send(NodeId::new(0), NodeId::new(1), Phase::Other, 8);
        facade.advance_round();
        Transport::reset_metrics(&mut facade);
        assert_eq!(Transport::metrics(&facade).total_messages(), 0);
        assert_eq!(facade.async_metrics().latency.count(), 0);
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
    fn queues_drain_flat_and_registry_exports_the_probe() {
        // Constant latency funnels a round's arrivals into one calendar
        // slot per queue — the worst case for slot ballooning. One huge
        // round, then quiet ones: the ballooned slots must hand their
        // capacity back at the next wheel revolution instead of pinning
        // the burst's high-water mark forever.
        let config = AsyncConfig::new(SimConfig::new(64).with_seed(3))
            .with_latency(LatencyModel::Constant(500));
        let mut facade = ShardedTransport::new(config, 4);
        for i in 0..64 {
            let from = NodeId::new(i);
            for _ in 0..200 {
                let to = facade.sample_other_than(from);
                facade.send(from, to, Phase::Other, 16);
            }
        }
        facade.advance_round();
        let peak = facade.queue_capacity_events();
        assert!(peak > 10_000, "the burst ballooned the slots, got {peak}");
        // Quiet rounds: one send each, across several wheel revolutions.
        for _ in 0..12 {
            let from = facade.sample_uniform();
            let to = facade.sample_other_than(from);
            facade.send(from, to, Phase::Other, 16);
            facade.advance_round();
        }
        assert!(
            facade.queue_capacity_events() < 1_000,
            "burst capacity decayed, got {}",
            facade.queue_capacity_events()
        );
        let mut registry = gossip_obs::Registry::new();
        facade.fill_registry(&mut registry);
        let text = registry.render();
        assert!(text.contains("engine_queue_capacity_events"));
        assert!(text.contains("engine_shards 4"));
    }
}
