//! [`Member<H>`]: the SWIM failure detector and membership disseminator,
//! layered *around* an application handler.
//!
//! The wrapper is itself a [`Handler`] whose message type is
//! [`MemberMsg<H::Msg>`], so it runs unchanged on every backend — the
//! event driver, the sharded driver, and the UDP host. The wrapped
//! protocol sees a plain [`Mailbox`] whose [`Mailbox::sample_peer`] draws
//! from the **discovered live view** instead of the static full range,
//! and whose sends carry piggybacked membership rumors; it cannot tell
//! the difference and never needs to.
//!
//! ## The probe loop
//!
//! Every `probe_interval_us` (staggered per node), a node:
//!
//! 1. judges last period's probes — any target that acked neither
//!    directly nor through a proxy becomes **Suspect** at its current
//!    incarnation, and the rumor starts spreading;
//! 2. sweeps suspicion deadlines — a Suspect that failed to refute for
//!    `suspect_periods` whole periods is declared **Dead**;
//! 3. pings `probe_fanout` fresh targets drawn from the live view, arming
//!    one RTT timer; if it fires before the acks arrive, the unacked
//!    targets are probed indirectly via `proxies` ping-req relays.
//!
//! A node that hears a rumor about *itself* (Suspect or Dead at its
//! current or later incarnation) refutes: it bumps its incarnation past
//! the claim and gossips a fresh self-Alive — the only way records move
//! backwards in badness, and exactly how a leaver that rejoined within a
//! probe window shakes off the stale suspicion against its previous
//! incarnation (the old rumor names the old incarnation; the sweep kills
//! only the incarnation it suspected).
//!
//! ## Dissemination and budget
//!
//! Rumors ride every outgoing message — control plane and application
//! alike — freshest-first from a bounded queue (see
//! [`MemberTable::next_piggyback`]), with the count capped so the encoded
//! datagram stays inside `budget_bytes`; nothing this layer adds can trip
//! a host's `send_oversize` guard as long as the wrapped payload itself
//! fits the budget.

use crate::state::{Liveness, MemberTable, Transition, Update, UPDATE_WIRE_BYTES};
use gossip_net::{sample_from_view, stagger_us, Handler, Mailbox, NodeId, Phase, TimerId};
use gossip_obs::{Histogram, Registry, TraceReason};
use rand::Rng;

/// The periodic protocol tick (probe round). Member timer labels live far
/// above the small ids application handlers use; the range
/// `0x4D45_4D00..=0x4D45_4DFF` is reserved for this crate.
pub const MEMBER_TIMER_TICK: TimerId = TimerId(0x4D45_4D00);
/// The direct-ping RTT deadline within a probe round.
pub const MEMBER_TIMER_RTT: TimerId = TimerId(0x4D45_4D01);

/// Salt for the per-node stagger of the first tick.
const TICK_SALT: u64 = 0x4D45_4D42_5253_5749; // "MEMBRSWI"

/// Wire-tag byte plus fields, excluding the trailing updates vec, per
/// control variant (kept in lockstep with `wire.rs`).
const PING_BASE_BYTES: usize = 1 + 8 + 4;
const ACK_BASE_BYTES: usize = 1 + 8 + 4;
const PING_REQ_BASE_BYTES: usize = 1 + 8 + 4;
const JOIN_BASE_BYTES: usize = 1;
const JOIN_ACK_BASE_BYTES: usize = 1;
const LEAVE_BASE_BYTES: usize = 1 + 8;
const APP_BASE_BYTES: usize = 1;
/// A `Vec<Update>` costs a u32 length prefix plus its entries.
const VEC_LEN_BYTES: usize = 4;

/// Tuning knobs for the detector and disseminator.
#[derive(Clone, Debug)]
pub struct MemberConfig {
    /// Length of one protocol period (µs).
    pub probe_interval_us: u64,
    /// Direct-ping deadline before the indirect (ping-req) leg fires.
    /// Must be shorter than the probe interval.
    pub rtt_timeout_us: u64,
    /// Whole probe periods a Suspect gets to refute before Dead.
    pub suspect_periods: u32,
    /// Proxies (`k`) asked to ping an unresponsive target indirectly.
    pub proxies: usize,
    /// Fresh targets pinged per period. 1 is classic SWIM; raising it
    /// tightens the detection-latency tail at proportional message cost.
    pub probe_fanout: usize,
    /// Hard cap on rumors per datagram (further capped by `budget_bytes`).
    pub piggyback_limit: usize,
    /// Retire a rumor after this many transmissions (0 = auto:
    /// `3·⌈log2(n+1)⌉`, the classic λ log n dissemination bound).
    pub retransmit_limit: u32,
    /// Cap on distinct queued rumors (0 = auto: `n`).
    pub max_queue: usize,
    /// Target encoded-datagram budget (bytes) piggybacking must respect.
    pub budget_bytes: usize,
    /// Contact points for joining. A node not listed here sends a Join to
    /// one seed at startup and learns the rest of the view from gossip.
    pub seeds: Vec<NodeId>,
    /// Start with the whole universe `0..n` known-Alive (the static
    /// topology every pre-membership experiment assumed) instead of
    /// discovering it. Churn transitions are still observed.
    pub static_bootstrap: bool,
}

impl Default for MemberConfig {
    fn default() -> Self {
        MemberConfig {
            probe_interval_us: 1_000_000,
            rtt_timeout_us: 200_000,
            suspect_periods: 2,
            proxies: 3,
            probe_fanout: 1,
            piggyback_limit: 8,
            retransmit_limit: 0,
            max_queue: 0,
            budget_bytes: 1200,
            seeds: Vec::new(),
            static_bootstrap: false,
        }
    }
}

impl MemberConfig {
    /// Classic static topology: everyone knows everyone from boot.
    pub fn static_full() -> Self {
        MemberConfig {
            static_bootstrap: true,
            ..MemberConfig::default()
        }
    }

    /// Join-via-seed bootstrap: only the seeds are known at boot.
    pub fn with_seeds(seeds: Vec<NodeId>) -> Self {
        MemberConfig {
            seeds,
            ..MemberConfig::default()
        }
    }

    /// Set the probe period (and scale the RTT deadline to a quarter of
    /// it, the usual ratio, unless set explicitly afterwards).
    pub fn with_probe_interval_us(mut self, interval_us: u64) -> Self {
        self.probe_interval_us = interval_us.max(4);
        self.rtt_timeout_us = (interval_us / 4).max(1);
        self
    }

    fn suspect_timeout_us(&self) -> u64 {
        self.probe_interval_us * u64::from(self.suspect_periods.max(1))
    }

    fn retransmit_limit_for(&self, n: usize) -> u32 {
        if self.retransmit_limit > 0 {
            return self.retransmit_limit;
        }
        3 * (usize::BITS - n.max(1).leading_zeros()).max(1)
    }

    fn max_queue_for(&self, n: usize) -> usize {
        if self.max_queue > 0 {
            self.max_queue
        } else {
            n.max(4)
        }
    }
}

/// The membership envelope: control plane plus application payloads, all
/// carrying piggybacked rumors.
#[derive(Clone, Debug, PartialEq)]
pub enum MemberMsg<M> {
    /// Direct liveness probe. `origin` is who ultimately wants the ack —
    /// the prober itself, or the requester a proxy is relaying for.
    Ping {
        /// Probe sequence number (echoed by the ack).
        seq: u64,
        /// The node the eventual ack must reach.
        origin: NodeId,
        /// Piggybacked rumors.
        updates: Vec<Update>,
    },
    /// Probe acknowledgement, relayed toward `origin`.
    Ack {
        /// Echoed probe sequence number.
        seq: u64,
        /// The node this ack is for.
        origin: NodeId,
        /// Piggybacked rumors.
        updates: Vec<Update>,
    },
    /// "Ping `target` for me": the indirect probe leg.
    PingReq {
        /// Probe sequence number the relayed ping will carry.
        seq: u64,
        /// The unresponsive node to probe.
        target: NodeId,
        /// Piggybacked rumors.
        updates: Vec<Update>,
    },
    /// A joiner announcing itself to a seed; `updates` carries its
    /// self-Alive claim.
    Join {
        /// Piggybacked rumors (at least the joiner's own record).
        updates: Vec<Update>,
    },
    /// A seed's reply: one chunk of its member-table snapshot.
    JoinAck {
        /// Snapshot records (chunked to the datagram budget).
        updates: Vec<Update>,
    },
    /// Graceful departure: the *sender* declares itself dead at
    /// `incarnation`. This is the only legitimate channel for a
    /// self-death — a piggybacked self-Dead rumor is treated as forged.
    Leave {
        /// The leaver's final incarnation.
        incarnation: u64,
        /// Piggybacked rumors.
        updates: Vec<Update>,
    },
    /// A wrapped application message.
    App {
        /// The inner protocol's payload.
        payload: M,
        /// Piggybacked rumors.
        updates: Vec<Update>,
    },
}

impl<M> MemberMsg<M> {
    /// The piggybacked rumors of any variant.
    pub fn updates(&self) -> &[Update] {
        match self {
            MemberMsg::Ping { updates, .. }
            | MemberMsg::Ack { updates, .. }
            | MemberMsg::PingReq { updates, .. }
            | MemberMsg::Join { updates }
            | MemberMsg::JoinAck { updates }
            | MemberMsg::Leave { updates, .. }
            | MemberMsg::App { updates, .. } => updates,
        }
    }
}

/// Protocol counters exported as the `member_*` registry family.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemberStats {
    /// Direct pings sent by the local prober.
    pub probes_sent: u64,
    /// Pings received (direct or relayed).
    pub pings_rx: u64,
    /// Acks that completed one of our probes.
    pub acks_rx: u64,
    /// Acks relayed onward as a proxy.
    pub acks_relayed: u64,
    /// Ping-req messages sent (indirect probe legs).
    pub ping_reqs_sent: u64,
    /// Ping-req messages received and relayed.
    pub ping_reqs_rx: u64,
    /// Suspicions started by the local detector.
    pub suspicions_local: u64,
    /// Suspicions learned from gossip.
    pub suspicions_learned: u64,
    /// Times this node refuted a rumor about itself.
    pub refutations: u64,
    /// Suspect records that turned out alive (refuted by the subject) —
    /// each one was a false suspicion.
    pub false_suspicions: u64,
    /// Deaths declared by the local suspicion sweep.
    pub deaths_declared: u64,
    /// Deaths learned from gossip (or a Leave).
    pub deaths_learned: u64,
    /// Nodes seen joining (or rejoining) the view.
    pub joins_seen: u64,
    /// Join messages sent while bootstrapping.
    pub joins_sent: u64,
    /// Join messages answered with a snapshot.
    pub joins_answered: u64,
    /// Graceful leaves received.
    pub leaves_rx: u64,
    /// Rumors attached to outgoing messages.
    pub updates_piggybacked: u64,
    /// Rumors applied with effect (any non-stale transition).
    pub updates_applied: u64,
    /// Rumors ignored as stale (superseded by current knowledge).
    pub stale_updates: u64,
    /// Rumors about ids outside the universe — forged or corrupt.
    pub forged_unknown_subject: u64,
    /// Piggybacked self-Dead claims — forged (Leave is the only
    /// legitimate self-death channel).
    pub forged_self_dead: u64,
}

impl MemberStats {
    /// Add every counter into `registry` under the `member_*` family.
    pub fn fill_registry(&self, registry: &mut Registry) {
        let rows: [(&str, &str, u64); 21] = [
            (
                "member_probes_sent_total",
                "Direct pings sent",
                self.probes_sent,
            ),
            ("member_pings_rx_total", "Pings received", self.pings_rx),
            ("member_acks_rx_total", "Probe acks received", self.acks_rx),
            (
                "member_acks_relayed_total",
                "Acks relayed as proxy",
                self.acks_relayed,
            ),
            (
                "member_ping_reqs_sent_total",
                "Indirect probe requests sent",
                self.ping_reqs_sent,
            ),
            (
                "member_ping_reqs_rx_total",
                "Indirect probe requests relayed",
                self.ping_reqs_rx,
            ),
            (
                "member_suspicions_local_total",
                "Suspicions started locally",
                self.suspicions_local,
            ),
            (
                "member_suspicions_learned_total",
                "Suspicions learned from gossip",
                self.suspicions_learned,
            ),
            (
                "member_refutations_total",
                "Self-rumors refuted",
                self.refutations,
            ),
            (
                "member_false_suspicions_total",
                "Suspicions refuted by the subject",
                self.false_suspicions,
            ),
            (
                "member_deaths_declared_total",
                "Deaths declared by the local sweep",
                self.deaths_declared,
            ),
            (
                "member_deaths_learned_total",
                "Deaths learned from gossip",
                self.deaths_learned,
            ),
            (
                "member_joins_seen_total",
                "Joins observed in the view",
                self.joins_seen,
            ),
            (
                "member_joins_sent_total",
                "Join messages sent",
                self.joins_sent,
            ),
            (
                "member_joins_answered_total",
                "Join messages answered",
                self.joins_answered,
            ),
            (
                "member_leaves_rx_total",
                "Graceful leaves received",
                self.leaves_rx,
            ),
            (
                "member_updates_piggybacked_total",
                "Rumors attached to sends",
                self.updates_piggybacked,
            ),
            (
                "member_updates_applied_total",
                "Rumors applied with effect",
                self.updates_applied,
            ),
            (
                "member_stale_updates_total",
                "Rumors ignored as stale",
                self.stale_updates,
            ),
            (
                "member_forged_unknown_subject_total",
                "Rumors about ids outside the universe",
                self.forged_unknown_subject,
            ),
            (
                "member_forged_self_dead_total",
                "Forged self-dead rumors rejected",
                self.forged_self_dead,
            ),
        ];
        for (name, help, v) in rows {
            registry.add_counter(name, help, &[], v);
        }
    }
}

/// One outstanding direct probe of the current period.
#[derive(Clone, Copy, Debug)]
struct Probe {
    target: NodeId,
    seq: u64,
    sent_at_us: u64,
}

/// Everything of the membership layer except the wrapped handler, split
/// out so the inner handler and this state can be borrowed side by side.
struct Core {
    cfg: MemberConfig,
    me: NodeId,
    n: usize,
    table: MemberTable,
    stats: MemberStats,
    rtt_us: Histogram,
    seq: u64,
    pending: Vec<Probe>,
    indirect_fired: bool,
    joined: bool,
    started: bool,
}

impl Core {
    /// Rumors that fit a datagram whose non-rumor part is `base_bytes`.
    fn piggyback_for(&mut self, base_bytes: usize) -> Vec<Update> {
        let room = self
            .cfg
            .budget_bytes
            .saturating_sub(base_bytes + VEC_LEN_BYTES)
            / UPDATE_WIRE_BYTES;
        let take = room.min(self.cfg.piggyback_limit);
        let ups = self.table.next_piggyback(take);
        self.stats.updates_piggybacked += ups.len() as u64;
        ups
    }

    /// Send a control message built by `make` from a budget-fitted rumor
    /// batch, charging exact wire bits to [`Phase::Membership`].
    fn send_control<M>(
        &mut self,
        mailbox: &mut dyn Mailbox<MemberMsg<M>>,
        to: NodeId,
        base_bytes: usize,
        make: impl FnOnce(Vec<Update>) -> MemberMsg<M>,
    ) {
        let updates = self.piggyback_for(base_bytes);
        let bytes = base_bytes + VEC_LEN_BYTES + UPDATE_WIRE_BYTES * updates.len();
        mailbox.send(to, Phase::Membership, (bytes * 8) as u32, make(updates));
    }

    /// Apply one batch of piggybacked rumors from `from`, routing
    /// transitions into counters and passive trace notes.
    fn apply_updates<M>(
        &mut self,
        from: NodeId,
        updates: &[Update],
        mailbox: &mut dyn Mailbox<MemberMsg<M>>,
    ) {
        let now = mailbox.now_us();
        for u in updates {
            if u.node.index() >= self.n {
                self.stats.forged_unknown_subject += 1;
                continue;
            }
            if u.node == self.me {
                // A rumor about me: refute anything at my incarnation or
                // later that is not plain Alive.
                if u.state != Liveness::Alive && u.incarnation >= self.table.my_incarnation() {
                    self.table.refute(u.incarnation);
                    self.stats.refutations += 1;
                    mailbox.note(None, TraceReason::Refuted);
                }
                continue;
            }
            if u.state == Liveness::Dead && u.node == from {
                self.stats.forged_self_dead += 1;
                continue;
            }
            self.apply_one(*u, now, mailbox);
        }
    }

    fn apply_one<M>(&mut self, update: Update, now: u64, mailbox: &mut dyn Mailbox<MemberMsg<M>>) {
        match self.table.apply(update, now) {
            Transition::Joined => {
                self.stats.joins_seen += 1;
                self.stats.updates_applied += 1;
                mailbox.note(Some(update.node), TraceReason::Joined);
            }
            Transition::Suspected => {
                self.stats.suspicions_learned += 1;
                self.stats.updates_applied += 1;
                mailbox.note(Some(update.node), TraceReason::Suspected);
            }
            Transition::Refuted => {
                self.stats.false_suspicions += 1;
                self.stats.updates_applied += 1;
                mailbox.note(Some(update.node), TraceReason::Refuted);
            }
            Transition::Died => {
                self.stats.deaths_learned += 1;
                self.stats.updates_applied += 1;
                mailbox.note(Some(update.node), TraceReason::DeclaredDead);
            }
            Transition::Freshened => self.stats.updates_applied += 1,
            Transition::Stale => self.stats.stale_updates += 1,
        }
    }

    /// Draw up to `count` distinct live targets, excluding `me` and
    /// `avoid`. Deterministic given the RNG stream and the view.
    fn draw_targets<M>(
        &self,
        rng_mailbox: &mut dyn Mailbox<MemberMsg<M>>,
        count: usize,
        avoid: Option<NodeId>,
    ) -> Vec<NodeId> {
        let view = self.table.live_view();
        let candidates = view.iter().filter(|&&p| Some(p) != avoid).count();
        let want = count.min(candidates);
        let mut out: Vec<NodeId> = Vec::with_capacity(want);
        let mut attempts = 0;
        while out.len() < want && attempts < 64 * want.max(1) {
            attempts += 1;
            let p = sample_from_view(rng_mailbox.rng_mut(), self.me, view);
            if p != self.me && Some(p) != avoid && !out.contains(&p) {
                out.push(p);
            }
        }
        if out.len() < want {
            // Rejection sampling starved (tiny view): fall back to a scan.
            for &p in view {
                if out.len() >= want {
                    break;
                }
                if p != self.me && Some(p) != avoid && !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Send one Join to a uniformly drawn seed (no-op without seeds).
    fn send_join<M>(&mut self, mailbox: &mut dyn Mailbox<MemberMsg<M>>) {
        let seeds: Vec<NodeId> = self
            .cfg
            .seeds
            .iter()
            .copied()
            .filter(|&s| s != self.me && s.index() < self.n)
            .collect();
        if seeds.is_empty() {
            self.joined = true;
            return;
        }
        let seed = seeds[mailbox.rng_mut().gen_range(0..seeds.len())];
        let me = self.me;
        let inc = self.table.my_incarnation();
        let self_claim = Update {
            node: me,
            incarnation: inc,
            state: Liveness::Alive,
        };
        let updates = vec![self_claim];
        let bytes = JOIN_BASE_BYTES + VEC_LEN_BYTES + UPDATE_WIRE_BYTES * updates.len();
        mailbox.send(
            seed,
            Phase::Membership,
            (bytes * 8) as u32,
            MemberMsg::Join { updates },
        );
        self.stats.joins_sent += 1;
    }
}

/// The membership wrapper: SWIM detector + disseminator around `H`.
/// See the module docs for the protocol; see [`MemberConfig`] for tuning.
pub struct Member<H: Handler> {
    inner: H,
    core: Core,
}

impl<H: Handler> Member<H> {
    /// Wrap `inner` with membership per `cfg`. The id universe and own id
    /// are learned from the mailbox at [`Handler::on_start`].
    pub fn new(cfg: MemberConfig, inner: H) -> Self {
        Member {
            inner,
            core: Core {
                cfg,
                me: NodeId::new(0),
                n: 1,
                table: MemberTable::new(NodeId::new(0), 1, 1, 1),
                stats: MemberStats::default(),
                rtt_us: Histogram::new(),
                seq: 0,
                pending: Vec::new(),
                indirect_fired: false,
                joined: false,
                started: false,
            },
        }
    }

    /// The wrapped application handler.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// The wrapped application handler, mutably.
    pub fn inner_mut(&mut self) -> &mut H {
        &mut self.inner
    }

    /// Protocol counters.
    pub fn stats(&self) -> &MemberStats {
        &self.core.stats
    }

    /// This node's current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.core.table.my_incarnation()
    }

    /// Has this node completed (or never needed) the join handshake?
    pub fn is_joined(&self) -> bool {
        self.core.joined
    }

    /// The live view: known Alive/Suspect ids excluding this node, sorted.
    pub fn live_view(&self) -> &[NodeId] {
        self.core.table.live_view()
    }

    /// `(alive, suspect, dead, unknown)` counts over the universe.
    pub fn view_counts(&self) -> (usize, usize, usize, usize) {
        self.core.table.counts()
    }

    /// The believed state of `node`, if it is known at all.
    pub fn state_of(&self, node: NodeId) -> Option<Liveness> {
        self.core
            .table
            .record(node)
            .filter(|r| r.known)
            .map(|r| r.state)
    }

    /// Gracefully announce departure: declare self dead at a final,
    /// freshly bumped incarnation to up to three live peers. Call just
    /// before shutting the node down (`--leave`).
    pub fn initiate_leave(&mut self, mailbox: &mut dyn Mailbox<MemberMsg<H::Msg>>) {
        let inc = self.core.table.my_incarnation() + 1;
        let goodbyes = self.core.draw_targets(mailbox, 3, None);
        for peer in goodbyes {
            self.core
                .send_control(mailbox, peer, LEAVE_BASE_BYTES, |updates| {
                    MemberMsg::Leave {
                        incarnation: inc,
                        updates,
                    }
                });
        }
    }

    fn on_tick(&mut self, mailbox: &mut dyn Mailbox<MemberMsg<H::Msg>>) {
        let now = mailbox.now_us();
        // 1. Judge last period's probes: no ack at all means Suspect.
        for probe in self.core.pending.drain(..) {
            if self.core.table.start_suspect(probe.target, now) {
                self.core.stats.suspicions_local += 1;
                mailbox.note(Some(probe.target), TraceReason::Suspected);
            }
        }
        mailbox.cancel_timer(MEMBER_TIMER_RTT);
        self.core.indirect_fired = false;
        // 2. Sweep suspicion deadlines.
        for node in self
            .core
            .table
            .sweep_suspects(now, self.core.cfg.suspect_timeout_us())
        {
            self.core.stats.deaths_declared += 1;
            mailbox.note(Some(node), TraceReason::DeclaredDead);
        }
        // 3. Probe fresh targets (or keep trying to join an empty view).
        if self.core.table.live_view().is_empty() {
            if !self.core.joined {
                self.core.send_join(mailbox);
            }
        } else {
            let fanout = self.core.cfg.probe_fanout.max(1);
            let targets = self.core.draw_targets(mailbox, fanout, None);
            if !targets.is_empty() {
                for target in targets {
                    self.core.seq += 1;
                    let seq = self.core.seq;
                    let me = self.core.me;
                    self.core
                        .send_control(mailbox, target, PING_BASE_BYTES, |updates| {
                            MemberMsg::Ping {
                                seq,
                                origin: me,
                                updates,
                            }
                        });
                    self.core.stats.probes_sent += 1;
                    self.core.pending.push(Probe {
                        target,
                        seq,
                        sent_at_us: now,
                    });
                }
                mailbox.set_timer(self.core.cfg.rtt_timeout_us, MEMBER_TIMER_RTT);
            }
        }
        mailbox.set_timer(self.core.cfg.probe_interval_us, MEMBER_TIMER_TICK);
    }

    fn on_rtt_deadline(&mut self, mailbox: &mut dyn Mailbox<MemberMsg<H::Msg>>) {
        if self.core.indirect_fired || self.core.pending.is_empty() {
            return;
        }
        self.core.indirect_fired = true;
        // Ask k proxies to probe every still-unacked target.
        // (By index: sending borrows the whole core, and touches no probe.)
        for i in 0..self.core.pending.len() {
            let probe = self.core.pending[i];
            let proxies =
                self.core
                    .draw_targets(mailbox, self.core.cfg.proxies, Some(probe.target));
            for proxy in proxies {
                let (seq, target) = (probe.seq, probe.target);
                self.core
                    .send_control(mailbox, proxy, PING_REQ_BASE_BYTES, |updates| {
                        MemberMsg::PingReq {
                            seq,
                            target,
                            updates,
                        }
                    });
                self.core.stats.ping_reqs_sent += 1;
            }
        }
    }
}

impl<H: Handler> Handler for Member<H> {
    type Msg = MemberMsg<H::Msg>;

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<Self::Msg>) {
        let me = mailbox.me();
        let n = mailbox.n();
        let retransmit_limit = self.core.cfg.retransmit_limit_for(n);
        let max_queue = self.core.cfg.max_queue_for(n);
        self.core.me = me;
        self.core.n = n;
        self.core.table = MemberTable::new(me, n, retransmit_limit, max_queue);
        self.core.stats = MemberStats::default();
        self.core.rtt_us = Histogram::new();
        self.core.seq = 0;
        self.core.pending.clear();
        self.core.indirect_fired = false;
        self.core.started = true;
        if self.core.cfg.static_bootstrap {
            for i in 0..n {
                self.core.table.bootstrap(NodeId::new(i));
            }
            self.core.joined = true;
        } else {
            let seeds = self.core.cfg.seeds.clone();
            for s in &seeds {
                self.core.table.bootstrap(*s);
            }
            // Seeds themselves (and seedless singletons) have nobody to
            // ask; everyone else announces itself to one seed.
            self.core.joined = seeds.is_empty() || seeds.contains(&me);
            if !self.core.joined {
                self.core.send_join(mailbox);
            }
        }
        mailbox.set_timer(
            stagger_us(me, self.core.cfg.probe_interval_us, TICK_SALT),
            MEMBER_TIMER_TICK,
        );
        let mut inner_mailbox = MemberMailbox {
            outer: mailbox,
            core: &mut self.core,
        };
        self.inner.on_start(&mut inner_mailbox);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, mailbox: &mut dyn Mailbox<Self::Msg>) {
        // Rumors ride every variant; fold them in before the payload.
        self.core.apply_updates(from, msg.updates(), mailbox);
        match msg {
            MemberMsg::Ping { seq, origin, .. } => {
                self.core.stats.pings_rx += 1;
                self.core
                    .send_control(mailbox, from, ACK_BASE_BYTES, |updates| MemberMsg::Ack {
                        seq,
                        origin,
                        updates,
                    });
            }
            MemberMsg::Ack { seq, origin, .. } => {
                if origin == self.core.me {
                    let now = mailbox.now_us();
                    if let Some(pos) = self.core.pending.iter().position(|p| p.seq == seq) {
                        let probe = self.core.pending.remove(pos);
                        self.core
                            .rtt_us
                            .record(now.saturating_sub(probe.sent_at_us));
                        self.core.stats.acks_rx += 1;
                    }
                } else if origin.index() < self.core.n {
                    self.core
                        .send_control(mailbox, origin, ACK_BASE_BYTES, |updates| MemberMsg::Ack {
                            seq,
                            origin,
                            updates,
                        });
                    self.core.stats.acks_relayed += 1;
                }
            }
            MemberMsg::PingReq { seq, target, .. } => {
                self.core.stats.ping_reqs_rx += 1;
                if target.index() < self.core.n && target != self.core.me {
                    self.core
                        .send_control(mailbox, target, PING_BASE_BYTES, |updates| {
                            MemberMsg::Ping {
                                seq,
                                origin: from,
                                updates,
                            }
                        });
                }
            }
            MemberMsg::Join { .. } => {
                // The joiner's self-claim arrived via updates above. Reply
                // with the full table, chunked to the datagram budget.
                self.core.stats.joins_answered += 1;
                let snapshot = self.core.table.snapshot(from);
                let per_chunk = self
                    .core
                    .cfg
                    .budget_bytes
                    .saturating_sub(JOIN_ACK_BASE_BYTES + VEC_LEN_BYTES)
                    / UPDATE_WIRE_BYTES;
                for chunk in snapshot.chunks(per_chunk.max(1)) {
                    let updates = chunk.to_vec();
                    let bytes =
                        JOIN_ACK_BASE_BYTES + VEC_LEN_BYTES + UPDATE_WIRE_BYTES * updates.len();
                    mailbox.send(
                        from,
                        Phase::Membership,
                        (bytes * 8) as u32,
                        MemberMsg::JoinAck { updates },
                    );
                }
            }
            MemberMsg::JoinAck { .. } => {
                self.core.joined = true;
            }
            MemberMsg::Leave { incarnation, .. } => {
                self.core.stats.leaves_rx += 1;
                if from != self.core.me && from.index() < self.core.n {
                    let now = mailbox.now_us();
                    let update = Update {
                        node: from,
                        incarnation,
                        state: Liveness::Dead,
                    };
                    self.core.apply_one(update, now, mailbox);
                }
            }
            MemberMsg::App { payload, .. } => {
                let mut inner_mailbox = MemberMailbox {
                    outer: mailbox,
                    core: &mut self.core,
                };
                self.inner.on_message(from, payload, &mut inner_mailbox);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<Self::Msg>) {
        match timer {
            MEMBER_TIMER_TICK => self.on_tick(mailbox),
            MEMBER_TIMER_RTT => self.on_rtt_deadline(mailbox),
            inner_timer => {
                let mut inner_mailbox = MemberMailbox {
                    outer: mailbox,
                    core: &mut self.core,
                };
                self.inner.on_timer(inner_timer, &mut inner_mailbox);
            }
        }
    }

    fn fill_registry(&self, registry: &mut Registry) {
        self.core.stats.fill_registry(registry);
        let (alive, suspect, dead, unknown) = self.core.table.counts();
        registry.add_gauge("member_alive", "Peers believed alive", &[], alive as f64);
        registry.add_gauge(
            "member_suspect",
            "Peers under suspicion",
            &[],
            suspect as f64,
        );
        registry.add_gauge("member_dead", "Peers believed dead", &[], dead as f64);
        registry.add_gauge("member_unknown", "Ids never heard of", &[], unknown as f64);
        registry.merge_histogram(
            "member_probe_rtt_us",
            "Round-trip time of acked probes (µs)",
            &[],
            &self.core.rtt_us,
        );
        self.inner.fill_registry(registry);
    }

    fn status_lines(&self, now_us: u64) -> Vec<(String, String)> {
        let (alive, suspect, dead, unknown) = self.core.table.counts();
        let mut lines = vec![
            (
                "member.incarnation".to_string(),
                self.core.table.my_incarnation().to_string(),
            ),
            (
                "member.counts".to_string(),
                format!("alive={alive} suspect={suspect} dead={dead} unknown={unknown}"),
            ),
        ];
        if self.core.n <= 64 {
            let mut view = String::new();
            for i in 0..self.core.n {
                let node = NodeId::new(i);
                let label = if node == self.core.me {
                    "self"
                } else {
                    match self.core.table.record(node) {
                        Some(r) if r.known => r.state.as_str(),
                        _ => "unknown",
                    }
                };
                if !view.is_empty() {
                    view.push(' ');
                }
                view.push_str(&format!("{i}:{label}"));
            }
            lines.push(("member.view".to_string(), view));
        }
        lines.extend(self.inner.status_lines(now_us));
        lines
    }
}

/// The mailbox the wrapped handler sees: sends are enveloped in
/// [`MemberMsg::App`] with piggybacked rumors, and peer sampling draws
/// from the live membership view. Everything else passes through.
struct MemberMailbox<'a, M> {
    outer: &'a mut dyn Mailbox<MemberMsg<M>>,
    core: &'a mut Core,
}

impl<M> Mailbox<M> for MemberMailbox<'_, M> {
    fn me(&self) -> NodeId {
        self.outer.me()
    }

    fn n(&self) -> usize {
        self.outer.n()
    }

    fn now_us(&self) -> u64 {
        self.outer.now_us()
    }

    fn send(&mut self, to: NodeId, phase: Phase, bits: u32, msg: M) {
        let payload_bytes = (bits as usize).div_ceil(8);
        let updates = self.core.piggyback_for(APP_BASE_BYTES + payload_bytes);
        let overhead_bytes = APP_BASE_BYTES + VEC_LEN_BYTES + UPDATE_WIRE_BYTES * updates.len();
        self.outer.send(
            to,
            phase,
            bits + (overhead_bytes * 8) as u32,
            MemberMsg::App {
                payload: msg,
                updates,
            },
        );
    }

    fn set_timer(&mut self, delay_us: u64, timer: TimerId) {
        self.outer.set_timer(delay_us, timer);
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.outer.cancel_timer(timer);
    }

    fn rng_mut(&mut self) -> &mut rand::rngs::SmallRng {
        self.outer.rng_mut()
    }

    fn sample_peer(&mut self) -> NodeId {
        // The seam cashes out: the wrapped protocol samples the *live*
        // view. An empty view degenerates to self, a loopback no-op.
        let me = self.outer.me();
        sample_from_view(self.outer.rng_mut(), me, self.core.table.live_view())
    }

    fn note(&mut self, peer: Option<NodeId>, reason: TraceReason) {
        self.outer.note(peer, reason);
    }

    fn trace_ctx(&self) -> gossip_obs::TraceCtx {
        // Detector pings/acks must stay on the causal chain of the event
        // that triggered them, not restart at TraceCtx::NONE.
        self.outer.trace_ctx()
    }
}
