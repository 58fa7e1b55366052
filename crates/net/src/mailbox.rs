//! The event-driven protocol API: [`Handler`] callbacks over a [`Mailbox`].
//!
//! The round-barrier [`Transport`](crate::Transport) fits one-shot
//! aggregation, where a coordinator drives every node through the same
//! phase sequence. Continuous protocols — anti-entropy, interval-driven
//! broadcast, failure detectors — have no global phases: each node reacts
//! to *its own* timers and to messages as they arrive. `Handler` is that
//! contract:
//!
//! * [`Handler::on_start`] — the node (re)joins the system and seeds its
//!   state and timers. Called once at startup and again after every rejoin
//!   (with **fresh** handler state: a rejoiner remembers nothing, which is
//!   exactly the gap anti-entropy closes).
//! * [`Handler::on_message`] — a message addressed to this node arrived.
//! * [`Handler::on_timer`] — a timer this node set has fired.
//!
//! A handler never touches the network directly; everything it can do is on
//! the [`Mailbox`] passed into each callback — send a message, arm a timer,
//! sample a peer, read the clock. The host (the event-driven driver of
//! `gossip-runtime`) implements `Mailbox` and guarantees deterministic
//! callback ordering: events dispatch in (virtual time, schedule order),
//! so a run is a pure function of the seed, exactly like the round-based
//! backends.
//!
//! Messages are plain Rust values ([`Handler::Msg`]); the `bits` argument
//! of [`Mailbox::send`] keeps the model's message-size accounting honest
//! (the host records it in [`Metrics`](crate::Metrics) like every other
//! transmission).

use crate::node::NodeId;
use crate::phase::Phase;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Names one of a handler's timers. Purely a label the handler chooses —
/// the host routes the fired timer back via [`Handler::on_timer`] without
/// interpreting it.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TimerId(pub u32);

impl std::fmt::Display for TimerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// What a [`Handler`] callback may do: the endpoint-local view of a
/// transport. `M` is the protocol's message type.
pub trait Mailbox<M> {
    /// This node's own id.
    fn me(&self) -> NodeId;

    /// Number of nodes in the network (including crashed ones).
    fn n(&self) -> usize;

    /// Current virtual time (µs).
    fn now_us(&self) -> u64;

    /// Send `msg` to `to`. Fire-and-forget: delivery is asynchronous and
    /// may fail (loss, churn, bandwidth, deadline) — the sender learns
    /// nothing either way, exactly like a datagram. `bits` is the modelled
    /// wire size, recorded in the metrics.
    fn send(&mut self, to: NodeId, phase: Phase, bits: u32, msg: M);

    /// Arm a timer to fire at `now + delay_us` (at least 1 µs from now).
    /// Timers are one-shot; re-arm from [`Handler::on_timer`] for periodic
    /// behaviour. Timers do not survive a crash: after a rejoin, timers set
    /// by the previous incarnation never fire. Handlers that want their
    /// nodes de-phased offset the first arm with [`stagger_us`].
    fn set_timer(&mut self, delay_us: u64, timer: TimerId);

    /// Cancel every pending timer with this label that *this node* armed
    /// before now. A timer armed after the cancellation (same label
    /// included) fires normally — cancel-then-re-arm is the backoff idiom
    /// this exists for. Cancelling a label with no pending timer is a
    /// no-op. Cancellation is deterministic: hosts count suppressed firings
    /// but never reorder the surviving events.
    fn cancel_timer(&mut self, timer: TimerId);

    /// The simulation RNG. All protocol randomness must come from here so
    /// runs are reproducible from the seed.
    fn rng_mut(&mut self) -> &mut SmallRng;

    /// Sample a uniformly random peer different from `me` (returns `me`
    /// only in a singleton network). The sampled node may be crashed —
    /// sending to it is then wasted, which is part of the model.
    ///
    /// The default draws from the full range `0..n`; mailboxes layered
    /// over a membership view override this to draw from the discovered
    /// topology instead, through [`sample_from_view`].
    fn sample_peer(&mut self) -> NodeId {
        let (me, n) = (self.me(), self.n());
        sample_excluding(self.rng_mut(), me, n, NodeId::new)
    }

    /// Record a protocol-level observability event (a state transition such
    /// as *suspected* or *declared-dead*) against this node, with `peer` as
    /// the subject when there is one.
    ///
    /// Strictly **passive**: hosts route it into their trace ring (kind
    /// [`TraceKind::State`](gossip_obs::TraceKind)) without drawing RNG,
    /// scheduling events, or otherwise feeding back into the run — noting
    /// never changes an `order_hash`. The default discards the event, so
    /// plain test mailboxes keep compiling.
    fn note(&mut self, peer: Option<NodeId>, reason: gossip_obs::TraceReason) {
        let _ = (peer, reason);
    }

    /// The causal context of the event this mailbox is dispatching — the
    /// chain id and hop of the message, timer fire, or start callback the
    /// handler is currently handling. Hosts with tracing enabled override
    /// this; messages sent through [`Mailbox::send`] inherit the context
    /// at `hop + 1`, so an operator can follow one stimulus across nodes.
    ///
    /// Strictly **passive**: contexts are derived from values already at
    /// hand (never an RNG draw) and ride alongside events without touching
    /// scheduling, so traced and untraced runs are bit-identical. The
    /// default is [`gossip_obs::TraceCtx::NONE`] — plain test mailboxes keep compiling
    /// and handlers needing no causality never see a difference.
    fn trace_ctx(&self) -> gossip_obs::TraceCtx {
        gossip_obs::TraceCtx::NONE
    }
}

/// Sample a uniform peer from `view`, excluding `me`; returns `me` only
/// when the view offers no other candidate. Entries must be distinct and
/// may include `me`. The routine a membership layer's `sample_peer`
/// override calls with its live view; it draws exactly as the default
/// [`Mailbox::sample_peer`] does over `0..n`.
pub fn sample_from_view(rng: &mut SmallRng, me: NodeId, view: &[NodeId]) -> NodeId {
    sample_excluding(rng, me, view.len(), |i| view[i])
}

/// The one sampling rule over `len` candidates `get(0..len)`: none
/// returns `me`; one is returned without a draw (`me` if it is `me`);
/// otherwise up to 64 `gen_range(0..len)` draws reject `me`, and a scan
/// turns a contract violation (every entry `me`) into an answer instead
/// of a hang.
fn sample_excluding(
    rng: &mut SmallRng,
    me: NodeId,
    len: usize,
    get: impl Fn(usize) -> NodeId,
) -> NodeId {
    if len == 0 {
        return me;
    }
    if len == 1 {
        return get(0);
    }
    for _ in 0..64 {
        let candidate = get(rng.gen_range(0..len));
        if candidate != me {
            return candidate;
        }
    }
    (0..len).map(get).find(|&p| p != me).unwrap_or(me)
}

/// Deterministic per-node timer stagger in `[1, interval_us]`.
///
/// Interval protocols that start every node's timer at the same offset
/// tick in lockstep — a thundering herd each interval. This spreads first
/// firings across the interval with the shared [`mix64`](crate::mix64)
/// mixer: stable per `(node, salt)`, RNG-free, and distinct per salt so a
/// handler with several timers (tick vs update) can de-phase them
/// independently.
pub fn stagger_us(node: NodeId, interval_us: u64, salt: u64) -> u64 {
    let z = crate::bits::mix64(
        (node.index() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt),
    );
    1 + z % interval_us.max(1)
}

/// An event-driven protocol: per-node state plus reactions to the three
/// event kinds. See the module docs for the lifecycle.
pub trait Handler {
    /// The protocol's message type.
    type Msg;

    /// The node starts (first boot or rejoin after a crash). State is fresh;
    /// seed it and arm the first timers.
    fn on_start(&mut self, mailbox: &mut dyn Mailbox<Self::Msg>);

    /// A message from `from` arrived at this node.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, mailbox: &mut dyn Mailbox<Self::Msg>);

    /// A timer armed by this incarnation of the node fired.
    fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<Self::Msg>);

    /// Route this handler's protocol-level counters and gauges into an
    /// observability registry (see `gossip-obs`). Called at scrape time by
    /// hosts that serve `/metrics`; **must be a pure read** of handler
    /// state (the passivity contract — no RNG, no sends, no timers).
    ///
    /// Use `add_*` registry calls so several nodes running the same
    /// handler aggregate naturally into one page. The default exports
    /// nothing — existing handlers keep compiling and simply stay opaque.
    fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        let _ = registry;
    }

    /// Human-readable `(key, value)` lines for a host's `/status` page.
    /// `now_us` is the host's current clock, so freshness-windowed values
    /// (e.g. a convergence estimate) can be computed without the handler
    /// holding a clock of its own. Same purity rules as
    /// [`Handler::fill_registry`]; the default reports nothing.
    fn status_lines(&self, now_us: u64) -> Vec<(String, String)> {
        let _ = now_us;
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::VecDeque;

    /// A minimal single-process mailbox: instant loop-back delivery, timers
    /// collected for inspection. Exercises the trait surface (including the
    /// provided `sample_peer`) without the full discrete-event driver.
    struct LoopbackMailbox {
        me: NodeId,
        n: usize,
        now: u64,
        rng: SmallRng,
        outbox: VecDeque<(NodeId, u32)>,
        timers: Vec<(u64, TimerId)>,
    }

    impl Mailbox<u32> for LoopbackMailbox {
        fn me(&self) -> NodeId {
            self.me
        }
        fn n(&self) -> usize {
            self.n
        }
        fn now_us(&self) -> u64 {
            self.now
        }
        fn send(&mut self, to: NodeId, _phase: Phase, _bits: u32, msg: u32) {
            self.outbox.push_back((to, msg));
        }
        fn set_timer(&mut self, delay_us: u64, timer: TimerId) {
            self.timers.push((self.now + delay_us.max(1), timer));
        }
        fn cancel_timer(&mut self, timer: TimerId) {
            self.timers.retain(|&(_, t)| t != timer);
        }
        fn rng_mut(&mut self) -> &mut SmallRng {
            &mut self.rng
        }
    }

    struct CountingHandler {
        received: Vec<u32>,
        fires: u32,
    }

    impl Handler for CountingHandler {
        type Msg = u32;
        fn on_start(&mut self, mailbox: &mut dyn Mailbox<u32>) {
            mailbox.set_timer(10, TimerId(0));
        }
        fn on_message(&mut self, _from: NodeId, msg: u32, mailbox: &mut dyn Mailbox<u32>) {
            self.received.push(msg);
            let peer = mailbox.sample_peer();
            mailbox.send(peer, Phase::Other, 8, msg + 1);
        }
        fn on_timer(&mut self, _timer: TimerId, mailbox: &mut dyn Mailbox<u32>) {
            self.fires += 1;
            mailbox.set_timer(10, TimerId(0));
        }
    }

    fn mailbox(n: usize) -> LoopbackMailbox {
        LoopbackMailbox {
            me: NodeId::new(0),
            n,
            now: 0,
            rng: SmallRng::seed_from_u64(7),
            outbox: VecDeque::new(),
            timers: Vec::new(),
        }
    }

    #[test]
    fn handler_lifecycle_round_trips_through_the_mailbox() {
        let mut mb = mailbox(8);
        let mut h = CountingHandler {
            received: Vec::new(),
            fires: 0,
        };
        h.on_start(&mut mb);
        assert_eq!(mb.timers, vec![(10, TimerId(0))]);
        h.on_timer(TimerId(0), &mut mb);
        assert_eq!(h.fires, 1);
        h.on_message(NodeId::new(3), 41, &mut mb);
        assert_eq!(h.received, vec![41]);
        let (to, msg) = mb.outbox.pop_front().expect("reply sent");
        assert_eq!(msg, 42);
        assert_ne!(to, mb.me(), "sample_peer never picks the node itself");
    }

    #[test]
    fn sample_peer_excludes_me_and_covers_the_network() {
        let mut mb = mailbox(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let p = mb.sample_peer();
            assert_ne!(p, mb.me());
            seen.insert(p.index());
        }
        assert_eq!(seen.len(), 4, "all non-self peers reachable");
    }

    #[test]
    fn singleton_network_samples_self() {
        let mut mb = mailbox(1);
        assert_eq!(mb.sample_peer(), NodeId::new(0));
    }

    #[test]
    fn sample_peer_draws_are_pinned() {
        // Node 0's stream at seed 7, as literal lists: any change to how
        // the default sample_peer consumes the RNG (draw range, rejection
        // rule, the n = 1 shortcut) shows here.
        let draws = |mb: &mut LoopbackMailbox, k: usize| {
            (0..k).map(|_| mb.sample_peer().index()).collect::<Vec<_>>()
        };
        let next = |mb: &mut LoopbackMailbox| rand::RngCore::next_u64(mb.rng_mut());
        let nine = [
            5, 8, 2, 3, 4, 3, 3, 1, 2, 4, 3, 1, 3, 3, 3, 6, 7, 7, 7, 6, 6, 6, 4, 7, 8, 4, 2, 6, 7,
            6, 7, 4,
        ];
        assert_eq!(draws(&mut mailbox(9), 32), nine);
        // A membership layer's view of the whole range draws the same.
        let full: Vec<NodeId> = (0..9).map(NodeId::new).collect();
        let mut rng = SmallRng::seed_from_u64(7);
        let via_view: Vec<usize> = (0..32)
            .map(|_| sample_from_view(&mut rng, NodeId::new(0), &full).index())
            .collect();
        assert_eq!(via_view, nine);
        // n = 1 returns self and makes no draw: the stream is untouched.
        let mut one = mailbox(1);
        assert_eq!(draws(&mut one, 4), [0, 0, 0, 0]);
        assert_eq!(next(&mut one), next(&mut mailbox(1)));
        // n = 2 always lands on the other node, after as many rejected
        // draws of self as the stream dictates; the stream's next word
        // pins how many that was.
        let mut two = mailbox(2);
        assert_eq!(draws(&mut two, 8), [1, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(next(&mut two), 0x18E7_1892_7F54_E75B);
    }

    #[test]
    fn cancel_timer_only_drops_the_named_label() {
        let mut mb = mailbox(4);
        mb.set_timer(10, TimerId(0));
        mb.set_timer(20, TimerId(1));
        mb.set_timer(30, TimerId(0));
        mb.cancel_timer(TimerId(0));
        assert_eq!(mb.timers, vec![(20, TimerId(1))]);
        // Re-arming after a cancel works; cancelling nothing is a no-op.
        mb.cancel_timer(TimerId(7));
        mb.set_timer(40, TimerId(0));
        assert_eq!(mb.timers, vec![(20, TimerId(1)), (40, TimerId(0))]);
    }

    #[test]
    fn slice_views_sample_only_their_members() {
        let mut rng = SmallRng::seed_from_u64(7);
        let me = NodeId::new(0);
        let live = [NodeId::new(0), NodeId::new(17), NodeId::new(42)];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = sample_from_view(&mut rng, me, &live);
            assert_ne!(p, me);
            seen.insert(p.index());
        }
        assert_eq!(seen, [17usize, 42].into_iter().collect());
    }

    #[test]
    fn degenerate_views_fall_back_to_me() {
        let mut rng = SmallRng::seed_from_u64(7);
        let me = NodeId::new(0);
        assert_eq!(sample_from_view(&mut rng, me, &[]), me);
        assert_eq!(sample_from_view(&mut rng, me, &[NodeId::new(0)]), me);
        assert_eq!(
            sample_from_view(&mut rng, me, &[NodeId::new(3)]),
            NodeId::new(3)
        );
    }

    #[test]
    fn note_defaults_to_a_discard() {
        let mut mb = mailbox(4);
        // Compiles and does nothing — the passive default.
        mb.note(Some(NodeId::new(1)), gossip_obs::TraceReason::Suspected);
        mb.note(None, gossip_obs::TraceReason::Joined);
    }

    #[test]
    fn timer_ids_are_plain_labels() {
        assert_eq!(TimerId::default(), TimerId(0));
        assert!(TimerId(1) < TimerId(2));
        assert_eq!(format!("{}", TimerId(3)), "timer#3");
    }
}
