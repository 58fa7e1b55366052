//! A bounded ring buffer of recent protocol events.
//!
//! Every backend records sends, receives, timer fires, crashes, and drops
//! (with a reason code) into a [`TraceRing`]. The ring is fixed-capacity
//! and overwrites oldest-first, so it is safe to leave on for a 10⁶-node
//! soak run: memory is bounded and recording is a few stores — no
//! allocation after construction, no I/O, no feedback into the system
//! (see the crate-level passivity contract).

use std::collections::VecDeque;

/// Sentinel peer id for events with no second party (timer fires, crashes).
pub const NO_PEER: u64 = u64::MAX;

/// Sentinel trace id for events recorded outside any causal chain.
pub(crate) const NO_TRACE: u64 = 0;

/// The causal context of an event: which chain it belongs to and how many
/// message hops separate it from the chain's origin.
///
/// A chain starts at a *root* event — a timer fire, `on_start`, or a raw
/// transport send — which mints a fresh id at hop 0. Every message a
/// handler sends while processing a contextful event inherits the id at
/// `hop + 1`, rides the wire (or the simulated event), and becomes the
/// receiving handler's context in turn. Contexts are derived from values
/// already at hand (node id, event sequence number) — never from an RNG —
/// so the passivity contract holds: a traced run is bit-identical to an
/// untraced one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Chain id; `NO_TRACE` when the event is untraced.
    pub trace_id: u64,
    /// Message hops from the chain's origin (0 at the root).
    pub hop: u8,
}

impl TraceCtx {
    /// The absent context: no chain, hop 0.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: NO_TRACE,
        hop: 0,
    };

    /// A fresh root context (hop 0) with the given id.
    pub fn root(trace_id: u64) -> TraceCtx {
        TraceCtx { trace_id, hop: 0 }
    }

    /// Mint a root context from values already at hand — an
    /// avalanche-quality integer mix (splitmix64 finalizer), *not* an RNG
    /// draw, so deriving ids is passive. Forced nonzero: `NO_TRACE`
    /// always means "untraced".
    pub fn derive(node: u64, seq: u64) -> TraceCtx {
        let mut z = node
            .rotate_left(32)
            .wrapping_add(seq)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        TraceCtx::root(z | 1) // nonzero by construction
    }

    /// True when this is the absent context.
    pub fn is_none(&self) -> bool {
        self.trace_id == NO_TRACE
    }

    /// True when this context names a chain.
    pub fn is_some(&self) -> bool {
        self.trace_id != NO_TRACE
    }

    /// The context an outgoing message inherits from this one: same chain,
    /// one hop further. The absent context stays absent.
    pub fn next_hop(self) -> TraceCtx {
        if self.is_none() {
            TraceCtx::NONE
        } else {
            TraceCtx {
                trace_id: self.trace_id,
                hop: self.hop.saturating_add(1),
            }
        }
    }
}

/// What kind of protocol event happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A message left a node (accepted by the transport).
    Send,
    /// A message was dispatched to a handler.
    Recv,
    /// A timer callback fired.
    TimerFire,
    /// A node crashed (simulated churn).
    Crash,
    /// Something was dropped; see the [`TraceReason`].
    Drop,
    /// A protocol-level state transition (membership: suspected, refuted,
    /// declared-dead, joined). Recorded via `Mailbox::note` — strictly
    /// passive, never part of an order hash.
    State,
}

impl TraceKind {
    /// Stable lowercase label for rendering.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceKind::Send => "send",
            TraceKind::Recv => "recv",
            TraceKind::TimerFire => "timer",
            TraceKind::Crash => "crash",
            TraceKind::Drop => "drop",
            TraceKind::State => "state",
        }
    }

    /// Parse the label produced by [`TraceKind::as_str`] (the `/trace`
    /// `?kind=` filter uses this). `None` for anything else.
    pub fn parse(s: &str) -> Option<TraceKind> {
        match s {
            "send" => Some(TraceKind::Send),
            "recv" => Some(TraceKind::Recv),
            "timer" => Some(TraceKind::TimerFire),
            "crash" => Some(TraceKind::Crash),
            "drop" => Some(TraceKind::Drop),
            "state" => Some(TraceKind::State),
            _ => None,
        }
    }
}

/// Why an event happened (mostly: why a drop was a drop).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceReason {
    /// Nothing noteworthy — the normal case for send/recv/timer.
    None,
    /// Random link loss (simulated).
    Loss,
    /// Per-node bandwidth cap exceeded this tick.
    Bandwidth,
    /// Arrived after the round deadline (fixed-deadline model).
    Late,
    /// Receiver (or sender endpoint) was dead.
    DeadEndpoint,
    /// A cancelled timer was skipped at its due time.
    CancelledTimer,
    /// Frame exceeded the wire MTU and was never sent.
    Oversize,
    /// The OS socket send failed.
    SendError,
    /// The OS socket receive failed.
    RecvError,
    /// Datagram payload did not decode as the protocol message type.
    DecodeError,
    /// Datagram from an address not in the peer table.
    UnknownSender,
    /// Source address did not match the claimed node id.
    AddrMismatch,
    /// Frame failed authentication: a bad or missing HMAC tag at an
    /// auth-required receiver.
    AuthReject,
    /// Event referenced state from before a crash (stale epoch).
    Stale,
    /// A failure detector started suspecting the peer.
    Suspected,
    /// A suspected peer refuted the suspicion with a higher incarnation.
    Refuted,
    /// A suspected peer timed out and was declared dead.
    DeclaredDead,
    /// A peer joined (or rejoined) the membership view.
    Joined,
}

impl TraceReason {
    /// Stable kebab-case label for rendering.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceReason::None => "-",
            TraceReason::Loss => "loss",
            TraceReason::Bandwidth => "bandwidth",
            TraceReason::Late => "late",
            TraceReason::DeadEndpoint => "dead-endpoint",
            TraceReason::CancelledTimer => "cancelled-timer",
            TraceReason::Oversize => "oversize",
            TraceReason::SendError => "send-error",
            TraceReason::RecvError => "recv-error",
            TraceReason::DecodeError => "decode-error",
            TraceReason::UnknownSender => "unknown-sender",
            TraceReason::AddrMismatch => "addr-mismatch",
            TraceReason::AuthReject => "auth-reject",
            TraceReason::Stale => "stale",
            TraceReason::Suspected => "suspected",
            TraceReason::Refuted => "refuted",
            TraceReason::DeclaredDead => "declared-dead",
            TraceReason::Joined => "joined",
        }
    }
}

/// One recorded protocol event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation (or host) time in microseconds.
    pub at_us: u64,
    /// The node the event happened at.
    pub node: u64,
    /// The other party ([`NO_PEER`] when there is none).
    pub peer: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Why (mostly drop reasons; [`TraceReason::None`] otherwise).
    pub reason: TraceReason,
    /// Causal chain id (`NO_TRACE` for untraced events).
    pub trace_id: u64,
    /// Message hops from the chain's origin.
    pub hop: u8,
}

impl TraceEvent {
    /// This event's causal context.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            hop: self.hop,
        }
    }

    /// Render as one human-readable line (the `/trace` page format).
    pub fn render(&self) -> String {
        let mut line = if self.peer == NO_PEER {
            format!(
                "{:>12} us  node {:>6}  {:<5} {}",
                self.at_us,
                self.node,
                self.kind.as_str(),
                self.reason.as_str()
            )
        } else {
            format!(
                "{:>12} us  node {:>6}  {:<5} peer {:>6}  {}",
                self.at_us,
                self.node,
                self.kind.as_str(),
                self.peer,
                self.reason.as_str()
            )
        };
        if self.trace_id != NO_TRACE {
            line.push_str(&format!("  trace {:016x}/{}", self.trace_id, self.hop));
        }
        line
    }
}

/// Fixed-capacity ring of the most recent [`TraceEvent`]s.
#[derive(Clone, Debug)]
pub struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    total: u64,
}

impl TraceRing {
    /// A ring keeping at most `capacity` events (capacity 0 records nothing
    /// but still counts totals).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            events: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// Record an event, evicting the oldest if full.
    pub fn push(&mut self, event: TraceEvent) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// Convenience: record with individual fields, outside any chain.
    pub fn record(
        &mut self,
        at_us: u64,
        node: u64,
        peer: u64,
        kind: TraceKind,
        reason: TraceReason,
    ) {
        self.record_ctx(at_us, node, peer, kind, reason, TraceCtx::NONE);
    }

    /// Record with an explicit causal context.
    pub fn record_ctx(
        &mut self,
        at_us: u64,
        node: u64,
        peer: u64,
        kind: TraceKind,
        reason: TraceReason,
        ctx: TraceCtx,
    ) {
        self.push(TraceEvent {
            at_us,
            node,
            peer,
            kind,
            reason,
            trace_id: ctx.trace_id,
            hop: ctx.hop,
        });
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events that were evicted to make room.
    pub fn overwritten(&self) -> u64 {
        self.total - self.events.len() as u64
    }

    /// Move every retained event into `dst` (oldest first), preserving
    /// `dst`'s capacity bound. Used to merge per-shard rings at barriers.
    pub fn drain_into(&mut self, dst: &mut TraceRing) {
        // `dst` takes the source's evicted count here, and `push` counts
        // each retained event as it moves, so `dst.total` ends up adding
        // every event the source recorded.
        dst.total += self.overwritten();
        for event in self.events.drain(..) {
            dst.push(event);
        }
        self.total = 0;
    }

    /// Route this ring into an observability registry — the recorded and
    /// evicted totals, and the causal chains reconstructed from the
    /// retained events — under the family names every backend exports.
    /// Purely a read: reconstruction happens at scrape time.
    pub fn fill_registry(&self, registry: &mut crate::Registry) {
        registry.add_counter(
            "trace_events_total",
            "Protocol events recorded into the trace ring",
            &[],
            self.total,
        );
        registry.add_counter(
            "trace_ring_overwrites_total",
            "Trace events lost to ring capacity",
            &[],
            self.overwritten(),
        );
        crate::causal::reconstruct(self).fill_registry(registry);
    }

    /// Render the retained events as lines, oldest first.
    pub fn render(&self) -> String {
        self.render_filtered(&TraceFilter::default())
    }

    /// Render with a [`TraceFilter`]: kind/chain predicates first, then
    /// the `last_n` cap on whatever survived, oldest first.
    pub fn render_filtered(&self, filter: &TraceFilter) -> String {
        let selected: Vec<&TraceEvent> = self
            .events
            .iter()
            .filter(|e| filter.kind.is_none_or(|k| e.kind == k))
            .filter(|e| filter.trace_id.is_none_or(|id| e.trace_id == id))
            .collect();
        let skip = filter
            .last_n
            .map_or(0, |n| selected.len().saturating_sub(n));
        let mut out = String::new();
        for event in selected.into_iter().skip(skip) {
            out.push_str(&event.render());
            out.push('\n');
        }
        out
    }
}

/// A `/trace` page filter: every field is optional and they compose.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceFilter {
    /// Keep only events of this kind.
    pub kind: Option<TraceKind>,
    /// Keep only events on this causal chain.
    pub trace_id: Option<u64>,
    /// After the predicates, keep only the newest `n` events.
    pub last_n: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at_us: at,
            node: 1,
            peer: 2,
            kind: TraceKind::Send,
            reason: TraceReason::None,
            trace_id: NO_TRACE,
            hop: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_first() {
        let mut ring = TraceRing::new(3);
        for at in 0..5 {
            ring.push(ev(at));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.overwritten(), 2);
        let ats: Vec<u64> = ring.iter().map(|e| e.at_us).collect();
        assert_eq!(ats, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_counts_without_storing() {
        let mut ring = TraceRing::new(0);
        ring.push(ev(1));
        ring.push(ev(2));
        assert!(ring.is_empty());
        assert_eq!(ring.total(), 2);
        assert_eq!(ring.overwritten(), 2);
    }

    #[test]
    fn fill_registry_exports_the_totals_and_the_chains() {
        let mut ring = TraceRing::new(2);
        for at in 0..3 {
            ring.push(ev(at));
        }
        let mut registry = crate::Registry::new();
        ring.fill_registry(&mut registry);
        let text = registry.render();
        assert!(text.contains("trace_events_total 3"), "{text}");
        assert!(text.contains("trace_ring_overwrites_total 1"), "{text}");
        let mut chains = crate::Registry::new();
        crate::causal::reconstruct(&ring).fill_registry(&mut chains);
        for line in chains.render().lines() {
            assert!(text.contains(line), "{line}");
        }
    }

    #[test]
    fn drain_into_preserves_order_and_totals() {
        let mut a = TraceRing::new(4);
        let mut b = TraceRing::new(4);
        for at in 0..3 {
            a.push(ev(at));
        }
        for at in 10..16 {
            b.push(ev(at)); // b has overwritten 2 already
        }
        b.drain_into(&mut a);
        // a keeps the 4 newest of [0,1,2,12,13,14,15].
        let ats: Vec<u64> = a.iter().map(|e| e.at_us).collect();
        assert_eq!(ats, vec![12, 13, 14, 15]);
        // Totals: a recorded 3, b recorded 6 — all 9 accounted for.
        assert_eq!(a.total(), 9);
        assert_eq!(b.total(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn render_includes_reason_codes() {
        let mut ring = TraceRing::new(2);
        ring.record(100, 3, NO_PEER, TraceKind::TimerFire, TraceReason::None);
        ring.record(200, 3, 7, TraceKind::Drop, TraceReason::Oversize);
        let text = ring.render();
        assert!(text.contains("timer"));
        assert!(text.contains("oversize"));
        assert!(text.contains("peer      7"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn contexts_derive_deterministically_and_chain_hops() {
        let a = TraceCtx::derive(3, 41);
        let b = TraceCtx::derive(3, 41);
        assert_eq!(a, b, "same inputs, same id");
        assert_ne!(a, TraceCtx::derive(3, 42));
        assert_ne!(a, TraceCtx::derive(4, 41));
        assert!(a.is_some() && a.hop == 0);
        let hop1 = a.next_hop();
        assert_eq!(hop1.trace_id, a.trace_id);
        assert_eq!(hop1.hop, 1);
        // The absent context never grows hops.
        assert_eq!(TraceCtx::NONE.next_hop(), TraceCtx::NONE);
        // Hops saturate instead of wrapping back to a fake root.
        let mut deep = a;
        for _ in 0..300 {
            deep = deep.next_hop();
        }
        assert_eq!(deep.hop, u8::MAX);
    }

    #[test]
    fn contextful_events_render_their_chain() {
        let mut ring = TraceRing::new(4);
        let ctx = TraceCtx::root(0xAB);
        ring.record_ctx(10, 1, 2, TraceKind::Send, TraceReason::None, ctx);
        ring.record_ctx(20, 2, 1, TraceKind::Recv, TraceReason::None, ctx.next_hop());
        ring.record(30, 1, NO_PEER, TraceKind::TimerFire, TraceReason::None);
        let text = ring.render();
        assert!(text.contains("trace 00000000000000ab/0"));
        assert!(text.contains("trace 00000000000000ab/1"));
        // Untraced lines carry no trace column at all.
        let untraced = text.lines().nth(2).unwrap();
        assert!(!untraced.contains("trace"));
    }

    #[test]
    fn filters_compose_kind_chain_and_last_n() {
        let mut ring = TraceRing::new(16);
        for at in 0..6 {
            let ctx = if at % 2 == 0 {
                TraceCtx::root(0x11)
            } else {
                TraceCtx::root(0x22)
            };
            let kind = if at < 3 {
                TraceKind::Send
            } else {
                TraceKind::Recv
            };
            ring.record_ctx(at, 1, 2, kind, TraceReason::None, ctx);
        }
        let kinds = ring.render_filtered(&TraceFilter {
            kind: Some(TraceKind::Send),
            ..TraceFilter::default()
        });
        assert_eq!(kinds.lines().count(), 3);
        assert!(kinds.lines().all(|l| l.contains("send")));
        let chain = ring.render_filtered(&TraceFilter {
            trace_id: Some(0x22),
            ..TraceFilter::default()
        });
        assert_eq!(chain.lines().count(), 3);
        let newest = ring.render_filtered(&TraceFilter {
            kind: Some(TraceKind::Recv),
            last_n: Some(1),
            ..TraceFilter::default()
        });
        assert_eq!(newest.lines().count(), 1);
        assert!(newest.contains("           5 us"));
        // n larger than the match set is just "everything".
        let all = ring.render_filtered(&TraceFilter {
            last_n: Some(100),
            ..TraceFilter::default()
        });
        assert_eq!(all.lines().count(), 6);
    }
}
