//! The membership state machine: per-peer liveness records with
//! incarnation-number precedence, plus the bounded freshest-first
//! dissemination queue.
//!
//! This module is pure state — no I/O, no RNG, no clocks of its own
//! (callers pass `now_us` in) — so the SWIM rules can be property-tested
//! in isolation and the [`Member`](crate::Member) handler stays a thin
//! event loop around it.
//!
//! ## Precedence
//!
//! Every claim about a node carries that node's *incarnation number*, a
//! counter only the node itself may advance. A claim supersedes the
//! current record iff its incarnation is higher, or equal with a worse
//! state (`Alive < Suspect < Dead`):
//!
//! * `Suspect{inc}` overrides `Alive{inc}` — a detector needs no
//!   cooperation from the suspect.
//! * `Alive{inc+1}` overrides `Suspect{inc}` — the refutation a live
//!   suspect broadcasts when it hears the rumor about itself.
//! * `Dead{inc}` overrides both at the same incarnation, and a *stale*
//!   `Alive` can never resurrect a tombstone: only the node itself, by
//!   rejoining at a **higher** incarnation, comes back — which is exactly
//!   what a rejoiner does after its first refutation bump.

use gossip_net::NodeId;

/// Liveness states a peer moves through, ordered by "badness".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Liveness {
    /// Believed up: probes get acked, or someone recently said so.
    Alive,
    /// A probe went unanswered (directly and through proxies); the rumor
    /// is out and the node has a suspicion timeout to refute it.
    Suspect,
    /// The suspicion timeout expired (or the node announced a leave).
    /// Terminal for this incarnation.
    Dead,
}

impl Liveness {
    /// Precedence rank at equal incarnation: worse news wins.
    pub fn rank(self) -> u8 {
        match self {
            Liveness::Alive => 0,
            Liveness::Suspect => 1,
            Liveness::Dead => 2,
        }
    }

    /// Stable lowercase label for status pages and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Liveness::Alive => "alive",
            Liveness::Suspect => "suspect",
            Liveness::Dead => "dead",
        }
    }

    /// Wire tag (total decoder counterpart is [`Liveness::from_wire`]).
    pub(crate) fn to_wire(self) -> u8 {
        self.rank()
    }

    /// Decode a wire tag; `None` for hostile bytes.
    pub(crate) fn from_wire(tag: u8) -> Option<Liveness> {
        match tag {
            0 => Some(Liveness::Alive),
            1 => Some(Liveness::Suspect),
            2 => Some(Liveness::Dead),
            _ => None,
        }
    }
}

/// One disseminated claim: `node` is in `state` at `incarnation`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Update {
    /// The subject of the claim.
    pub node: NodeId,
    /// The subject's incarnation number the claimant knew.
    pub incarnation: u64,
    /// The claimed state.
    pub state: Liveness,
}

/// Exact wire size of one [`Update`]: u32 id + u64 incarnation + u8 state.
pub(crate) const UPDATE_WIRE_BYTES: usize = 4 + 8 + 1;

/// Does `(new_state, new_inc)` supersede `(old_state, old_inc)`?
pub fn supersedes(new_state: Liveness, new_inc: u64, old_state: Liveness, old_inc: u64) -> bool {
    new_inc > old_inc || (new_inc == old_inc && new_state.rank() > old_state.rank())
}

/// What this node currently believes about one peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerRecord {
    /// Believed state. Meaningless until [`PeerRecord::known`].
    pub state: Liveness,
    /// Highest incarnation seen for this peer.
    pub incarnation: u64,
    /// Has this id ever been heard of? Unknown ids are not in any view.
    pub known: bool,
    /// When the current state was entered (µs); the suspicion deadline
    /// base for `Suspect` records.
    pub since_us: u64,
}

impl PeerRecord {
    fn unknown() -> Self {
        PeerRecord {
            state: Liveness::Alive,
            incarnation: 0,
            known: false,
            since_us: 0,
        }
    }
}

/// State transitions [`MemberTable::apply`] reports back to the handler,
/// which turns them into trace notes, counters and re-dissemination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// A previously unknown id entered the view (joined), or a dead one
    /// came back at a higher incarnation (rejoined).
    Joined,
    /// Alive → Suspect.
    Suspected,
    /// Suspect → Alive at a higher incarnation (the suspicion was wrong).
    Refuted,
    /// Any state → Dead.
    Died,
    /// The record advanced (e.g. a fresher Alive incarnation) without
    /// changing the liveness class.
    Freshened,
    /// The claim was stale — superseded by what we already believe.
    Stale,
}

/// One slot of the dissemination queue: gossip the *current* record of
/// `node`, `sent` times so far. Reading the record at piggyback time (not
/// at enqueue time) means a queued rumor can only get fresher.
#[derive(Clone, Copy, Debug)]
struct QueueSlot {
    node: NodeId,
    sent: u32,
}

/// The membership table of one node: the universe of `n` possible ids,
/// each with a [`PeerRecord`], an incrementally maintained live view, and
/// the bounded dissemination queue.
#[derive(Clone, Debug)]
pub struct MemberTable {
    me: NodeId,
    records: Vec<PeerRecord>,
    /// Known ids believed up (`Alive` or `Suspect`), excluding `me`,
    /// sorted ascending — the view the wrapped protocol's
    /// [`sample_peer`](gossip_net::Mailbox::sample_peer) draws from.
    live: Vec<NodeId>,
    /// Known records in `Suspect` (`me`'s included): what lets
    /// [`MemberTable::sweep_suspects`] return at once on the probe ticks
    /// — nearly all of them — that have nothing to expire.
    suspects: usize,
    /// At most one pending rumor per node; drained freshest-first.
    queue: Vec<QueueSlot>,
    /// Drop a rumor after this many transmissions.
    retransmit_limit: u32,
    /// Hard cap on queue slots (evicts the most-transmitted beyond it).
    max_queue: usize,
    /// Rumors evicted by the cap before reaching the retransmit limit.
    pub evictions: u64,
}

impl MemberTable {
    /// A table over the id universe `0..n`; only `me` starts known.
    pub fn new(me: NodeId, n: usize, retransmit_limit: u32, max_queue: usize) -> Self {
        let mut records = vec![PeerRecord::unknown(); n];
        records[me.index()].known = true;
        MemberTable {
            me,
            records,
            live: Vec::new(),
            suspects: 0,
            queue: Vec::new(),
            retransmit_limit,
            max_queue,
            evictions: 0,
        }
    }

    /// This node's own incarnation number.
    pub fn my_incarnation(&self) -> u64 {
        self.records[self.me.index()].incarnation
    }

    /// Advance own incarnation past `claimed` (refutation) and queue the
    /// fresh self-Alive rumor. Returns the new incarnation.
    pub fn refute(&mut self, claimed: u64) -> u64 {
        let rec = &mut self.records[self.me.index()];
        rec.incarnation = rec.incarnation.max(claimed) + 1;
        self.suspects -= usize::from(rec.state == Liveness::Suspect);
        rec.state = Liveness::Alive;
        let inc = rec.incarnation;
        self.enqueue(self.me);
        inc
    }

    /// The record for `node` (`None` outside the universe).
    pub fn record(&self, node: NodeId) -> Option<&PeerRecord> {
        self.records.get(node.index())
    }

    /// Known ids believed up (Alive or Suspect), excluding `me`, sorted.
    pub fn live_view(&self) -> &[NodeId] {
        &self.live
    }

    /// `(alive, suspect, dead, unknown)` counts over the universe,
    /// excluding `me` (a node does not report on itself).
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let (mut a, mut s, mut d, mut u) = (0, 0, 0, 0);
        for (i, rec) in self.records.iter().enumerate() {
            if i == self.me.index() {
                continue;
            }
            if !rec.known {
                u += 1;
            } else {
                match rec.state {
                    Liveness::Alive => a += 1,
                    Liveness::Suspect => s += 1,
                    Liveness::Dead => d += 1,
                }
            }
        }
        (a, s, d, u)
    }

    /// Install `node` as known-Alive at incarnation 0 without queueing a
    /// rumor — the bootstrap path for seeds and static full views.
    pub fn bootstrap(&mut self, node: NodeId) {
        if node == self.me || node.index() >= self.records.len() {
            return;
        }
        let rec = &mut self.records[node.index()];
        if !rec.known {
            rec.known = true;
            rec.state = Liveness::Alive;
            rec.incarnation = 0;
            self.insert_live(node);
        }
    }

    /// Apply one claim about `update.node` (never `me` — the handler
    /// intercepts self-claims for refutation first). Updates the record,
    /// the live view, and — for genuine news — queues re-dissemination.
    pub fn apply(&mut self, update: Update, now_us: u64) -> Transition {
        let idx = update.node.index();
        debug_assert!(update.node != self.me);
        let rec = self.records[idx];
        if rec.known && !supersedes(update.state, update.incarnation, rec.state, rec.incarnation) {
            // Equal (state, incarnation) is confirmation, not news; either
            // way there is nothing to change or re-disseminate.
            return Transition::Stale;
        }
        let was = if rec.known { Some(rec.state) } else { None };
        self.suspects -= usize::from(was == Some(Liveness::Suspect));
        self.suspects += usize::from(update.state == Liveness::Suspect);
        let rec = &mut self.records[idx];
        rec.known = true;
        rec.state = update.state;
        rec.incarnation = update.incarnation;
        rec.since_us = now_us;
        let transition = match (was, update.state) {
            (None, Liveness::Alive) | (None, Liveness::Suspect) => Transition::Joined,
            (None, Liveness::Dead) => Transition::Died,
            (Some(Liveness::Dead), Liveness::Alive) => Transition::Joined,
            (Some(Liveness::Suspect), Liveness::Alive) => Transition::Refuted,
            (Some(Liveness::Alive), Liveness::Alive) => Transition::Freshened,
            (Some(Liveness::Dead), Liveness::Suspect) => Transition::Joined,
            (Some(_), Liveness::Suspect) => Transition::Suspected,
            (Some(Liveness::Dead), Liveness::Dead) => Transition::Freshened,
            (Some(_), Liveness::Dead) => Transition::Died,
        };
        match update.state {
            Liveness::Alive | Liveness::Suspect => self.insert_live(update.node),
            Liveness::Dead => self.remove_live(update.node),
        }
        self.enqueue(update.node);
        transition
    }

    /// The local detector starts suspecting `node` (probe timed out) at
    /// its current incarnation. No-op unless the record is known-Alive.
    pub(crate) fn start_suspect(&mut self, node: NodeId, now_us: u64) -> bool {
        let idx = node.index();
        if idx >= self.records.len() || node == self.me {
            return false;
        }
        let rec = &mut self.records[idx];
        if !rec.known || rec.state != Liveness::Alive {
            return false;
        }
        rec.state = Liveness::Suspect;
        rec.since_us = now_us;
        self.suspects += 1;
        self.enqueue(node);
        true
    }

    /// Expire suspicions older than `timeout_us`: each becomes Dead *at
    /// the incarnation that was suspected* — a refutation that arrived
    /// meanwhile moved the record to a higher incarnation and is immune.
    /// Returns the newly declared dead, in id order. O(1) when nothing is
    /// suspected.
    pub(crate) fn sweep_suspects(&mut self, now_us: u64, timeout_us: u64) -> Vec<NodeId> {
        if self.suspects == 0 {
            return Vec::new();
        }
        let mut dead = Vec::new();
        for idx in 0..self.records.len() {
            let rec = self.records[idx];
            if rec.known
                && rec.state == Liveness::Suspect
                && now_us.saturating_sub(rec.since_us) >= timeout_us
            {
                let node = NodeId::new(idx);
                self.records[idx].state = Liveness::Dead;
                self.records[idx].since_us = now_us;
                self.suspects -= 1;
                self.remove_live(node);
                self.enqueue(node);
                dead.push(node);
            }
        }
        dead
    }

    /// Drain up to `max` rumors, freshest-first (fewest transmissions,
    /// then highest id recency tiebreak by id for determinism), reading
    /// each node's *current* record. Slots at the retransmit limit are
    /// retired.
    pub(crate) fn next_piggyback(&mut self, max: usize) -> Vec<Update> {
        if max == 0 || self.queue.is_empty() {
            return Vec::new();
        }
        self.queue.sort_by_key(|s| (s.sent, s.node.index()));
        let mut out = Vec::with_capacity(max.min(self.queue.len()));
        for slot in self.queue.iter_mut().take(max) {
            let rec = self.records[slot.node.index()];
            out.push(Update {
                node: slot.node,
                incarnation: rec.incarnation,
                state: rec.state,
            });
            slot.sent += 1;
        }
        let limit = self.retransmit_limit;
        self.queue.retain(|s| s.sent < limit);
        out
    }

    /// A full-table snapshot for a join reply: every known record except
    /// `exclude`'s own, in id order. (Chunking to datagram budget is the
    /// caller's job.)
    pub fn snapshot(&self, exclude: NodeId) -> Vec<Update> {
        self.records
            .iter()
            .enumerate()
            .filter(|(i, r)| r.known && NodeId::new(*i) != exclude)
            .map(|(i, r)| Update {
                node: NodeId::new(i),
                incarnation: r.incarnation,
                state: r.state,
            })
            .collect()
    }

    fn enqueue(&mut self, node: NodeId) {
        if let Some(slot) = self.queue.iter_mut().find(|s| s.node == node) {
            // Fresh news about a queued node restarts its rumor.
            slot.sent = 0;
            return;
        }
        if self.queue.len() >= self.max_queue {
            // Evict the most-transmitted rumor to make room.
            if let Some((pos, _)) = self
                .queue
                .iter()
                .enumerate()
                .max_by_key(|(i, s)| (s.sent, usize::MAX - i))
            {
                self.queue.swap_remove(pos);
                self.evictions += 1;
            }
        }
        self.queue.push(QueueSlot { node, sent: 0 });
    }

    fn insert_live(&mut self, node: NodeId) {
        if let Err(pos) = self.live.binary_search(&node) {
            self.live.insert(pos, node);
        }
    }

    fn remove_live(&mut self, node: NodeId) {
        if let Ok(pos) = self.live.binary_search(&node) {
            self.live.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> MemberTable {
        MemberTable::new(NodeId::new(0), n, 6, 64)
    }

    fn up(node: usize, inc: u64, state: Liveness) -> Update {
        Update {
            node: NodeId::new(node),
            incarnation: inc,
            state,
        }
    }

    #[test]
    fn precedence_ladder() {
        // Same incarnation: worse state wins; higher incarnation: anything wins.
        assert!(supersedes(Liveness::Suspect, 3, Liveness::Alive, 3));
        assert!(supersedes(Liveness::Dead, 3, Liveness::Suspect, 3));
        assert!(!supersedes(Liveness::Alive, 3, Liveness::Suspect, 3));
        assert!(supersedes(Liveness::Alive, 4, Liveness::Suspect, 3));
        assert!(supersedes(Liveness::Alive, 4, Liveness::Dead, 3));
        assert!(!supersedes(Liveness::Alive, 3, Liveness::Dead, 3));
        assert!(!supersedes(Liveness::Dead, 2, Liveness::Alive, 3));
        assert!(!supersedes(Liveness::Alive, 3, Liveness::Alive, 3));
    }

    #[test]
    fn join_suspect_refute_die_lifecycle() {
        let mut t = table(4);
        assert_eq!(t.apply(up(2, 0, Liveness::Alive), 10), Transition::Joined);
        assert_eq!(t.live_view(), &vec![NodeId::new(2)]);
        assert_eq!(
            t.apply(up(2, 0, Liveness::Suspect), 20),
            Transition::Suspected
        );
        assert_eq!(
            t.live_view(),
            &vec![NodeId::new(2)],
            "suspects stay in view"
        );
        assert_eq!(t.apply(up(2, 1, Liveness::Alive), 30), Transition::Refuted);
        assert_eq!(t.apply(up(2, 1, Liveness::Dead), 40), Transition::Died);
        assert!(t.live_view().is_empty());
        // Stale alive cannot resurrect; a higher incarnation rejoins.
        assert_eq!(t.apply(up(2, 1, Liveness::Alive), 50), Transition::Stale);
        assert_eq!(t.record(NodeId::new(2)).unwrap().state, Liveness::Dead);
        assert_eq!(t.apply(up(2, 2, Liveness::Alive), 60), Transition::Joined);
        assert_eq!(t.live_view(), &vec![NodeId::new(2)]);
    }

    #[test]
    fn suspicion_sweep_kills_only_the_suspected_incarnation() {
        let mut t = table(4);
        t.apply(up(1, 0, Liveness::Alive), 0);
        t.apply(up(2, 0, Liveness::Alive), 0);
        assert!(t.start_suspect(NodeId::new(1), 100));
        assert!(t.start_suspect(NodeId::new(2), 100));
        // Node 2 refutes in time; node 1 does not.
        assert_eq!(t.apply(up(2, 1, Liveness::Alive), 150), Transition::Refuted);
        let dead = t.sweep_suspects(300, 200);
        assert_eq!(dead, vec![NodeId::new(1)]);
        assert_eq!(t.record(NodeId::new(2)).unwrap().state, Liveness::Alive);
        assert_eq!(t.live_view(), &vec![NodeId::new(2)]);
    }

    #[test]
    fn refute_bumps_past_the_claim() {
        let mut t = table(4);
        assert_eq!(t.my_incarnation(), 0);
        assert_eq!(t.refute(5), 6);
        assert_eq!(t.my_incarnation(), 6);
        // The self rumor is queued for dissemination.
        let ups = t.next_piggyback(8);
        assert_eq!(ups, vec![up(0, 6, Liveness::Alive)]);
    }

    #[test]
    fn piggyback_is_freshest_first_and_retires_at_the_limit() {
        let mut t = MemberTable::new(NodeId::new(0), 8, 2, 64);
        t.apply(up(1, 0, Liveness::Alive), 0);
        t.apply(up(2, 0, Liveness::Alive), 0);
        // Send node-1 and node-2 rumors once.
        assert_eq!(t.next_piggyback(8).len(), 2);
        // Fresh news about 3: it goes first now (fewest transmissions).
        t.apply(up(3, 0, Liveness::Alive), 0);
        let ups = t.next_piggyback(1);
        assert_eq!(ups[0].node, NodeId::new(3));
        // 1 and 2 hit the retransmit limit on this drain and retire.
        assert_eq!(t.next_piggyback(2).len(), 2);
        assert_eq!(t.next_piggyback(8), vec![up(3, 0, Liveness::Alive)]);
        assert!(t.queue.is_empty());
    }

    #[test]
    fn piggyback_batches_are_allocated_at_their_final_length() {
        let mut t = table(8);
        for node in 1..6 {
            t.apply(up(node, 0, Liveness::Alive), 0);
        }
        for max in [3, 8] {
            let ups = t.next_piggyback(max);
            assert_eq!(ups.len(), max.min(5));
            assert_eq!(ups.capacity(), ups.len(), "max {max}");
        }
    }

    #[test]
    fn piggyback_reads_current_records_not_enqueue_time_state() {
        let mut t = table(8);
        t.apply(up(1, 0, Liveness::Alive), 0);
        // Before any drain the record worsens; the rumor must carry Suspect.
        t.apply(up(1, 0, Liveness::Suspect), 5);
        let ups = t.next_piggyback(8);
        assert_eq!(ups, vec![up(1, 0, Liveness::Suspect)]);
    }

    #[test]
    fn queue_cap_evicts_most_transmitted() {
        let mut t = MemberTable::new(NodeId::new(0), 8, 10, 2);
        t.apply(up(1, 0, Liveness::Alive), 0);
        t.apply(up(2, 0, Liveness::Alive), 0);
        t.next_piggyback(1); // node 1 now has sent=1
        t.apply(up(3, 0, Liveness::Alive), 0); // cap 2: evicts node 1
        assert_eq!(t.evictions, 1);
        let ups = t.next_piggyback(8);
        let nodes: Vec<usize> = ups.iter().map(|u| u.node.index()).collect();
        assert!(!nodes.contains(&1));
    }

    #[test]
    fn bootstrap_installs_without_rumors() {
        let mut t = table(4);
        t.bootstrap(NodeId::new(3));
        t.bootstrap(NodeId::new(3));
        assert_eq!(t.live_view(), &vec![NodeId::new(3)]);
        assert!(t.queue.is_empty());
        assert_eq!(t.counts(), (1, 0, 0, 2));
    }

    #[test]
    fn snapshot_lists_known_records_in_id_order() {
        let mut t = table(6);
        t.apply(up(4, 1, Liveness::Alive), 0);
        t.apply(up(2, 0, Liveness::Dead), 0);
        let snap = t.snapshot(NodeId::new(4));
        let nodes: Vec<usize> = snap.iter().map(|u| u.node.index()).collect();
        assert_eq!(nodes, vec![0, 2], "me and node 2, excluding the asker");
    }

    /// Apply one operation decoded from `raw` at `now` to a table over
    /// `n` ids: a claim about a peer, a local suspicion (of any id, `me`
    /// included), a sweep, a refutation or a bootstrap (one id past the
    /// universe included). A sweep is held to a scan-based oracle.
    fn step(t: &mut MemberTable, n: usize, raw: u64, now: u64) {
        let arg = raw >> 3;
        match raw % 5 {
            0 => {
                let state = [Liveness::Alive, Liveness::Suspect, Liveness::Dead][arg as usize % 3];
                t.apply(
                    up(1 + (arg >> 2) as usize % (n - 1), (arg >> 4) % 4, state),
                    now,
                );
            }
            1 => {
                t.start_suspect(NodeId::new(arg as usize % n), now);
            }
            2 => {
                let timeout = arg % 40;
                let expired: Vec<NodeId> = (0..n)
                    .map(NodeId::new)
                    .filter(|&node| {
                        let r = t.records[node.index()];
                        r.known
                            && r.state == Liveness::Suspect
                            && now.saturating_sub(r.since_us) >= timeout
                    })
                    .collect();
                assert_eq!(t.sweep_suspects(now, timeout), expired);
                for node in expired {
                    let r = t.records[node.index()];
                    assert_eq!((r.state, r.since_us), (Liveness::Dead, now));
                    assert!(!t.live_view().contains(&node));
                }
            }
            3 => {
                t.refute(arg % 6);
            }
            _ => t.bootstrap(NodeId::new(arg as usize % (n + 1))),
        }
    }

    proptest::proptest! {
        /// Under arbitrary sequences of claims, local suspicions, sweeps,
        /// refutations and bootstraps, the suspect count is always a
        /// scan's, and every sweep declares dead exactly the suspects a
        /// scan finds expired.
        #[test]
        fn the_suspect_count_and_the_sweep_match_a_scan(
            ops in proptest::collection::vec(0u64..=u64::MAX, 0..96),
        ) {
            let n = 6;
            let mut t = table(n);
            let mut now = 0;
            for raw in ops {
                now += (raw >> 40) % 16;
                step(&mut t, n, raw, now);
                let scanned = t
                    .records
                    .iter()
                    .filter(|r| r.known && r.state == Liveness::Suspect)
                    .count();
                proptest::prop_assert_eq!(t.suspects, scanned, "after op {:#x}", raw);
            }
        }
    }
}
