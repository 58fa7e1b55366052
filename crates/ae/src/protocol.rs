//! The anti-entropy protocol: periodic digest exchange with delta repair.
//!
//! Every node runs an [`AeNode`] under the event-driven driver. On its
//! anti-entropy tick it picks a uniformly random peer and starts a
//! push-pull exchange. In [`DigestMode::Dense`], that is the classic
//! three-way reconciliation:
//!
//! 1. `A → B` [`AeMsg::SynReq`] — A's digest (per-origin max stamps,
//!    carried sparse: one `(origin, stamp)` pair per known origin).
//! 2. `B → A` [`AeMsg::SynAck`] — the entries B holds that A's digest
//!    lacks, plus B's own digest.
//! 3. `A → B` [`AeMsg::Delta`] — the entries A holds that B's digest
//!    lacks (omitted when B is already current).
//!
//! In [`DigestMode::Merkle`] the opener is a constant-size root hash and
//! the exchange descends a digest tree instead, repairing only the
//! subtrees that differ — O(log n) steady-state bits and no message that
//! grows with n (see [`crate::merkle`] for the descent).
//!
//! Any message may be lost; the exchange is stateless on both sides, so a
//! dropped leg costs nothing but the next tick. On its update tick a node
//! re-stamps its own entry with the current signal value, which is what
//! turns one-shot aggregation into **continuous** aggregation: estimates
//! track the input as it drifts, stale entries age out of
//! [`AeNode::estimate`], and a churned-and-rejoined node — restarted with
//! an empty store — pulls the whole state back within a few ticks.

use crate::merkle::{reconcile_into, DigestTree, MAX_RANGE_SLOTS};
use crate::signal::SignalModel;
use crate::stamps::StampRun;
use crate::store::{Entry, SparseDigest, Store};
use gossip_net::{stagger_us, Handler, Mailbox, NodeId, Phase, TimerId};
use gossip_runtime::{AsyncConfig, ShardedDriver};
use serde::{Deserialize, Serialize};

/// The anti-entropy tick timer.
pub(crate) const TIMER_TICK: TimerId = TimerId(0);
/// The local signal-update timer.
pub(crate) const TIMER_UPDATE: TimerId = TimerId(1);

/// How a node summarises its store for reconciliation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DigestMode {
    /// The classic flat digest: every exchange opens with one
    /// `(origin, stamp)` pair per known origin — O(n) bits per exchange,
    /// and beyond ~10,000 known origins the opener no longer fits one UDP
    /// datagram.
    #[default]
    Dense,
    /// Merkle digest trees (see [`crate::merkle`]): exchanges open with a
    /// constant-size root hash and descend only into mismatching subtrees,
    /// so the steady-state cost is O(log n) and **every** message stays
    /// within a bounded number of
    /// [`merkle_fallback_slots`](AeConfig::merkle_fallback_slots)-sized
    /// ranges — datagram-safe at any n.
    Merkle,
}

/// Parameters of the anti-entropy layer.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AeConfig {
    /// Anti-entropy exchange interval (µs). Each node starts one exchange
    /// per tick, at a deterministic per-node phase offset (no thundering
    /// herd).
    pub tick_us: u64,
    /// Local signal re-stamp interval (µs); `0` freezes the signal after
    /// the initial stamp.
    pub update_us: u64,
    /// Entries older than this (µs) are excluded from
    /// [`AeNode::estimate`]; `0` disables expiry. Should comfortably
    /// exceed `update_us` plus a few ticks of propagation, or live
    /// origins flicker out of the aggregate between refreshes.
    pub expiry_us: u64,
    /// The input signal being aggregated.
    pub signal: SignalModel,
    /// Digest representation for exchanges (dense flat digests by
    /// default; [`DigestMode::Merkle`] for O(log n) hash-tree digests).
    pub digest_mode: DigestMode,
    /// In Merkle mode, subtrees of at most this many slots stop the hash
    /// descent and fall back to a dense per-slot range digest (where one
    /// small range is cheaper to ship than to keep probing). Also the
    /// digest tree's leaf span, and the widest range repair a node will
    /// *accept* — so, like the store arity, it must agree across a
    /// cluster (a mismatched peer's range legs are counted as digest
    /// mismatches and dropped). At most [`MAX_RANGE_SLOTS`], the width of
    /// a range ack's want word. Ignored in dense mode.
    pub merkle_fallback_slots: usize,
}

impl AeConfig {
    /// Set the anti-entropy interval (µs).
    pub fn with_tick_us(mut self, tick_us: u64) -> Self {
        assert!(tick_us >= 1, "tick interval must be at least 1µs");
        self.tick_us = tick_us;
        self
    }

    /// Set the signal-update interval (µs, `0` = static signal).
    pub fn with_update_us(mut self, update_us: u64) -> Self {
        self.update_us = update_us;
        self
    }

    /// Set the estimate freshness window (µs, `0` = never expire).
    pub fn with_expiry_us(mut self, expiry_us: u64) -> Self {
        self.expiry_us = expiry_us;
        self
    }

    /// Set the signal model.
    pub fn with_signal(mut self, signal: SignalModel) -> Self {
        self.signal = signal;
        self
    }

    /// Set the digest representation.
    pub fn with_digest_mode(mut self, digest_mode: DigestMode) -> Self {
        self.digest_mode = digest_mode;
        self
    }

    /// Set the Merkle descent's dense-fallback subtree size (slots, 1 to
    /// [`MAX_RANGE_SLOTS`]).
    pub fn with_merkle_fallback_slots(mut self, slots: usize) -> Self {
        check_fallback_slots(slots);
        self.merkle_fallback_slots = slots;
        self
    }
}

/// Reject a fallback span no range repair can carry.
fn check_fallback_slots(slots: usize) {
    assert!(slots >= 1, "fallback must cover at least one slot");
    assert!(
        slots <= MAX_RANGE_SLOTS,
        "merkle_fallback_slots = {slots} exceeds {MAX_RANGE_SLOTS}: a range ack's \
         want word has one bit per slot"
    );
}

impl Default for AeConfig {
    /// 4 ms ticks, 16 ms signal refresh, 80 ms freshness window —
    /// proportioned like the ciruela emulator's interval gossip (ticks a
    /// few latency medians apart).
    fn default() -> Self {
        AeConfig {
            tick_us: 4_000,
            update_us: 16_000,
            expiry_us: 80_000,
            signal: SignalModel::default(),
            digest_mode: DigestMode::Dense,
            merkle_fallback_slots: 32,
        }
    }
}

/// The reconciliation messages: the classic three-way flat-digest legs
/// plus the Merkle descent legs (see [`crate::merkle`]).
///
/// Every digest-bearing variant carries the sender's store arity `n` and
/// is validated against the receiver's own arity before anything is
/// trusted: `AeMsg` arrives over real sockets, where a short digest is an
/// amplification lever (it makes the responder ship its whole store) and
/// a long or ill-ranged one would index out of bounds. Mismatches are
/// dropped and counted in [`AeNodeStats::digest_mismatches`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AeMsg {
    /// Flat-digest exchange opener: the initiator's digest, in sparse
    /// `(origin, stamp)` form — exactly the pairs the modelled
    /// `digest_bits` accounting charges for, and exactly what the wire
    /// encodes (absent origins cost nothing in either).
    SynReq {
        /// The initiator's store arity (validated by the receiver).
        n: u32,
        /// `(origin, max stamp)` per origin the initiator holds.
        digest: SparseDigest,
    },
    /// The responder's repair: entries the initiator lacks, plus the
    /// responder's digest so the initiator can repair it in turn.
    SynAck {
        /// The responder's store arity (validated by the receiver).
        n: u32,
        /// Entries the initiator's digest was missing.
        delta: Vec<(NodeId, Entry)>,
        /// `(origin, max stamp)` per origin the responder holds.
        digest: SparseDigest,
    },
    /// The counter-repair leg (flat and Merkle modes both end ranges with
    /// it; only sent when needed).
    Delta {
        /// Entries the peer's digest was missing.
        delta: Vec<(NodeId, Entry)>,
    },
    /// Merkle exchange opener: the initiator's root hash. Identical
    /// replicas answer with silence — this one constant-size message *is*
    /// the steady-state exchange.
    MerkleSyn {
        /// The initiator's store arity (validated by the receiver).
        n: u32,
        /// The initiator's digest-tree root hash.
        root: u64,
    },
    /// One level of the descent: subtree hashes the sender holds for tree
    /// nodes on the mismatch frontier. The receiver compares each against
    /// its own tree and answers mismatches with deeper probes or range
    /// fallbacks.
    MerkleProbe {
        /// The sender's store arity (validated by the receiver).
        n: u32,
        /// `(tree node index, sender's subtree hash)` pairs, at most
        /// [`crate::merkle::PROBE_BATCH`] per message.
        probes: Vec<(u32, u64)>,
    },
    /// Dense fallback for one mismatching leaf range: the sender's
    /// per-slot stamps for `[start, start + stamps.len())`.
    RangeSyn {
        /// The sender's store arity (validated by the receiver).
        n: u32,
        /// First slot of the range.
        start: u32,
        /// Per-slot stamps (`0` = absent), one per slot in the range.
        stamps: Vec<u64>,
    },
    /// The range repair: entries of the range the [`RangeSyn`](Self::RangeSyn)
    /// sender lacked, plus a want word naming the slots the responder
    /// needs back, which the initiator answers with a [`Delta`](Self::Delta)
    /// of its current entries there. The responder has already compared
    /// the two ranges, so it does not echo its own stamps.
    RangeAck {
        /// The responder's store arity (validated by the receiver).
        n: u32,
        /// First slot of the range.
        start: u32,
        /// Slots in the range: the range-syn's length, at most
        /// [`MAX_RANGE_SLOTS`].
        len: u8,
        /// Bit k set: the responder holds nothing at slot `start + k`, or
        /// an older stamp than the range-syn claimed. No bit at or beyond
        /// `len`.
        want: u64,
        /// Entries the range-syn's stamps were missing.
        delta: Vec<(NodeId, Entry)>,
    },
}

impl AeMsg {
    /// Number of message kinds (legs).
    pub const LEGS: usize = 7;

    /// Each leg's metric label, indexed by [`AeMsg::leg`].
    pub const LEG_NAMES: [&'static str; AeMsg::LEGS] = [
        "syn_req",
        "syn_ack",
        "delta",
        "merkle_syn",
        "merkle_probe",
        "range_syn",
        "range_ack",
    ];

    /// This message's leg: its variant's index in declaration order.
    pub fn leg(&self) -> usize {
        match self {
            AeMsg::SynReq { .. } => 0,
            AeMsg::SynAck { .. } => 1,
            AeMsg::Delta { .. } => 2,
            AeMsg::MerkleSyn { .. } => 3,
            AeMsg::MerkleProbe { .. } => 4,
            AeMsg::RangeSyn { .. } => 5,
            AeMsg::RangeAck { .. } => 6,
        }
    }
}

/// Per-node protocol counters (diagnostics; not part of the wire state).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AeNodeStats {
    /// Anti-entropy ticks fired.
    pub ticks: u64,
    /// Exchanges initiated: openers sent, a `SynReq` each in dense mode
    /// and a `MerkleSyn` each in Merkle mode.
    pub syn_sent: u64,
    /// Entries adopted from peers' deltas.
    pub entries_adopted: u64,
    /// Local signal re-stamps.
    pub self_updates: u64,
    /// Malformed reconciliation input dropped: digest arity mismatches,
    /// out-of-range or unsorted digest pairs, out-of-range delta origins,
    /// zero stamps, probe indices outside the tree. Hostile or
    /// version-skewed traffic lands here instead of panicking the node or
    /// amplifying its sends.
    pub digest_mismatches: u64,
    /// Messages sent, per leg (indexed by [`AeMsg::leg`]).
    pub leg_messages: [u64; AeMsg::LEGS],
    /// Modelled bits sent, per leg (indexed by [`AeMsg::leg`]).
    pub leg_bits: [u64; AeMsg::LEGS],
}

impl AeNodeStats {
    /// Count one sent message of `bits` modelled bits against its leg.
    fn sent(&mut self, msg: &AeMsg, bits: u32) {
        self.leg_messages[msg.leg()] += 1;
        self.leg_bits[msg.leg()] += u64::from(bits);
    }
}

/// The widths the modelled wire charges for an origin id and a value
/// (stamps travel as [`StampRun`]s; tags, arities, tree indices and hashes
/// have fixed widths). Split from [`AeNode`] so a reply can be sized while
/// the node's store and tree are lent to the reconciliation engine.
#[derive(Clone, Copy, Debug)]
struct BitModel {
    id_bits: u32,
    value_bits: u32,
}

/// Bits that name one slot of a `len`-slot range: ⌈log₂ len⌉.
fn offset_bits(len: u8) -> u32 {
    u8::BITS - len.saturating_sub(1).leading_zeros()
}

impl BitModel {
    /// Modelled wire size of a digest: tag byte + arity + one origin per
    /// pair actually carried + the run of their stamps — the sparse form
    /// both the model and the real wire use, so the two agree pair for
    /// pair (the loopback suite pins the byte-level counterpart).
    fn digest_bits(&self, digest: &SparseDigest) -> u32 {
        8 + 32
            + digest.len() as u32 * self.id_bits
            + StampRun::of_pairs(digest).model_bits(digest.len())
    }

    fn delta_bits(&self, delta: &[(NodeId, Entry)]) -> u32 {
        8 + self.entries_bits(delta, self.id_bits)
    }

    /// A delta's entries, each origin at `origin_bits`: origins, values
    /// and the run of their stamps.
    fn entries_bits(&self, delta: &[(NodeId, Entry)], origin_bits: u32) -> u32 {
        delta.len() as u32 * (origin_bits + self.value_bits)
            + StampRun::of_entries(delta).model_bits(delta.len())
    }

    /// Honest modelled bits for any leg of either protocol: every field
    /// the wire encodes is charged — tags, arities and range lengths at
    /// their wire width, origins at the model's `id_bits` (at ⌈log₂ len⌉
    /// inside a range ack), stamp runs at [`StampRun::model_bits`], values
    /// at `value_bits`, tree-node indices and hashes at their wire widths.
    fn msg_bits(&self, msg: &AeMsg) -> u32 {
        match msg {
            AeMsg::SynReq { digest, .. } => self.digest_bits(digest),
            AeMsg::SynAck { delta, digest, .. } => {
                self.delta_bits(delta) + self.digest_bits(digest)
            }
            AeMsg::Delta { delta } => self.delta_bits(delta),
            AeMsg::MerkleSyn { .. } => 8 + 32 + 64,
            AeMsg::MerkleProbe { probes, .. } => 8 + 32 + probes.len() as u32 * (32 + 64),
            AeMsg::RangeSyn { stamps, .. } => {
                8 + 32 + 32 + 8 + StampRun::of_stamps(stamps).model_bits(stamps.len())
            }
            AeMsg::RangeAck { len, delta, .. } => {
                8 + 32 + 32 + 8 + 64 + self.entries_bits(delta, offset_bits(*len))
            }
        }
    }
}

/// One node of the anti-entropy layer. Implements [`Handler`]; host it with
/// [`ae_driver`] (or any [`ShardedDriver`]).
#[derive(Clone, Debug)]
pub struct AeNode {
    me: NodeId,
    bits: BitModel,
    config: AeConfig,
    store: Store,
    /// The digest tree, maintained incrementally on every adoption
    /// (`Some` iff `config.digest_mode` is [`DigestMode::Merkle`]).
    tree: Option<DigestTree>,
    /// Diagnostic counters.
    pub stats: AeNodeStats,
    /// Anti-entropy ticks since the last adoption from a peer: the
    /// convergence lag. A node that keeps ticking without adopting is
    /// either converged or partitioned; the staleness histogram below
    /// tells the two apart.
    ticks_since_adopt: u64,
    /// Wall/virtual time of the last adoption (`None` before the first).
    last_adopt_us: Option<u64>,
    /// Distribution of entry staleness (`now - stamp`, µs) over every
    /// known entry, sampled once per tick. Converged stores cluster at
    /// the update cadence; a stale node grows a long tail.
    staleness: gossip_obs::Histogram,
}

impl AeNode {
    /// A node with an empty store (what a fresh boot — or a rejoiner —
    /// knows: nothing). `id_bits`/`value_bits` size the modelled wire
    /// messages. Panics when `config.merkle_fallback_slots` is 0 or above
    /// [`MAX_RANGE_SLOTS`].
    pub fn new(me: NodeId, n: usize, id_bits: u32, value_bits: u32, config: AeConfig) -> Self {
        check_fallback_slots(config.merkle_fallback_slots);
        let store = Store::new(n);
        let tree = match config.digest_mode {
            DigestMode::Dense => None,
            DigestMode::Merkle => Some(DigestTree::new(&store, config.merkle_fallback_slots)),
        };
        AeNode {
            me,
            bits: BitModel {
                id_bits,
                value_bits,
            },
            config,
            store,
            tree,
            stats: AeNodeStats::default(),
            ticks_since_adopt: 0,
            last_adopt_us: None,
            staleness: gossip_obs::Histogram::new(),
        }
    }

    /// The node's replicated store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Inject one entry directly into the store (digest tree kept
    /// current). Bootstrap/test plumbing — a deployment that warm-starts a
    /// node from a checkpoint does exactly this; live reconciliation never
    /// needs it. Panics on an out-of-range origin or a zero stamp.
    pub fn seed_entry(&mut self, origin: NodeId, entry: Entry) {
        assert!(origin.index() < self.store.n(), "origin outside the store");
        assert!(entry.stamp >= 1, "stamp 0 is the digest code for absent");
        self.merge_one(origin, entry);
    }

    /// Merge one entry outside a delta (a seed, a local re-stamp), keeping
    /// the digest tree current in O(log n).
    fn merge_one(&mut self, origin: NodeId, entry: Entry) {
        let old = self.store.get(origin).map_or(0, |held| held.stamp);
        if self.store.merge(origin, entry) {
            if let Some(tree) = &mut self.tree {
                tree.restamp(origin, old, entry.stamp);
            }
        }
    }

    /// The node's current estimate of the network-wide signal mean: the
    /// mean over fresh entries (see [`AeConfig::expiry_us`]). `None` before
    /// the first stamp — which cannot happen after `on_start` ran.
    pub fn estimate(&self, now_us: u64) -> Option<f64> {
        self.store.mean_fresh(now_us, self.config.expiry_us)
    }

    /// Re-stamp this node's own entry with the signal's current value.
    fn refresh_own(&mut self, now_us: u64) {
        let entry = Entry {
            stamp: now_us.max(1),
            value: self.config.signal.value(self.me, now_us),
        };
        self.merge_one(self.me, entry);
    }

    /// The exchange opener this node's digest mode sends on its tick.
    fn opener(&self) -> AeMsg {
        let n = self.store.n() as u32;
        match &self.tree {
            None => AeMsg::SynReq {
                n,
                digest: self.store.sparse_digest(),
            },
            Some(tree) => AeMsg::MerkleSyn {
                n,
                root: tree.root(),
            },
        }
    }
}

impl Handler for AeNode {
    type Msg = AeMsg;

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<AeMsg>) {
        self.refresh_own(mailbox.now_us());
        mailbox.set_timer(stagger_us(self.me, self.config.tick_us, 0xA17), TIMER_TICK);
        if self.config.update_us > 0 {
            mailbox.set_timer(
                stagger_us(self.me, self.config.update_us, 0x5D7),
                TIMER_UPDATE,
            );
        }
    }

    fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<AeMsg>) {
        match timer {
            TIMER_TICK => {
                self.stats.ticks += 1;
                self.ticks_since_adopt += 1;
                let now_us = mailbox.now_us();
                for i in 0..self.store.n() {
                    if let Some(entry) = self.store.get(NodeId::new(i)) {
                        self.staleness.record(now_us.saturating_sub(entry.stamp));
                    }
                }
                let opener = self.opener();
                let bits = self.bits.msg_bits(&opener);
                let peer = mailbox.sample_peer();
                self.stats.syn_sent += 1;
                self.stats.sent(&opener, bits);
                mailbox.send(peer, Phase::AntiEntropy, bits, opener);
                mailbox.set_timer(self.config.tick_us, TIMER_TICK);
            }
            TIMER_UPDATE => {
                self.stats.self_updates += 1;
                self.refresh_own(mailbox.now_us());
                mailbox.set_timer(self.config.update_us, TIMER_UPDATE);
            }
            other => debug_assert!(false, "unknown timer {other}"),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: AeMsg, mailbox: &mut dyn Mailbox<AeMsg>) {
        // Validation, merging and reply construction all live in the
        // reconciliation engine (`crate::merkle::reconcile_into`); this
        // callback is the I/O shim: charge honest modelled bits per reply
        // and ship it the moment the engine produces it, fold the counters.
        let bits = self.bits;
        let stats = &mut self.stats;
        let tally = reconcile_into(
            &mut self.store,
            self.tree.as_mut(),
            self.config.merkle_fallback_slots,
            &msg,
            |reply| {
                let reply_bits = bits.msg_bits(&reply);
                stats.sent(&reply, reply_bits);
                mailbox.send(from, Phase::AntiEntropy, reply_bits, reply);
            },
        );
        self.stats.entries_adopted += tally.adopted as u64;
        self.stats.digest_mismatches += tally.invalid as u64;
        if tally.adopted > 0 {
            self.ticks_since_adopt = 0;
            self.last_adopt_us = Some(mailbox.now_us());
        }
    }

    fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        registry.add_counter(
            "ae_ticks_total",
            "Anti-entropy ticks fired",
            &[],
            self.stats.ticks,
        );
        registry.add_counter(
            "ae_syn_sent_total",
            "Anti-entropy exchanges initiated",
            &[],
            self.stats.syn_sent,
        );
        registry.add_counter(
            "ae_entries_adopted_total",
            "Entries adopted from peers' deltas",
            &[],
            self.stats.entries_adopted,
        );
        registry.add_counter(
            "ae_self_updates_total",
            "Local signal re-stamps",
            &[],
            self.stats.self_updates,
        );
        registry.add_counter(
            "ae_digest_mismatches_total",
            "Malformed reconciliation input dropped",
            &[],
            self.stats.digest_mismatches,
        );
        for (leg, name) in AeMsg::LEG_NAMES.iter().enumerate() {
            let labels = [("leg", *name)];
            registry.add_counter(
                "ae_leg_messages_total",
                "Anti-entropy messages sent, by leg",
                &labels,
                self.stats.leg_messages[leg],
            );
            registry.add_counter(
                "ae_leg_bits_total",
                "Modelled anti-entropy bits sent, by leg",
                &labels,
                self.stats.leg_bits[leg],
            );
        }
        registry.add_gauge(
            "ae_store_known",
            "Origins with a known entry, summed over local handlers",
            &[],
            self.store.known() as f64,
        );
        registry.add_gauge(
            "ae_convergence_lag",
            "Anti-entropy ticks since the last adoption from a peer",
            &[],
            self.ticks_since_adopt as f64,
        );
        registry.add_gauge(
            "ae_last_adopt_us",
            "Timestamp of the last adoption from a peer (µs; 0 before the first)",
            &[],
            self.last_adopt_us.unwrap_or(0) as f64,
        );
        registry.merge_histogram(
            "ae_staleness_age_us",
            "Entry staleness (now - stamp, µs) over known entries, sampled per tick",
            &[],
            &self.staleness,
        );
    }

    fn status_lines(&self, now_us: u64) -> Vec<(String, String)> {
        let mut lines = vec![
            (
                "ae.store".to_string(),
                format!("{}/{} origins known", self.store.known(), self.store.n()),
            ),
            (
                "ae.estimate".to_string(),
                match self.estimate(now_us) {
                    Some(e) => format!("{e:.3}"),
                    None => "-".to_string(),
                },
            ),
            (
                "ae.ticks".to_string(),
                format!(
                    "{} ({} exchanges, {} adoptions)",
                    self.stats.ticks, self.stats.syn_sent, self.stats.entries_adopted
                ),
            ),
            (
                "ae.convergence".to_string(),
                match self.last_adopt_us {
                    Some(at) => format!(
                        "lag {} ticks, last adoption {:.1}s ago",
                        self.ticks_since_adopt,
                        now_us.saturating_sub(at) as f64 / 1e6
                    ),
                    None => format!("lag {} ticks, no adoptions yet", self.ticks_since_adopt),
                },
            ),
        ];
        if self.stats.digest_mismatches > 0 {
            lines.push((
                "ae.digest_mismatches".to_string(),
                self.stats.digest_mismatches.to_string(),
            ));
        }
        lines
    }
}

/// Host the anti-entropy layer on the sharded engine: one [`AeNode`] per
/// node, the node space split into `shards` shards with per-shard event
/// queues and per-node RNG streams (see `gossip_runtime::shard`), so the
/// same handler runs from n = 16 to n ≥ 10⁶. Rejoiners restart empty (the
/// driver's incarnation contract). The driver's churn window is aligned
/// with the anti-entropy tick, so the engine's per-round churn
/// probabilities read as per-*tick* probabilities. Runs are shard-count
/// invariant.
pub fn ae_driver(
    engine_config: AsyncConfig,
    ae_config: AeConfig,
    shards: usize,
) -> ShardedDriver<AeNode> {
    let n = engine_config.sim.n;
    let id_bits = engine_config.sim.id_bits();
    let value_bits = engine_config.sim.value_bits();
    ShardedDriver::new(engine_config, shards, move |me| {
        AeNode::new(me, n, id_bits, value_bits, ae_config)
    })
    .with_window_us(ae_config.tick_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::SimConfig;
    use gossip_runtime::{ChurnModel, LatencyModel};

    fn driver(n: usize, seed: u64, loss: f64, churn: ChurnModel) -> ShardedDriver<AeNode> {
        let config = AsyncConfig::new(
            SimConfig::new(n)
                .with_seed(seed)
                .with_loss_prob(loss)
                .with_value_range(10_000.0),
        )
        .with_latency(LatencyModel::Uniform {
            lo_us: 200,
            hi_us: 1_200,
        })
        .with_churn(churn);
        ae_driver(config, AeConfig::default(), 1)
    }

    fn max_error(driver: &ShardedDriver<AeNode>, at_us: u64) -> f64 {
        let signal = driver.handler(NodeId::new(0)).config.signal;
        let alive: Vec<NodeId> = driver.alive_nodes().collect();
        let truth = signal.true_mean(alive.iter().copied(), at_us).unwrap();
        alive
            .iter()
            .map(|&v| {
                let est = driver.handler(v).estimate(at_us);
                est.map_or(f64::INFINITY, |e| ((e - truth) / truth).abs())
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn every_node_converges_to_the_true_mean() {
        let mut d = driver(48, 3, 0.02, ChurnModel::none());
        d.run_until(200_000);
        let err = max_error(&d, 200_000);
        assert!(err < 1e-9, "static signal fully reconciles, err = {err}");
        // Everyone knows everyone.
        for (_, h) in d.iter_handlers() {
            assert_eq!(h.store().known(), 48);
        }
    }

    #[test]
    fn estimates_track_a_drifting_signal() {
        let n = 32;
        let config = AsyncConfig::new(SimConfig::new(n).with_seed(5).with_value_range(10_000.0))
            .with_latency(LatencyModel::Constant(500));
        let ae = AeConfig::default()
            .with_update_us(8_000)
            .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(5_000.0));
        let mut d = ae_driver(config, ae, 1);
        d.run_until(400_000);
        // Truth moved by 2000 units (0.4 s × 5000/s); estimates follow
        // within the staleness of one update interval of drift.
        let signal = ae.signal;
        let truth = signal.true_mean((0..n).map(NodeId::new), 400_000).unwrap();
        for (node, h) in d.iter_handlers() {
            let est = h.estimate(400_000).expect("estimate exists");
            let err = ((est - truth) / truth).abs();
            assert!(err < 0.02, "node {node:?}: est {est} vs truth {truth}");
        }
    }

    #[test]
    fn a_rejoiner_recovers_from_an_empty_store() {
        // Churn on: nodes crash mid-run and rejoin with nothing, while the
        // protocol keeps running. Recovery is judged against the *reference
        // estimate* — the mean a fully-synced replica (the union of all
        // alive stores) holds — because under ongoing churn the ground
        // truth moves with membership faster than any protocol without a
        // failure detector can track.
        let mut d = driver(64, 11, 0.02, ChurnModel::per_round(0.01, 0.15));
        d.run_until(270_000);
        let now = d.now_us();
        let rejoins = d.rejoin_log().len();
        assert!(rejoins > 0, "churn produced rejoins");

        // The union of all alive stores: what anti-entropy is converging to
        // (the same reference RecoveryTracker and E17 measure against).
        let reference = crate::recovery::reference_store(&d);
        let expiry = AeConfig::default().expiry_us;
        let truth = reference.mean_fresh(now, expiry).expect("reference known");

        // Every alive node that has had ≥ 15 ticks since its last rejoin
        // (or since boot) must sit within 1% of the reference.
        let grace = 15 * AeConfig::default().tick_us;
        let mut last_rejoin = vec![0u64; 64];
        for &(t, node) in d.rejoin_log() {
            last_rejoin[node.index()] = t;
        }
        let mut checked = 0;
        for v in d.alive_nodes() {
            if now - last_rejoin[v.index()] < grace {
                continue;
            }
            let est = d.handler(v).estimate(now).expect("settled node informed");
            let err = ((est - truth) / truth).abs();
            assert!(err < 0.01, "node {v:?}: est {est} vs reference {truth}");
            checked += 1;
        }
        assert!(checked > 32, "most of the network is settled ({checked})");
    }

    #[test]
    fn sharded_host_reconciles_and_is_shard_count_invariant() {
        // A static signal must fully reconcile at any shard count, and the
        // run — order hash, store contents, estimates — must not depend on
        // it.
        let build = |shards| {
            let config = AsyncConfig::new(
                SimConfig::new(48)
                    .with_seed(3)
                    .with_loss_prob(0.02)
                    .with_value_range(10_000.0),
            )
            .with_latency(LatencyModel::Uniform {
                lo_us: 200,
                hi_us: 1_200,
            })
            .with_churn(ChurnModel::per_round(0.005, 0.15));
            ae_driver(config, AeConfig::default(), shards)
        };
        let run = |shards| {
            let mut d = build(shards);
            d.run_until(200_000);
            let estimates: Vec<u64> = d
                .iter_handlers()
                .map(|(_, h)| h.estimate(200_000).unwrap_or(f64::NAN).to_bits())
                .collect();
            let known: Vec<usize> = d.iter_handlers().map(|(_, h)| h.store().known()).collect();
            (d.order_hash(), estimates, known)
        };
        let reference = run(1);
        assert_eq!(reference, run(2), "2 shards diverged");
        assert_eq!(reference, run(8), "8 shards diverged");

        // And without churn the static signal fully reconciles.
        let config = AsyncConfig::new(
            SimConfig::new(48)
                .with_seed(3)
                .with_loss_prob(0.02)
                .with_value_range(10_000.0),
        )
        .with_latency(LatencyModel::Uniform {
            lo_us: 200,
            hi_us: 1_200,
        });
        let mut d = ae_driver(config, AeConfig::default(), 8);
        d.run_until(200_000);
        let signal = d.handler(NodeId::new(0)).config.signal;
        let truth = signal.true_mean((0..48).map(NodeId::new), 200_000).unwrap();
        for (node, h) in d.iter_handlers() {
            assert_eq!(h.store().known(), 48, "node {node:?} store incomplete");
            let est = h.estimate(200_000).expect("informed");
            assert!(
                ((est - truth) / truth).abs() < 1e-9,
                "node {node:?}: est {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn exchange_is_loss_tolerant() {
        let mut d = driver(32, 7, 0.3, ChurnModel::none());
        d.run_until(300_000);
        let err = max_error(&d, 300_000);
        assert!(
            err < 1e-9,
            "30% loss only slows reconciliation, err = {err}"
        );
    }

    #[test]
    fn message_sizes_scale_with_content() {
        let n = 16;
        let node = AeNode::new(NodeId::new(0), n, 4, 24, AeConfig::default());
        // A run: the base at STAMP_BITS, a width byte, w bits per code.
        let run = |k: u32, w: u32| crate::STAMP_BITS + 8 + k * w;
        let empty: SparseDigest = Vec::new();
        assert_eq!(
            node.bits.digest_bits(&empty),
            8 + 32,
            "empty digest is tag + arity, no run"
        );
        let full: SparseDigest = (0..n).map(|i| (NodeId::new(i), 1)).collect();
        assert_eq!(node.bits.digest_bits(&full), 8 + 32 + 16 * 4 + run(16, 1));
        let spread: SparseDigest = vec![(NodeId::new(2), 1_000), (NodeId::new(9), 1_006)];
        assert_eq!(
            node.bits.digest_bits(&spread),
            8 + 32 + 2 * 4 + run(2, 3),
            "codes 1 and 7 take 3 bits"
        );
        let delta = vec![(
            NodeId::new(1),
            Entry {
                stamp: 1,
                value: 2.0,
            },
        )];
        assert_eq!(node.bits.delta_bits(&delta), 8 + (4 + 24) + run(1, 1));
        // The Merkle legs: constant opener, per-pair probes, per-slot
        // ranges — none of them a function of n.
        assert_eq!(
            node.bits.msg_bits(&AeMsg::MerkleSyn { n: 16, root: 0 }),
            104
        );
        assert_eq!(
            node.bits.msg_bits(&AeMsg::MerkleProbe {
                n: 16,
                probes: vec![(1, 2), (2, 3)],
            }),
            8 + 32 + 2 * 96
        );
        assert_eq!(
            node.bits.msg_bits(&AeMsg::RangeSyn {
                n: 16,
                start: 0,
                stamps: vec![1, 0, 2],
            }),
            8 + 64 + 8 + run(3, 2)
        );
        assert_eq!(
            node.bits.msg_bits(&AeMsg::RangeSyn {
                n: 16,
                start: 0,
                stamps: vec![0; 3],
            }),
            8 + 64 + 8 + run(3, 0),
            "an all-absent range pays the run header only"
        );
        // A range ack names its slots in ⌈log₂ len⌉ bits: 2 for 3 slots.
        assert_eq!(
            node.bits.msg_bits(&AeMsg::RangeAck {
                n: 16,
                start: 0,
                len: 3,
                want: 0b101,
                delta: delta.clone(),
            }),
            8 + 32 + 32 + 8 + 64 + (2 + 24) + run(1, 1)
        );
        assert_eq!(
            [1, 2, 3, 4, 5, 32, 33, 64].map(offset_bits),
            [0, 1, 2, 2, 3, 5, 6, 6]
        );
    }

    #[test]
    fn merkle_mode_reconciles_and_matches_dense_results() {
        // The same configuration in both digest modes, with a *static*
        // signal (the two modes send different message counts, so the
        // engine's loss/latency draws diverge — only the quiesced fixed
        // point is mode-independent): both must fully reconcile to
        // identical stores, boot stamps and all.
        let build = |mode| {
            let config = AsyncConfig::new(
                SimConfig::new(48)
                    .with_seed(3)
                    .with_loss_prob(0.02)
                    .with_value_range(10_000.0),
            )
            .with_latency(LatencyModel::Uniform {
                lo_us: 200,
                hi_us: 1_200,
            });
            ae_driver(
                config,
                AeConfig::default()
                    .with_update_us(0)
                    .with_digest_mode(mode)
                    .with_merkle_fallback_slots(8),
                1,
            )
        };
        let run = |mode| {
            let mut d = build(mode);
            d.run_until(200_000);
            let stores: Vec<Store> = d.iter_handlers().map(|(_, h)| h.store().clone()).collect();
            let mismatches: u64 = d
                .iter_handlers()
                .map(|(_, h)| h.stats.digest_mismatches)
                .sum();
            let bits = d.net_metrics().total_bits();
            (stores, mismatches, bits)
        };
        let (dense_stores, dense_mismatches, dense_bits) = run(DigestMode::Dense);
        let (merkle_stores, merkle_mismatches, merkle_bits) = run(DigestMode::Merkle);
        for s in &merkle_stores {
            assert_eq!(s.known(), 48, "merkle mode fully reconciles");
        }
        assert_eq!(
            dense_stores, merkle_stores,
            "digest mode changes cost, not outcome"
        );
        assert_eq!(dense_mismatches, 0);
        assert_eq!(merkle_mismatches, 0, "honest traffic is never dropped");
        assert!(
            merkle_bits < dense_bits,
            "hash descent beats flat digests even at n = 48 \
             (merkle {merkle_bits} vs dense {dense_bits} bits)"
        );
    }

    #[test]
    fn merkle_mode_rejoiners_recover_from_an_empty_store() {
        // The E17 churn scenario with hash-tree digests: rejoiners restart
        // with an empty store *and a blank tree* and must still pull the
        // state back (the factory rebuilds both — the driver's
        // fresh-incarnation contract).
        let config = AsyncConfig::new(
            SimConfig::new(64)
                .with_seed(11)
                .with_loss_prob(0.02)
                .with_value_range(10_000.0),
        )
        .with_latency(LatencyModel::Uniform {
            lo_us: 200,
            hi_us: 1_200,
        })
        .with_churn(ChurnModel::per_round(0.01, 0.15));
        let ae = AeConfig::default()
            .with_digest_mode(DigestMode::Merkle)
            .with_merkle_fallback_slots(8);
        let mut d = ae_driver(config, ae, 1);
        d.run_until(270_000);
        let now = d.now_us();
        assert!(!d.rejoin_log().is_empty(), "churn produced rejoins");
        let reference = crate::recovery::reference_store(&d);
        let truth = reference.mean_fresh(now, ae.expiry_us).expect("known");
        let grace = 15 * ae.tick_us;
        let mut last_rejoin = vec![0u64; 64];
        for &(t, node) in d.rejoin_log() {
            last_rejoin[node.index()] = t;
        }
        let mut checked = 0;
        for v in d.alive_nodes() {
            if now - last_rejoin[v.index()] < grace {
                continue;
            }
            let est = d.handler(v).estimate(now).expect("settled node informed");
            assert!(
                ((est - truth) / truth).abs() < 0.01,
                "node {v:?}: est {est} vs reference {truth}"
            );
            checked += 1;
        }
        assert!(checked > 32, "most of the network is settled ({checked})");
    }

    #[test]
    fn runs_reproduce_bit_for_bit() {
        let run = |seed| {
            let mut d = driver(40, seed, 0.05, ChurnModel::per_round(0.02, 0.2));
            d.run_until(120_000);
            let stores: Vec<Store> = d.iter_handlers().map(|(_, h)| h.store().clone()).collect();
            (
                stores,
                d.order_hash(),
                d.net_metrics().total_messages(),
                d.alive_count(),
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1, run(10).1);
    }
}
