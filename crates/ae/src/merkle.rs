//! Merkle-style digest trees: O(log n) anti-entropy digests.
//!
//! The dense digest exchange is O(n) stamps per exchange *even when nothing
//! changed* — at n ≳ 10,000 a digest no longer fits one UDP datagram, so
//! the socket host cannot run anti-entropy at the scales the sharded
//! engine simulates. This module replaces the flat digest with a hash tree
//! and a multi-round **descent**:
//!
//! 1. **Root exchange** — the initiator sends [`AeMsg::MerkleSyn`]: its
//!    tree's root hash (plus the store arity, validated like every other
//!    digest). Identical replicas answer with silence: the steady-state
//!    exchange is one constant-size datagram.
//! 2. **Subtree probes** — on a root mismatch the responder answers with
//!    [`AeMsg::MerkleProbe`]: the hashes of the mismatching node's two
//!    children. The receiver compares each against its own tree and
//!    descends another level for the ones that differ. Each probe leg
//!    narrows the difference by one level, so a single stale entry is
//!    located in ⌈log₂(n / fallback)⌉ legs of ~2 hashes each.
//! 3. **Leaf-range fallback** — once a mismatching subtree spans at most
//!    [`AeConfig::merkle_fallback_slots`](crate::AeConfig) slots, hashes
//!    stop paying for themselves and the classic dense exchange finishes
//!    the job, restricted to that range: [`AeMsg::RangeSyn`] carries the
//!    range's per-slot stamps, [`AeMsg::RangeAck`] answers with the
//!    entries the sender lacked plus a want word — one bit per slot where
//!    the responder holds nothing or an older stamp than claimed — and the
//!    ordinary [`AeMsg::Delta`] third leg sends the initiator's current
//!    entries at the wanted slots. The responder has already compared the
//!    two ranges, so it says what it lacks instead of echoing its stamps
//!    for the initiator to compare again; a slot the initiator learned
//!    after its `RangeSyn` still travels, because an empty slot is always
//!    wanted. Because every repair travels in fallback-sized ranges,
//!    **no message grows with n** — a rejoiner's full re-sync crosses the
//!    wire as many datagram-sized range repairs instead of one impossible
//!    65 KB+ delta.
//!
//! Every leg is stateless, so the protocol inherits the dense exchange's
//! loss story: a dropped leg costs nothing but the next tick's root
//! exchange. Hashes are 64-bit [`mix64`] mixes — collision-*resistant*
//! against drift and churn, not against an adversary crafting preimages
//! (an unkeyed socket host trusts its peers at simulation grade, and a
//! keyed one drops a forged frame before its payload decodes; see
//! `DESIGN.md` §6).
//!
//! A leaf's hash is **additive**: a seed plus the wrapping sum of one term
//! per held slot, each term a mix of the slot's position and its stamp
//! (an absent slot adds nothing). So [`DigestTree`] is maintained
//! **incrementally** at O(1) per adopted entry: merging an entry swaps its
//! slot's old term for the new one in the leaf hash, and each leaf a
//! delivered delta touches has its root path recomputed once, when the
//! delta moves on to the next leaf or ends — O(1) per adopted entry plus
//! O(log n) per touched leaf, with no leaf scan and nothing O(n) per
//! exchange. A range repair touches one leaf however many entries it
//! carries.
//!
//! The hash is not part of the wire format, but replicas only agree on a
//! root when they compute it alike. A peer that folds its leaves the old
//! way (a chained mix over every slot of the span) still converges with
//! this one: its roots and subtree hashes never match, so every exchange
//! descends to the leaf ranges and repairs through [`AeMsg::RangeSyn`],
//! whose per-slot stamps are version-free. What the mixed pair loses is
//! the silent-root steady state — each exchange costs a full descent.

use crate::protocol::AeMsg;
use crate::store::{sparse_digest_well_formed, Entry, Store};
use gossip_net::{mix64, NodeId};

/// Hash of a subtree that covers no slots (padding beyond `n` in the
/// power-of-two leaf layer). Constant on both sides, so padding never
/// triggers a descent.
const EMPTY_HASH: u64 = 0;

/// Seed of a leaf hash (distinct from [`EMPTY_HASH`] so "leaf with no
/// entries" and "padding" still compare equal only to themselves).
const LEAF_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Largest number of `(node index, hash)` pairs one [`AeMsg::MerkleProbe`]
/// carries; wider probe fronts split across messages so no descent leg can
/// outgrow a datagram (512 × 12 B ≈ 6 KB of payload).
pub const PROBE_BATCH: usize = 512;

/// Widest range a repair may span: an [`AeMsg::RangeAck`]'s want word has
/// one bit per slot of a `u64`. `merkle_fallback_slots` is capped here.
pub const MAX_RANGE_SLOTS: usize = 64;

/// An incrementally-maintained hash tree over a [`Store`]'s slots.
///
/// Leaves cover `leaf_span` consecutive slots each; the leaf layer is
/// padded to a power of two (padding hashes to a constant) and parents
/// combine child hashes position-sensitively. Equal stamp vectors ⇒ equal
/// trees, and — modulo 64-bit hash collisions — differing stamp vectors
/// differ along every root-to-difference path, which is what the descent
/// walks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestTree {
    n: usize,
    leaf_span: usize,
    /// Number of leaves (power of two ≥ ⌈n / leaf_span⌉).
    leaves: usize,
    /// Implicit binary heap: root at 0, children of `i` at `2i+1`, `2i+2`,
    /// leaves at `leaves-1 ..`.
    hashes: Vec<u64>,
}

impl DigestTree {
    /// Build the tree for `store`, with leaves of `leaf_span` slots.
    pub fn new(store: &Store, leaf_span: usize) -> Self {
        assert!(leaf_span >= 1, "leaf span must be at least 1 slot");
        let n = store.n();
        let leaves = n.div_ceil(leaf_span).next_power_of_two().max(1);
        let mut tree = DigestTree {
            n,
            leaf_span,
            leaves,
            hashes: vec![EMPTY_HASH; 2 * leaves - 1],
        };
        tree.rebuild(store);
        tree
    }

    /// Number of tree nodes (what a probe's node index must stay below).
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the tree has no nodes (never — a tree always has a root).
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The root hash — the whole store's digest, 8 bytes.
    pub fn root(&self) -> u64 {
        self.hashes[0]
    }

    /// The hash of tree node `idx`.
    pub fn hash(&self, idx: usize) -> u64 {
        self.hashes[idx]
    }

    /// Whether `idx` is in the leaf layer.
    pub fn is_leaf(&self, idx: usize) -> bool {
        idx >= self.leaves - 1
    }

    /// Whether a mismatch at `idx` is answered by probing its children
    /// rather than by a dense range: an internal node covering more than
    /// `fallback_slots` slots.
    fn splits(&self, idx: usize, fallback_slots: usize) -> bool {
        !self.is_leaf(idx) && self.slot_range(idx).1 > fallback_slots
    }

    /// The slot range `(start, len)` tree node `idx` covers, clamped to
    /// the store: padding subtrees report `len == 0`.
    pub fn slot_range(&self, idx: usize) -> (usize, usize) {
        debug_assert!(idx < self.hashes.len());
        let (mut first, mut last) = (idx, idx);
        while first < self.leaves - 1 {
            first = 2 * first + 1;
            last = 2 * last + 2;
        }
        let start = (first - (self.leaves - 1)) * self.leaf_span;
        let end = ((last - (self.leaves - 1)) + 1) * self.leaf_span;
        let start = start.min(self.n);
        (start, end.min(self.n) - start)
    }

    /// Recompute every hash from `store` (initialisation, bulk loads).
    pub fn rebuild(&mut self, store: &Store) {
        debug_assert_eq!(store.n(), self.n, "tree built over a different arity");
        for leaf in 0..self.leaves {
            let idx = self.leaves - 1 + leaf;
            self.hashes[idx] = self.leaf_hash(leaf, store);
        }
        for idx in (0..self.leaves - 1).rev() {
            self.hashes[idx] = combine(self.hashes[2 * idx + 1], self.hashes[2 * idx + 2]);
        }
    }

    /// Re-hash the leaf covering `origin` from `store`, and its root path —
    /// for callers that merged into that leaf's slots without telling the
    /// tree which stamps changed. O(leaf_span + log n).
    pub fn refresh(&mut self, origin: NodeId, store: &Store) {
        debug_assert_eq!(store.n(), self.n, "tree built over a different arity");
        let leaf = self.leaf_of(origin);
        self.hashes[self.leaves - 1 + leaf] = self.leaf_hash(leaf, store);
        self.rehash_path(leaf);
    }

    /// Record that `origin`'s stamp went from `old` to `new` (`0` =
    /// absent), and recompute the root path. O(log n), no leaf scan.
    pub(crate) fn restamp(&mut self, origin: NodeId, old: u64, new: u64) {
        let leaf = self.restamp_leaf(origin, old, new);
        self.rehash_path(leaf);
    }

    /// Swap `origin`'s term in its leaf hash from stamp `old` to `new`,
    /// leaving the leaf's root path stale; returns the leaf. O(1).
    fn restamp_leaf(&mut self, origin: NodeId, old: u64, new: u64) -> usize {
        let leaf = self.leaf_of(origin);
        let slot = origin.index();
        let h = &mut self.hashes[self.leaves - 1 + leaf];
        *h = h
            .wrapping_sub(slot_term(slot, old))
            .wrapping_add(slot_term(slot, new));
        leaf
    }

    /// Recompute the hashes on `leaf`'s path to the root. O(log n).
    fn rehash_path(&mut self, leaf: usize) {
        let mut idx = self.leaves - 1 + leaf;
        while idx > 0 {
            idx = (idx - 1) / 2;
            self.hashes[idx] = combine(self.hashes[2 * idx + 1], self.hashes[2 * idx + 2]);
        }
    }

    /// The leaf whose span covers `origin`'s slot.
    fn leaf_of(&self, origin: NodeId) -> usize {
        origin.index() / self.leaf_span
    }

    /// One leaf's hash, by scan: [`LEAF_SEED`] plus the wrapping sum of
    /// [`slot_term`] over the span's slots. Each term is keyed by the
    /// slot's position, so two replicas' leaves hash equal iff their stamp
    /// vectors for the span are equal (modulo 64-bit collisions), and a
    /// sum is what lets [`DigestTree::restamp`] update a leaf in O(1) per
    /// changed slot instead of re-folding the span: the incremental cost
    /// is O(1) per adopted entry plus one root path per touched leaf. The
    /// leaf with no entries hashes to `LEAF_SEED`, padding to
    /// [`EMPTY_HASH`]. Allocation-free.
    fn leaf_hash(&self, leaf: usize, store: &Store) -> u64 {
        let start = leaf * self.leaf_span;
        if start >= self.n {
            return EMPTY_HASH;
        }
        let len = self.leaf_span.min(self.n - start);
        (start..start + len).fold(LEAF_SEED, |h, slot| {
            let stamp = store.get(NodeId::new(slot)).map_or(0, |e| e.stamp);
            h.wrapping_add(slot_term(slot, stamp))
        })
    }
}

/// One slot's share of its leaf hash: a mix of the slot's position and its
/// stamp, `0` for an absent slot (stamp `0`). Computed, never stored — a
/// per-slot table would cost every node n words of heap.
fn slot_term(slot: usize, stamp: u64) -> u64 {
    if stamp == 0 {
        return 0;
    }
    mix64(stamp ^ mix64(slot as u64 ^ LEAF_SEED))
}

/// Position-sensitive parent hash (swapped children hash differently).
fn combine(left: u64, right: u64) -> u64 {
    mix64(left ^ mix64(right ^ LEAF_SEED))
}

/// What one delivered message did to the replica, replies aside: entries
/// adopted and malformed input dropped. Returned by [`reconcile_into`];
/// [`AeNode`](crate::AeNode) folds the counts into its stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Entries merged into the store (they beat what was held).
    pub adopted: usize,
    /// Malformed pieces dropped: digest arity mismatches, out-of-range or
    /// unsorted digest pairs, out-of-range delta origins, zero stamps,
    /// probe indices outside the tree. Counted, never fatal — this is the
    /// untrusted-socket contract.
    pub invalid: usize,
}

/// What [`reconcile`] returns: what one delivered message did to the
/// replica, and the replies it produced.
#[derive(Debug, Default)]
pub struct Handled {
    /// Entries merged into the store (they beat what was held).
    pub adopted: usize,
    /// Malformed pieces dropped: digest arity mismatches, out-of-range or
    /// unsorted digest pairs, out-of-range delta origins, zero stamps,
    /// probe indices outside the tree.
    pub invalid: usize,
    /// Messages to send back to the peer, in deterministic order.
    pub replies: Vec<AeMsg>,
}

/// Apply one delivered message to a replica (validate it, merge what it
/// carries, build the replies), with the replies collected into a `Vec` —
/// for callers that pump replicas against each other (the property
/// suites, the `digest_scaling` experiment) rather than ship each reply as
/// it comes, as [`AeNode`](crate::AeNode) does.
pub fn reconcile(
    store: &mut Store,
    tree: Option<&mut DigestTree>,
    fallback_slots: usize,
    msg: &AeMsg,
) -> Handled {
    let mut replies = Vec::new();
    let Tally { adopted, invalid } =
        reconcile_into(store, tree, fallback_slots, msg, |m| replies.push(m));
    Handled {
        adopted,
        invalid,
        replies,
    }
}

/// The reconciliation engine: apply one received [`AeMsg`] to a replica
/// (store + optional digest tree), handing each reply to `reply` as it is
/// produced — range fallbacks during the descent, then the probe front as
/// one batch.
///
/// This is the whole protocol minus the I/O: `AeNode::on_message` calls it
/// with its own store and a `reply` that sends through the mailbox (no
/// reply list is ever built), and [`reconcile`] collects the replies for
/// callers that pump two bare replicas against each other under arbitrary
/// delivery orders. `tree` is `Some` in Merkle mode (`fallback_slots`
/// bounds where the descent hands over to dense ranges) and `None` in
/// dense mode — a dense replica answers Merkle openers with a classic
/// [`AeMsg::SynReq`], so mixed-mode clusters still converge.
///
/// All input is treated as hostile: arity, ordering, ranges and indices
/// are validated before use, and malformed pieces are dropped and counted
/// in [`Tally::invalid`].
pub(crate) fn reconcile_into(
    store: &mut Store,
    mut tree: Option<&mut DigestTree>,
    fallback_slots: usize,
    msg: &AeMsg,
    mut reply: impl FnMut(AeMsg),
) -> Tally {
    let n = store.n();
    let mut tally = Tally::default();
    match msg {
        AeMsg::SynReq { n: their_n, digest } => {
            if *their_n as usize != n || !sparse_digest_well_formed(n, digest) {
                tally.invalid += 1;
                return tally;
            }
            reply(AeMsg::SynAck {
                n: *their_n,
                delta: store.delta_for_sparse(digest),
                digest: store.sparse_digest(),
            });
        }
        AeMsg::SynAck {
            n: their_n,
            delta,
            digest,
        } => {
            if *their_n as usize != n || !sparse_digest_well_formed(n, digest) {
                tally.invalid += 1;
                return tally;
            }
            adopt(store, &mut tree, delta, &mut tally);
            let back = store.delta_for_sparse(digest);
            if !back.is_empty() {
                reply(AeMsg::Delta { delta: back });
            }
        }
        AeMsg::Delta { delta } => {
            adopt(store, &mut tree, delta, &mut tally);
        }
        AeMsg::MerkleSyn { n: their_n, root } => {
            if *their_n as usize != n {
                tally.invalid += 1;
                return tally;
            }
            match tree {
                // Dense replica: answer with a classic opener so the
                // Merkle peer repairs it the way it repairs anyone.
                None => reply(AeMsg::SynReq {
                    n: n as u32,
                    digest: store.sparse_digest(),
                }),
                Some(tree) => {
                    if *root != tree.root() {
                        // A root that splits probes its two children; one
                        // that does not is answered with a range instead.
                        let pairs = if tree.splits(0, fallback_slots) { 2 } else { 0 };
                        let mut front = Vec::with_capacity(pairs);
                        descend(tree, store, 0, fallback_slots, &mut front, &mut reply);
                        send_probes(n, front, &mut reply);
                    }
                }
            }
        }
        AeMsg::MerkleProbe { n: their_n, probes } => {
            // Honest probe fronts are strictly ascending (the descent
            // emits children in index order); a repeated or unsorted
            // front is hostile — without this check, one message packing
            // the same mismatching index PROBE_BATCH times would draw
            // PROBE_BATCH range replies (send amplification).
            let ascending = probes.windows(2).all(|w| w[0].0 < w[1].0);
            if *their_n as usize != n || !ascending {
                tally.invalid += 1;
                return tally;
            }
            let Some(tree) = tree else {
                reply(AeMsg::SynReq {
                    n: n as u32,
                    digest: store.sparse_digest(),
                });
                return tally;
            };
            // The next front is two pairs per mismatching parent that
            // still splits: sized once, it is the reply's own allocation.
            let splitting = probes
                .iter()
                .filter(|&&(idx, their_hash)| {
                    let idx = idx as usize;
                    idx < tree.len()
                        && tree.hash(idx) != their_hash
                        && tree.splits(idx, fallback_slots)
                })
                .count();
            let mut front = Vec::with_capacity(2 * splitting);
            for &(idx, their_hash) in probes {
                let idx = idx as usize;
                if idx >= tree.len() {
                    tally.invalid += 1;
                    continue;
                }
                if tree.hash(idx) != their_hash {
                    descend(tree, store, idx, fallback_slots, &mut front, &mut reply);
                }
            }
            send_probes(n, front, &mut reply);
        }
        AeMsg::RangeSyn {
            n: their_n,
            start,
            stamps,
        } => {
            if !range_well_formed(n, *their_n, *start, stamps.len(), fallback_slots) {
                tally.invalid += 1;
                return tally;
            }
            let slot = *start as usize;
            reply(AeMsg::RangeAck {
                n: *their_n,
                start: *start,
                len: stamps.len() as u8,
                want: store.range_want(slot, stamps),
                delta: store.delta_for_range(slot, stamps),
            });
        }
        AeMsg::RangeAck {
            n: their_n,
            start,
            len,
            want,
            delta,
        } => {
            // No honest want word names a slot beyond its range.
            let want_fits = want.checked_shr(u32::from(*len)).unwrap_or(0) == 0;
            if !range_well_formed(n, *their_n, *start, usize::from(*len), fallback_slots)
                || !want_fits
            {
                tally.invalid += 1;
                return tally;
            }
            adopt(store, &mut tree, delta, &mut tally);
            let back = store.delta_for_want(*start as usize, *want);
            if !back.is_empty() {
                reply(AeMsg::Delta { delta: back });
            }
        }
    }
    tally
}

/// Merge a delta, keeping the digest tree current and dropping (counting)
/// hostile pairs: origins outside the store and the stamp-0 "absent" code
/// — which, off a socket, would otherwise index out of bounds or trip the
/// store's stamp invariant.
///
/// Each adopted entry swaps its slot's term in the leaf hash (O(1)); a
/// leaf's root path is recomputed when the delta moves on to another leaf
/// (and the last one when the delta ends), not per adopted entry. Honest
/// deltas ascend by origin, so each leaf they touch — one, for a range
/// repair — has its path recomputed exactly once; any other order leaves
/// the tree just as current and costs at most one path per entry.
fn adopt(
    store: &mut Store,
    tree: &mut Option<&mut DigestTree>,
    delta: &[(NodeId, Entry)],
    tally: &mut Tally,
) {
    // The leaf whose root path is stale.
    let mut dirty: Option<usize> = None;
    for &(origin, entry) in delta {
        if origin.index() >= store.n() || entry.stamp == 0 {
            tally.invalid += 1;
            continue;
        }
        let old = store.get(origin).map_or(0, |held| held.stamp);
        if store.merge(origin, entry) {
            tally.adopted += 1;
            if let Some(tree) = tree.as_deref_mut() {
                let leaf = tree.restamp_leaf(origin, old, entry.stamp);
                if let Some(done) = dirty.replace(leaf).filter(|&done| done != leaf) {
                    tree.rehash_path(done);
                }
            }
        }
    }
    if let (Some(tree), Some(leaf)) = (tree.as_deref_mut(), dirty) {
        tree.rehash_path(leaf);
    }
}

/// One step of the descent below a node whose hash mismatched: small
/// subtrees fall back to a dense range digest, replied at once; larger
/// ones add their children's hashes to the probe `front`, which
/// [`send_probes`] ships when the step's message is done.
fn descend(
    tree: &DigestTree,
    store: &Store,
    idx: usize,
    fallback_slots: usize,
    front: &mut Vec<(u32, u64)>,
    reply: &mut impl FnMut(AeMsg),
) {
    if tree.splits(idx, fallback_slots) {
        let (l, r) = (2 * idx + 1, 2 * idx + 2);
        front.extend([(l as u32, tree.hash(l)), (r as u32, tree.hash(r))]);
        return;
    }
    let (start, len) = tree.slot_range(idx);
    if len > 0 {
        // (`len == 0` is padding beyond n — nothing to reconcile.)
        reply(AeMsg::RangeSyn {
            n: tree.n as u32,
            start: start as u32,
            stamps: store.range_digest(start, len),
        });
    }
}

/// Ship a probe front as [`PROBE_BATCH`]-sized [`AeMsg::MerkleProbe`]
/// messages, preserving order. A front within the cap — every honest one
/// below n ≈ 16k leaves — becomes the message as it stands.
fn send_probes(n: usize, front: Vec<(u32, u64)>, reply: &mut impl FnMut(AeMsg)) {
    let n = n as u32;
    if front.len() <= PROBE_BATCH {
        if !front.is_empty() {
            reply(AeMsg::MerkleProbe { n, probes: front });
        }
        return;
    }
    for chunk in front.chunks(PROBE_BATCH) {
        reply(AeMsg::MerkleProbe {
            n,
            probes: chunk.to_vec(),
        });
    }
}

/// Validate a range message: matching arity, a range that lies inside the
/// store, and a length within the fallback span and the want word's
/// [`MAX_RANGE_SLOTS`] — honest senders never produce empty ranges or
/// ranges wider than their fallback (which must therefore agree across a
/// cluster, like the store arity); a hostile store-wide range would
/// otherwise draw a reply far beyond one datagram.
fn range_well_formed(
    n: usize,
    their_n: u32,
    start: u32,
    len: usize,
    fallback_slots: usize,
) -> bool {
    their_n as usize == n
        && len > 0
        && len <= fallback_slots.min(MAX_RANGE_SLOTS)
        && (start as usize)
            .checked_add(len)
            .is_some_and(|end| end <= n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(stamp: u64, value: f64) -> Entry {
        Entry { stamp, value }
    }

    fn store_with(n: usize, entries: &[(usize, u64)]) -> Store {
        let mut s = Store::new(n);
        for &(origin, stamp) in entries {
            s.merge(NodeId::new(origin), e(stamp, stamp as f64));
        }
        s
    }

    #[test]
    fn tree_shape_covers_the_store_exactly() {
        let store = Store::new(100);
        let tree = DigestTree::new(&store, 8);
        // ⌈100/8⌉ = 13 leaves, padded to 16.
        assert_eq!(tree.leaves, 16);
        assert_eq!(tree.len(), 31);
        assert!(!tree.is_empty());
        assert_eq!(tree.slot_range(0), (0, 100));
        // Leaf layer: spans of 8, clamped at the end, padding empty.
        assert_eq!(tree.slot_range(15), (0, 8));
        assert_eq!(tree.slot_range(15 + 12), (96, 4));
        assert_eq!(tree.slot_range(15 + 13), (100, 0));
        assert_eq!(tree.slot_range(30), (100, 0));
        // Internal node: the right child of the root covers slots 64..100.
        assert_eq!(tree.slot_range(2), (64, 36));
        // Every leaf is a leaf, internals are not.
        assert!(tree.is_leaf(15));
        assert!(!tree.is_leaf(14));
    }

    #[test]
    fn tiny_stores_collapse_to_a_single_leaf() {
        let store = store_with(3, &[(1, 5)]);
        let tree = DigestTree::new(&store, 8);
        assert_eq!(tree.leaves, 1);
        assert_eq!(tree.len(), 1);
        assert!(tree.is_leaf(0));
        assert_eq!(tree.slot_range(0), (0, 3));
    }

    #[test]
    fn equal_stores_hash_equal_and_refresh_matches_rebuild() {
        let mut a = store_with(100, &[(3, 7), (40, 2), (99, 9)]);
        let b = store_with(100, &[(3, 7), (40, 2), (99, 9)]);
        let mut ta = DigestTree::new(&a, 8);
        let tb = DigestTree::new(&b, 8);
        assert_eq!(ta, tb);
        assert_eq!(ta.root(), tb.root());

        // Incremental refresh after a merge equals a full rebuild.
        a.merge(NodeId::new(40), e(11, 1.0));
        ta.refresh(NodeId::new(40), &a);
        assert_eq!(ta, DigestTree::new(&a, 8));
        assert_ne!(ta.root(), tb.root(), "one changed stamp changes the root");
    }

    #[test]
    fn leaf_hashes_are_keyed_by_slot_position() {
        // Swapping two slots' stamps within one leaf changes its hash: the
        // sum's terms are position-keyed.
        let a = DigestTree::new(&store_with(16, &[(0, 5), (1, 9)]), 8);
        let b = DigestTree::new(&store_with(16, &[(0, 9), (1, 5)]), 8);
        assert_ne!(a.hash(1), b.hash(1), "swapped stamps, same leaf hash");
        assert_eq!(a.hash(2), b.hash(2), "the untouched leaf");
        // A leaf with no entries is not padding: 17 slots in spans of 8
        // fill three leaves of four.
        let empty = DigestTree::new(&Store::new(17), 8);
        assert_eq!(empty.slot_range(6), (17, 0), "the fourth leaf is padding");
        assert_eq!((empty.hash(3), empty.hash(6)), (LEAF_SEED, EMPTY_HASH));
        assert_eq!(slot_term(3, 0), 0, "an absent slot adds nothing");
    }

    #[test]
    fn restamping_a_slot_matches_a_rescan() {
        let mut store = store_with(40, &[(3, 7), (20, 2)]);
        let mut tree = DigestTree::new(&store, 8);
        for (origin, stamp) in [(3, 8), (21, 4), (39, 1), (3, 30)] {
            let origin = NodeId::new(origin);
            let old = store.get(origin).map_or(0, |held| held.stamp);
            assert!(store.merge(origin, e(stamp, 0.0)));
            tree.restamp(origin, old, stamp);
            assert_eq!(tree, DigestTree::new(&store, 8));
        }
    }

    #[test]
    fn sibling_order_matters() {
        // The same entry in mirrored positions must not produce the same
        // root: combine() is position-sensitive.
        let left = store_with(16, &[(0, 5)]);
        let right = store_with(16, &[(8, 5)]);
        assert_ne!(
            DigestTree::new(&left, 8).root(),
            DigestTree::new(&right, 8).root()
        );
    }

    /// Pump messages between two replicas until quiescent, in FIFO order.
    fn pump(a: &mut (Store, DigestTree), b: &mut (Store, DigestTree), fallback: usize) -> usize {
        let mut queue: Vec<(bool, AeMsg)> = vec![(
            false,
            AeMsg::MerkleSyn {
                n: a.0.n() as u32,
                root: a.1.root(),
            },
        )];
        let mut legs = 0;
        while let Some((to_a, msg)) = queue.pop() {
            legs += 1;
            let target = if to_a { &mut *a } else { &mut *b };
            let handled = reconcile(&mut target.0, Some(&mut target.1), fallback, &msg);
            assert_eq!(handled.invalid, 0, "honest traffic is never dropped");
            queue.extend(handled.replies.into_iter().map(|m| (!to_a, m)));
        }
        legs
    }

    #[test]
    fn descent_reconciles_and_identical_replicas_cost_one_leg() {
        let mut a = {
            let s = store_with(200, &[(0, 3), (77, 9), (140, 2), (199, 5)]);
            let t = DigestTree::new(&s, 8);
            (s, t)
        };
        let mut b = {
            let s = store_with(200, &[(0, 9), (30, 1), (140, 2)]);
            let t = DigestTree::new(&s, 8);
            (s, t)
        };
        pump(&mut a, &mut b, 8);
        assert_eq!(a.0, b.0, "descent converges the replicas");
        assert_eq!(a.1.root(), b.1.root(), "trees kept current through adopt");
        assert_eq!(a.0.known(), 5);

        // Converged replicas: the next exchange is the opener and nothing
        // else — the O(log n) steady state's best case.
        assert_eq!(pump(&mut a, &mut b, 8), 1);
    }

    #[test]
    fn a_slot_learned_after_the_range_syn_still_travels() {
        // The initiator claims slot 5 empty, then learns it before the
        // ack lands. The responder holds nothing there, so its want word
        // names the slot and the initiator's Delta carries the new entry.
        let mut a = store_with(16, &[(1, 4)]);
        let mut ta = DigestTree::new(&a, 8);
        let mut b = store_with(16, &[(2, 7)]);
        let mut tb = DigestTree::new(&b, 8);
        let syn = AeMsg::RangeSyn {
            n: 16,
            start: 0,
            stamps: a.range_digest(0, 8),
        };
        let handled = reconcile(&mut b, Some(&mut tb), 8, &syn);
        let [ack] = &handled.replies[..] else {
            panic!("a range syn draws one ack");
        };
        let AeMsg::RangeAck { len, want, .. } = ack else {
            panic!("{ack:?} is not a range ack");
        };
        assert_eq!((*len, *want), (8, 0b1111_1011), "every slot but 2");

        a.merge(NodeId::new(5), e(3, 3.0));
        ta.refresh(NodeId::new(5), &a);
        let handled = reconcile(&mut a, Some(&mut ta), 8, ack);
        assert_eq!(handled.adopted, 1, "slot 2 came back in the ack");
        let [AeMsg::Delta { delta }] = &handled.replies[..] else {
            panic!("the initiator answers with one delta");
        };
        assert_eq!(
            delta,
            &vec![(NodeId::new(1), e(4, 4.0)), (NodeId::new(5), e(3, 3.0))]
        );
    }

    #[test]
    fn dense_peer_answers_merkle_openers_with_a_classic_exchange() {
        let mut merkle_store = store_with(64, &[(1, 5), (40, 2)]);
        let mut merkle_tree = DigestTree::new(&merkle_store, 8);
        let mut dense_store = store_with(64, &[(1, 9), (63, 4)]);

        // Merkle node opens; the dense node answers with SynReq.
        let opener = AeMsg::MerkleSyn {
            n: 64,
            root: merkle_tree.root(),
        };
        let handled = reconcile(&mut dense_store, None, 8, &opener);
        let [syn] = &handled.replies[..] else {
            panic!("dense replica answers with one message");
        };
        assert!(matches!(syn, AeMsg::SynReq { .. }));

        // From here the classic three legs converge the pair (and keep the
        // Merkle side's tree fresh).
        let mut queue: Vec<(bool, AeMsg)> = vec![(true, syn.clone())];
        while let Some((to_merkle, msg)) = queue.pop() {
            let handled = if to_merkle {
                reconcile(&mut merkle_store, Some(&mut merkle_tree), 8, &msg)
            } else {
                reconcile(&mut dense_store, None, 8, &msg)
            };
            queue.extend(handled.replies.into_iter().map(|m| (!to_merkle, m)));
        }
        assert_eq!(merkle_store, dense_store);
        assert_eq!(merkle_tree, DigestTree::new(&merkle_store, 8));
    }

    #[test]
    fn probe_fronts_split_at_the_batch_cap() {
        // Two maximally different replicas at an n whose leaf layer is
        // wider than PROBE_BATCH: the descent must split its probe front.
        let n = PROBE_BATCH * 2 * 4; // 4096 slots, span 1 → 4096 leaves
        let full: Vec<(usize, u64)> = (0..n).map(|i| (i, 1 + i as u64)).collect();
        let mut a = {
            let s = store_with(n, &full);
            let t = DigestTree::new(&s, 1);
            (s, t)
        };
        let mut b = {
            let s = Store::new(n);
            let t = DigestTree::new(&s, 1);
            (s, t)
        };
        // Drive the full descent; every probe message obeys the cap.
        let mut queue: Vec<(bool, AeMsg)> = vec![(
            false,
            AeMsg::MerkleSyn {
                n: n as u32,
                root: a.1.root(),
            },
        )];
        while let Some((to_a, msg)) = queue.pop() {
            if let AeMsg::MerkleProbe { probes, .. } = &msg {
                assert!(probes.len() <= PROBE_BATCH, "probe front exceeded cap");
            }
            let t = if to_a { &mut a } else { &mut b };
            let handled = reconcile(&mut t.0, Some(&mut t.1), 1, &msg);
            queue.extend(handled.replies.into_iter().map(|m| (!to_a, m)));
        }
        assert_eq!(a.0, b.0);
        assert_eq!(b.0.known(), n);
    }

    #[test]
    fn hostile_merkle_messages_are_dropped_and_counted() {
        let mut store = store_with(64, &[(1, 5)]);
        let mut tree = DigestTree::new(&store, 8);
        let before = store.clone();
        for msg in [
            // Arity mismatches on every Merkle leg.
            AeMsg::MerkleSyn { n: 63, root: 1 },
            AeMsg::MerkleProbe {
                n: 65,
                probes: vec![(0, 1)],
            },
            AeMsg::RangeSyn {
                n: 63,
                start: 0,
                stamps: vec![1],
            },
            // Range outside the store / overflowing / empty.
            AeMsg::RangeSyn {
                n: 64,
                start: 60,
                stamps: vec![1, 1, 1, 1, 1],
            },
            AeMsg::RangeSyn {
                n: 64,
                start: u32::MAX,
                stamps: vec![1],
            },
            AeMsg::RangeSyn {
                n: 64,
                start: 0,
                stamps: vec![],
            },
            // Range wider than the fallback span: honest descents never
            // produce one, and answering it would build a reply far
            // beyond a datagram (reply amplification).
            AeMsg::RangeSyn {
                n: 64,
                start: 0,
                stamps: vec![1; 9],
            },
            AeMsg::RangeAck {
                n: 64,
                start: 64,
                len: 1,
                want: 0,
                delta: vec![],
            },
            // Range acks that are empty, wider than the fallback span, or
            // whose want word names a slot beyond the range.
            AeMsg::RangeAck {
                n: 64,
                start: 0,
                len: 0,
                want: 0,
                delta: vec![],
            },
            AeMsg::RangeAck {
                n: 64,
                start: 0,
                len: 9,
                want: 1,
                delta: vec![],
            },
            AeMsg::RangeAck {
                n: 64,
                start: 0,
                len: 3,
                want: 0b1000,
                delta: vec![],
            },
            // Unsorted probe fronts are hostile (the descent emits
            // ascending indices)…
            AeMsg::MerkleProbe {
                n: 64,
                probes: vec![(2, 7), (1, 9)],
            },
            // …and so are duplicated ones: without the ordering check,
            // one message repeating a mismatching index would draw one
            // range reply per copy (send amplification).
            AeMsg::MerkleProbe {
                n: 64,
                probes: vec![(0, 12345), (0, 12345), (0, 12345)],
            },
        ] {
            let handled = reconcile(&mut store, Some(&mut tree), 8, &msg);
            assert_eq!(handled.invalid, 1, "{msg:?} must be dropped");
            assert!(handled.replies.is_empty(), "{msg:?} must draw no reply");
        }
        // Probe indices outside the tree are dropped pair-by-pair; the
        // valid pair still answers.
        let handled = reconcile(
            &mut store,
            Some(&mut tree),
            8,
            &AeMsg::MerkleProbe {
                n: 64,
                probes: vec![(0, 12345), (u32::MAX, 7)],
            },
        );
        assert_eq!(handled.invalid, 1);
        assert!(!handled.replies.is_empty(), "the in-range mismatch probes");
        // Hostile deltas: out-of-range origins and zero stamps.
        let handled = reconcile(
            &mut store,
            Some(&mut tree),
            8,
            &AeMsg::Delta {
                delta: vec![
                    (NodeId::new(1 << 20), e(5, 1.0)),
                    (NodeId::new(2), e(0, 1.0)),
                    (NodeId::new(3), e(4, 4.0)),
                ],
            },
        );
        assert_eq!(handled.invalid, 2);
        assert_eq!(handled.adopted, 1, "the honest pair still merges");
        assert_eq!(store.get(NodeId::new(3)), Some(&e(4, 4.0)));
        assert_eq!(store.get(NodeId::new(1)), before.get(NodeId::new(1)));
        assert_eq!(tree, DigestTree::new(&store, 8), "tree stayed current");
    }
}
