//! The replicated state: one stamped entry per origin node, merged by
//! per-key max-timestamp.
//!
//! [`Store`] is the CRDT at the bottom of the anti-entropy layer — a
//! grow-only map from origin node to the freshest [`Entry`] heard from that
//! origin. Merging keeps the entry with the larger `(stamp, value bits)`
//! pair, which makes merge **idempotent**, **commutative** and
//! **associative**: any two replicas that have exchanged the same set of
//! entries in *any* order and multiplicity hold identical stores (the
//! property the proptest suite pins). Versions never need coordination
//! because each origin stamps only its own key, with its local virtual
//! clock — strictly monotone across updates *and* across incarnations, so a
//! rejoiner's fresh entries always supersede its pre-crash ones.

use gossip_net::NodeId;
use serde::{Deserialize, Serialize};

/// Bits the modelled wire charges for a stamp run's base (see
/// [`StampRun`](crate::StampRun)); each stamp is then a code at the width
/// its run needs.
pub const STAMP_BITS: u32 = 32;

/// One origin's value, stamped with the origin's virtual clock at update
/// time. Stamps are always ≥ 1 (`0` is the digest code for "absent").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Entry {
    /// The origin's virtual time (µs) when it produced this value.
    pub stamp: u64,
    /// The value itself.
    pub value: f64,
}

impl Entry {
    /// Total order used by the merge: newer stamp wins; equal stamps fall
    /// back to the value's bit pattern (an arbitrary but *deterministic*
    /// tiebreak — two honest updates from one origin can never share a
    /// stamp, but the merge must stay commutative for arbitrary input).
    pub fn beats(&self, other: &Entry) -> bool {
        (self.stamp, self.value.to_bits()) > (other.stamp, other.value.to_bits())
    }
}

/// A version summary: for every origin, the stamp of the entry a replica
/// holds (`0` = none). Two replicas compare digests to find exactly the
/// entries one is missing.
pub type Digest = Vec<u64>;

/// The sparse form of a [`Digest`]: one `(origin, stamp)` pair per origin
/// the replica actually holds, ascending by origin, stamps ≥ 1. This is
/// what the *messages* carry (and what the wire encodes) — absent origins
/// cost nothing, so a rejoiner's digest is a handful of bytes instead of
/// `n` stamps. The dense form stays the in-store working representation.
pub(crate) type SparseDigest = Vec<(NodeId, u64)>;

/// Whether `pairs` is a well-formed sparse digest for an `n`-origin store:
/// origins strictly ascending (sorted, duplicate-free) and in range,
/// stamps ≥ 1 (`0` is the code for absent — an honest sender omits the
/// pair instead). The protocol validates every digest that arrives off a
/// socket with this before trusting it — a short digest would otherwise
/// make the responder ship its whole store, a long or out-of-range one
/// would index out of bounds.
pub fn sparse_digest_well_formed(n: usize, pairs: &[(NodeId, u64)]) -> bool {
    let mut previous: Option<usize> = None;
    for &(origin, stamp) in pairs {
        if origin.index() >= n || stamp == 0 || previous.is_some_and(|p| p >= origin.index()) {
            return false;
        }
        previous = Some(origin.index());
    }
    true
}

/// Per-origin stamped values with max-timestamp merge. See the module docs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Store {
    slots: Vec<Option<Entry>>,
}

/// Collect `items` into a vector allocated once, at its final length: one
/// pass counts, the second fills. For the range repair's builders, whose
/// scan is at most one leaf span (≤ 64 slots): growing by doubling would
/// cost a reallocation per doubling on every reply. The whole-store
/// builders collect in one pass instead — a second O(n) scan per reply is
/// dearer than their growth.
fn collect_exact<T>(items: impl Iterator<Item = T> + Clone) -> Vec<T> {
    let mut out = Vec::with_capacity(items.clone().count());
    out.extend(items);
    out
}

impl Store {
    /// An empty store over `n` origins.
    pub fn new(n: usize) -> Self {
        Store {
            slots: vec![None; n],
        }
    }

    /// Number of origins (network size), known and unknown.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Number of origins this replica holds an entry for.
    pub fn known(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The entry held for `origin`, if any.
    pub fn get(&self, origin: NodeId) -> Option<&Entry> {
        self.slots[origin.index()].as_ref()
    }

    /// Merge one entry; returns `true` iff it replaced what was held
    /// (absent, or beaten per [`Entry::beats`]).
    pub fn merge(&mut self, origin: NodeId, entry: Entry) -> bool {
        debug_assert!(entry.stamp >= 1, "stamp 0 is the digest code for absent");
        let slot = &mut self.slots[origin.index()];
        match slot {
            Some(held) if !entry.beats(held) => false,
            _ => {
                *slot = Some(entry);
                true
            }
        }
    }

    /// Merge a batch of `(origin, entry)` pairs; returns how many were
    /// adopted.
    pub fn merge_delta(&mut self, delta: &[(NodeId, Entry)]) -> usize {
        delta
            .iter()
            .filter(|&&(origin, entry)| self.merge(origin, entry))
            .count()
    }

    /// Merge a whole replica into this one (the CRDT join): pointwise
    /// per-origin max, one slot scan, no digest/delta detour. Used when
    /// both stores are in hand — e.g. building the fully-synced reference
    /// a recovery measurement compares against.
    pub fn merge_from(&mut self, other: &Store) {
        debug_assert_eq!(self.slots.len(), other.slots.len(), "arity mismatch");
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            if let Some(entry) = theirs {
                match mine {
                    Some(held) if !entry.beats(held) => {}
                    _ => *mine = Some(*entry),
                }
            }
        }
    }

    /// This replica's version summary.
    pub fn digest(&self) -> Digest {
        self.slots
            .iter()
            .map(|s| s.as_ref().map_or(0, |e| e.stamp))
            .collect()
    }

    /// This replica's version summary in sparse form: `(origin, stamp)`
    /// for every held entry, ascending by origin. Always well-formed per
    /// [`sparse_digest_well_formed`].
    pub fn sparse_digest(&self) -> SparseDigest {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|e| (NodeId::new(i), e.stamp)))
            .collect()
    }

    /// The entries this replica holds that are strictly newer than the
    /// sparse digest `their` claims. `their` **must** be well-formed
    /// (ascending, in-range — see [`sparse_digest_well_formed`]; the
    /// protocol validates before calling): the merge walk relies on the
    /// order. Ascending origin order, like [`Store::delta_for`].
    pub fn delta_for_sparse(&self, their: &[(NodeId, u64)]) -> Vec<(NodeId, Entry)> {
        debug_assert!(sparse_digest_well_formed(self.n(), their));
        let mut j = 0usize;
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let entry = slot.as_ref()?;
                while j < their.len() && their[j].0.index() < i {
                    j += 1;
                }
                let theirs = match their.get(j) {
                    Some(&(origin, stamp)) if origin.index() == i => stamp,
                    _ => 0,
                };
                (entry.stamp > theirs).then_some((NodeId::new(i), *entry))
            })
            .collect()
    }

    /// The dense digest of the slot range `[start, start + len)` — the
    /// leaf-range fallback of the Merkle descent, where dense wins: within
    /// one small range every slot is named by position, no origin ids.
    /// The range must lie inside the store.
    pub fn range_digest(&self, start: usize, len: usize) -> Digest {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.n()),
            "range [{start}, {start}+{len}) outside the {}-origin store",
            self.n()
        );
        self.slots[start..start + len]
            .iter()
            .map(|s| s.as_ref().map_or(0, |e| e.stamp))
            .collect()
    }

    /// The entries in `[start, start + their.len())` strictly newer than
    /// the range digest `their` claims. Origins in the result are
    /// absolute, so the ordinary delta merge applies unchanged. The range
    /// must lie inside the store (the protocol validates before calling).
    pub fn delta_for_range(&self, start: usize, their: &[u64]) -> Vec<(NodeId, Entry)> {
        assert!(
            start
                .checked_add(their.len())
                .is_some_and(|end| end <= self.n()),
            "range [{start}, {start}+{}) outside the {}-origin store",
            their.len(),
            self.n()
        );
        collect_exact(
            self.slots[start..start + their.len()]
                .iter()
                .zip(their)
                .enumerate()
                .filter_map(move |(k, (slot, &theirs))| {
                    let entry = slot.as_ref()?;
                    (entry.stamp > theirs).then_some((NodeId::new(start + k), *entry))
                }),
        )
    }

    /// The want word of a range repair: bit k is set when this replica
    /// holds nothing at slot `start + k`, or an older stamp than `their[k]`
    /// claims — the slots the peer should send back. `their` spans at most
    /// 64 slots, and the range must lie inside the store (the protocol
    /// validates before calling).
    pub(crate) fn range_want(&self, start: usize, their: &[u64]) -> u64 {
        assert!(their.len() <= 64, "a want word names at most 64 slots");
        self.slots[start..start + their.len()]
            .iter()
            .zip(their)
            .enumerate()
            .fold(0, |want, (k, (slot, &theirs))| match slot {
                Some(entry) if entry.stamp >= theirs => want,
                _ => want | 1 << k,
            })
    }

    /// The entries this replica holds at the slots `want` names (bit k is
    /// slot `start + k`), ascending: the answer to a range repair's want
    /// word. Visits the set bits only. The named slots must lie inside the
    /// store.
    pub(crate) fn delta_for_want(&self, start: usize, want: u64) -> Vec<(NodeId, Entry)> {
        let mut rest = want;
        collect_exact(
            std::iter::from_fn(move || {
                let k = rest.trailing_zeros() as usize;
                rest &= rest.wrapping_sub(1);
                (k < 64).then_some(start + k)
            })
            .filter_map(|slot| self.slots[slot].map(|entry| (NodeId::new(slot), entry))),
        )
    }

    /// The entries this replica holds that are strictly newer than `their`
    /// digest claims — exactly what the peer is missing. Ascending origin
    /// order (deterministic).
    pub fn delta_for(&self, their: &Digest) -> Vec<(NodeId, Entry)> {
        debug_assert_eq!(their.len(), self.slots.len(), "digest arity mismatch");
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let entry = slot.as_ref()?;
                let theirs = their.get(i).copied().unwrap_or(0);
                (entry.stamp > theirs).then_some((NodeId::new(i), *entry))
            })
            .collect()
    }

    /// Mean over the held entries no older than `expiry_us` at instant
    /// `now_us` (`expiry_us == 0` disables expiry). `None` when nothing
    /// qualifies. Expiry is what keeps a *continuous* aggregate honest
    /// under churn: a crashed origin stops refreshing its entry, so its
    /// stale value ages out of everyone's estimate instead of biasing it
    /// forever.
    pub(crate) fn mean_fresh(&self, now_us: u64, expiry_us: u64) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for entry in self.slots.iter().flatten() {
            if expiry_us == 0 || now_us.saturating_sub(entry.stamp) <= expiry_us {
                sum += entry.value;
                count += 1;
            }
        }
        (count > 0).then(|| sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(stamp: u64, value: f64) -> Entry {
        Entry { stamp, value }
    }

    #[test]
    fn merge_keeps_the_newest_stamp() {
        let mut s = Store::new(4);
        assert!(s.merge(NodeId::new(1), e(5, 1.0)));
        assert!(!s.merge(NodeId::new(1), e(4, 9.0)), "older stamp loses");
        assert!(!s.merge(NodeId::new(1), e(5, 1.0)), "idempotent");
        assert!(s.merge(NodeId::new(1), e(6, 2.0)));
        assert_eq!(s.get(NodeId::new(1)), Some(&e(6, 2.0)));
        assert_eq!(s.known(), 1);
        assert_eq!(s.n(), 4);
    }

    #[test]
    fn digest_and_delta_round_trip() {
        let mut a = Store::new(3);
        let mut b = Store::new(3);
        a.merge(NodeId::new(0), e(10, 1.0));
        a.merge(NodeId::new(2), e(3, 2.0));
        b.merge(NodeId::new(2), e(7, 5.0));

        // What b is missing relative to a: origin 0 entirely, origin 2 no
        // (b's stamp 7 > a's 3).
        let delta_ab = a.delta_for(&b.digest());
        assert_eq!(delta_ab, vec![(NodeId::new(0), e(10, 1.0))]);
        // And the reverse repair.
        let delta_ba = b.delta_for(&a.digest());
        assert_eq!(delta_ba, vec![(NodeId::new(2), e(7, 5.0))]);

        assert_eq!(b.merge_delta(&delta_ab), 1);
        assert_eq!(a.merge_delta(&delta_ba), 1);
        assert_eq!(a, b, "push-pull exchange converges the replicas");
        assert!(a.delta_for(&b.digest()).is_empty());
    }

    #[test]
    fn merge_from_is_the_pointwise_join() {
        let mut a = Store::new(4);
        let mut b = Store::new(4);
        a.merge(NodeId::new(0), e(5, 1.0));
        a.merge(NodeId::new(1), e(2, 2.0));
        b.merge(NodeId::new(1), e(7, 3.0));
        b.merge(NodeId::new(3), e(4, 4.0));
        // Join via merge_from must equal the entry-by-entry union.
        let mut joined = a.clone();
        joined.merge_from(&b);
        let mut reference = a.clone();
        for i in 0..4 {
            if let Some(&entry) = b.get(NodeId::new(i)) {
                reference.merge(NodeId::new(i), entry);
            }
        }
        assert_eq!(joined, reference);
        assert_eq!(joined.get(NodeId::new(1)), Some(&e(7, 3.0)));
        // Idempotent and absorbs the smaller side.
        let again = {
            let mut j = joined.clone();
            j.merge_from(&b);
            j.merge_from(&a);
            j
        };
        assert_eq!(again, joined);
    }

    #[test]
    fn sparse_and_dense_digests_agree() {
        let mut s = Store::new(5);
        s.merge(NodeId::new(1), e(4, 1.0));
        s.merge(NodeId::new(3), e(9, 2.0));
        assert_eq!(s.digest(), vec![0, 4, 0, 9, 0]);
        assert_eq!(
            s.sparse_digest(),
            vec![(NodeId::new(1), 4), (NodeId::new(3), 9)]
        );
        assert!(sparse_digest_well_formed(5, &s.sparse_digest()));
        // The sparse delta equals the dense delta against the same peer.
        let mut peer = Store::new(5);
        peer.merge(NodeId::new(1), e(7, 3.0));
        peer.merge(NodeId::new(4), e(2, 4.0));
        assert_eq!(
            peer.delta_for_sparse(&s.sparse_digest()),
            peer.delta_for(&s.digest())
        );
        assert_eq!(
            s.delta_for_sparse(&peer.sparse_digest()),
            s.delta_for(&peer.digest())
        );
        // Empty sparse digest = "send me everything you have".
        assert_eq!(s.delta_for_sparse(&[]), s.delta_for(&vec![0; 5]));
    }

    #[test]
    fn sparse_digest_well_formedness_catches_hostile_shapes() {
        let ok = vec![(NodeId::new(0), 1), (NodeId::new(3), 9)];
        assert!(sparse_digest_well_formed(4, &ok));
        assert!(sparse_digest_well_formed(4, &[]));
        // Out of range.
        assert!(!sparse_digest_well_formed(3, &ok));
        // Duplicate origin.
        assert!(!sparse_digest_well_formed(
            4,
            &[(NodeId::new(2), 1), (NodeId::new(2), 2)]
        ));
        // Unsorted.
        assert!(!sparse_digest_well_formed(
            4,
            &[(NodeId::new(3), 1), (NodeId::new(1), 2)]
        ));
        // Stamp 0 is the code for absent — honest senders omit the pair.
        assert!(!sparse_digest_well_formed(4, &[(NodeId::new(1), 0)]));
    }

    #[test]
    fn range_digest_and_delta_cover_exactly_the_range() {
        let mut s = Store::new(6);
        s.merge(NodeId::new(1), e(5, 1.0));
        s.merge(NodeId::new(2), e(3, 2.0));
        s.merge(NodeId::new(4), e(8, 3.0));
        assert_eq!(s.range_digest(1, 3), vec![5, 3, 0]);
        assert_eq!(s.range_digest(0, 0), Vec::<u64>::new());
        // Peer's stamps for the range: newer at 1, older at 2, absent at 3.
        let delta = s.delta_for_range(1, &[9, 1, 4]);
        assert_eq!(delta, vec![(NodeId::new(2), e(3, 2.0))]);
        // Entries outside the range never leak in.
        assert!(s.delta_for_range(0, &[0]).is_empty());
        assert_eq!(s.delta_for_range(4, &[0, 0]).len(), 1);
    }

    #[test]
    fn want_words_name_the_slots_to_send_back() {
        let mut s = Store::new(6);
        s.merge(NodeId::new(1), e(5, 1.0));
        s.merge(NodeId::new(2), e(3, 2.0));
        s.merge(NodeId::new(4), e(8, 3.0));
        // Peer's stamps for slots 1..5: newer at 1, older at 2, absent on
        // both sides at 3 (holds nothing: wanted), equal at 4 (not wanted).
        assert_eq!(s.range_want(1, &[9, 1, 0, 8]), 0b0101);
        assert_eq!(s.range_want(0, &[]), 0);
        // The answer holds only what is held at the named slots.
        assert_eq!(
            s.delta_for_want(1, 0b1111),
            vec![
                (NodeId::new(1), e(5, 1.0)),
                (NodeId::new(2), e(3, 2.0)),
                (NodeId::new(4), e(8, 3.0)),
            ]
        );
        assert_eq!(s.delta_for_want(3, 0b10), vec![(NodeId::new(4), e(8, 3.0))]);
        assert!(s.delta_for_want(0, 0).is_empty());
    }

    #[test]
    fn mean_fresh_expires_stale_entries() {
        let mut s = Store::new(3);
        s.merge(NodeId::new(0), e(1_000, 10.0));
        s.merge(NodeId::new(1), e(9_000, 20.0));
        assert_eq!(s.mean_fresh(10_000, 0), Some(15.0), "no expiry");
        assert_eq!(
            s.mean_fresh(10_000, 5_000),
            Some(20.0),
            "old entry aged out"
        );
        assert_eq!(s.mean_fresh(100_000, 5_000), None, "everything expired");
        assert_eq!(Store::new(2).mean_fresh(0, 0), None, "empty store");
    }

    #[test]
    fn equal_stamp_tiebreak_is_deterministic_and_symmetric() {
        let x = e(5, 1.0);
        let y = e(5, 2.0);
        assert!(y.beats(&x) ^ x.beats(&y), "exactly one direction wins");
        let mut a = Store::new(1);
        let mut b = Store::new(1);
        a.merge(NodeId::new(0), x);
        a.merge(NodeId::new(0), y);
        b.merge(NodeId::new(0), y);
        b.merge(NodeId::new(0), x);
        assert_eq!(a, b, "merge order cannot matter");
    }
}
