//! Slab arenas for in-flight message payloads.
//!
//! Carrying handler payloads in a `HashMap<u64, M>` keyed by event
//! sequence number costs one hash + one allocation per message, and at
//! n ≥ 10⁶ the map's rehashing and cold probing, not the protocol,
//! dominates the send path. [`PayloadArena`] is a slab instead: payloads
//! live in a dense `Vec<Option<M>>`,
//! keys are plain `u32` slot indices carried inside the `Deliver` event,
//! and freed slots go onto a free list for reuse — steady-state traffic
//! allocates nothing per message.
//!
//! Keys are *stable*: a slot index never moves while its payload is live
//! (only [`PayloadArena::decay`] shrinks the slab, and it only truncates
//! trailing **vacant** slots). Keys never feed an order hash — the event
//! order is keyed by `(timestamp, origin, origin-sequence)` — so slab
//! layout is free to differ across hosts without touching determinism.

/// Sentinel key for events that carry no payload (crashes, timers, raw
/// `Transport::send` traffic). Never returned by [`PayloadArena::insert`]:
/// a slab would need 2³² − 1 concurrently-live payloads first.
pub const NO_PAYLOAD: u32 = u32::MAX;

/// A slab allocator for one host's in-flight payloads. See the module docs.
#[derive(Clone, Debug)]
pub struct PayloadArena<M> {
    slots: Vec<Option<M>>,
    /// Vacant slot indices available for reuse (LIFO: the hottest slot in
    /// cache is handed out first).
    free: Vec<u32>,
    live: usize,
    reuse_total: u64,
}

impl<M> Default for PayloadArena<M> {
    fn default() -> Self {
        PayloadArena::new()
    }
}

/// Slabs below this capacity never decay — the floor keeps steady-state
/// reuse from thrashing tiny allocations.
const DECAY_MIN_SLOTS: usize = 64;

impl<M> PayloadArena<M> {
    /// An empty arena.
    pub fn new() -> Self {
        PayloadArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            reuse_total: 0,
        }
    }

    /// Store `msg`, returning its stable slot key. Reuses a freed slot when
    /// one is available; grows the slab otherwise.
    #[inline]
    pub fn insert(&mut self, msg: M) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(key) => {
                self.reuse_total += 1;
                self.slots[key as usize] = Some(msg);
                key
            }
            None => {
                let key = self.slots.len() as u32;
                assert!(key < NO_PAYLOAD, "payload arena exhausted the key space");
                self.slots.push(Some(msg));
                key
            }
        }
    }

    /// Remove and return the payload at `key`, freeing the slot. Returns
    /// `None` for [`NO_PAYLOAD`], for out-of-range keys and for
    /// already-freed slots (an undelivered event's key is freed eagerly;
    /// its event later pops with a stale key and must read nothing).
    #[inline]
    pub fn take(&mut self, key: u32) -> Option<M> {
        let slot = self.slots.get_mut(key as usize)?;
        let msg = slot.take()?;
        self.live -= 1;
        self.free.push(key);
        Some(msg)
    }

    /// Payloads currently live in the slab.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots the slab holds memory for (live + reusable).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// How many inserts reused a freed slot instead of allocating.
    pub fn reuse_total(&self) -> u64 {
        self.reuse_total
    }

    /// Hand burst memory back: truncate trailing vacant slots (stable keys
    /// — live slots never move) and drop the now-dangling free-list
    /// entries. Cheap enough to call at every window barrier; does nothing
    /// while the slab is mostly live or already small.
    pub fn decay(&mut self) {
        if self.slots.len() <= DECAY_MIN_SLOTS || self.live * 4 > self.slots.len() {
            return;
        }
        while self.slots.len() > DECAY_MIN_SLOTS.max(self.live * 2) {
            match self.slots.last() {
                Some(None) => {
                    self.slots.pop();
                }
                _ => break,
            }
        }
        let len = self.slots.len() as u32;
        self.free.retain(|&k| k < len);
        self.slots.shrink_to(self.slots.len().max(DECAY_MIN_SLOTS));
        self.free.shrink_to(self.slots.len().max(DECAY_MIN_SLOTS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_round_trips_and_reuses_slots() {
        let mut arena = PayloadArena::new();
        let a = arena.insert("a");
        let b = arena.insert("b");
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.take(a), Some("a"));
        assert_eq!(arena.take(a), None, "double-take reads nothing");
        let c = arena.insert("c");
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(arena.reuse_total(), 1);
        assert_eq!(arena.take(b), Some("b"));
        assert_eq!(arena.take(c), Some("c"));
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.take(NO_PAYLOAD), None);
    }

    #[test]
    fn steady_state_traffic_never_grows_the_slab() {
        let mut arena = PayloadArena::new();
        // Warm up: 8 concurrently-live payloads.
        let keys: Vec<u32> = (0..8).map(|i| arena.insert(i)).collect();
        for k in keys {
            arena.take(k);
        }
        let cap = arena.capacity();
        for round in 0..1_000u32 {
            let keys: Vec<u32> = (0..8).map(|i| arena.insert(round + i)).collect();
            for k in keys {
                arena.take(k);
            }
        }
        assert_eq!(arena.capacity(), cap, "steady state allocates nothing");
        assert_eq!(
            arena.reuse_total(),
            8_000,
            "every post-warm-up insert reuses"
        );
    }

    #[test]
    fn decay_truncates_burst_memory_but_keeps_live_slots() {
        let mut arena = PayloadArena::new();
        let keys: Vec<u32> = (0..10_000).map(|i| arena.insert(i)).collect();
        // Keep a low-index straggler live; free the rest.
        for &k in &keys[1..] {
            arena.take(k);
        }
        assert_eq!(arena.capacity(), 10_000);
        arena.decay();
        assert!(
            arena.capacity() <= DECAY_MIN_SLOTS,
            "burst memory handed back, got {}",
            arena.capacity()
        );
        assert_eq!(arena.take(keys[0]), Some(0), "live payload survived decay");
        // Free-list entries beyond the truncation are gone: inserts after a
        // decay must land inside the shrunken slab.
        let k = arena.insert(7);
        assert!((k as usize) < DECAY_MIN_SLOTS + 1);
        assert_eq!(arena.take(k), Some(7));
    }

    #[test]
    fn decay_is_a_no_op_while_mostly_live() {
        let mut arena = PayloadArena::new();
        let keys: Vec<u32> = (0..1_000).map(|i| arena.insert(i)).collect();
        for &k in &keys[..100] {
            arena.take(k);
        }
        arena.decay();
        assert_eq!(arena.capacity(), 1_000, "a busy slab keeps its memory");
        for &k in &keys[100..] {
            assert!(arena.take(k).is_some());
        }
    }
}
