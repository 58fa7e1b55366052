//! The Merkle exchange's allocation budget, pinned: every reply vector a
//! descent or a range repair builds is allocated once, at its final length
//! — one allocation per non-empty `RangeAck`, `Delta`, `RangeSyn` and
//! `MerkleProbe`, no reallocation, and `capacity() == len()` on every
//! vector that leaves the node. A reply vector grown by doubling would
//! show here as extra `realloc` calls. The classic exchange's whole-store
//! builders (`SynReq`, `SynAck` and their closing `Delta`) collect in one
//! pass and are not pinned: sizing them first would cost a second O(n)
//! scan per reply.
//!
//! Driven through `AeNode::on_message` with a mailbox whose outbox is
//! reserved up front, so the only heap traffic left is the replies' own.
//! The counting `#[global_allocator]` counts per thread, so the parallel
//! test threads of this binary do not see each other's allocations.

use gossip_ae::protocol::{AeConfig, AeMsg, AeNode, DigestMode};
use gossip_ae::store::Entry;
use gossip_ae::Handler;
use gossip_net::{Mailbox, NodeId, Phase, TimerId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (`alloc` and `realloc` calls) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with
// a const initialiser and no destructor, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Store arity and leaf span: an eight-leaf tree whose root splits.
const N: usize = 64;
const SPAN: usize = 8;

/// Keeps what the node sends in an outbox reserved up front.
struct Outbox {
    rng: SmallRng,
    sent: Vec<AeMsg>,
}

impl Outbox {
    fn new() -> Self {
        Outbox {
            rng: SmallRng::seed_from_u64(7),
            sent: Vec::with_capacity(16),
        }
    }
}

impl Mailbox<AeMsg> for Outbox {
    fn me(&self) -> NodeId {
        NodeId::new(0)
    }
    fn n(&self) -> usize {
        N
    }
    fn now_us(&self) -> u64 {
        1_000
    }
    fn send(&mut self, _to: NodeId, _phase: Phase, _bits: u32, msg: AeMsg) {
        assert!(self.sent.len() < self.sent.capacity(), "outbox full");
        self.sent.push(msg);
    }
    fn set_timer(&mut self, _delay_us: u64, _timer: TimerId) {}
    fn cancel_timer(&mut self, _timer: TimerId) {}
    fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

fn entry(stamp: u64) -> Entry {
    Entry {
        stamp,
        value: stamp as f64,
    }
}

/// A Merkle node with leaves of `span` slots holding stamp `10 + i` at
/// every origin `i` in `origins`.
fn node_with_span(span: usize, origins: impl IntoIterator<Item = usize>) -> AeNode {
    let config = AeConfig::default()
        .with_digest_mode(DigestMode::Merkle)
        .with_merkle_fallback_slots(span);
    let mut node = AeNode::new(NodeId::new(0), N, 6, 24, config);
    for i in origins {
        node.seed_entry(NodeId::new(i), entry(10 + i as u64));
    }
    node
}

/// [`node_with_span`] at leaves of [`SPAN`] slots.
fn node(origins: impl IntoIterator<Item = usize>) -> AeNode {
    node_with_span(SPAN, origins)
}

/// Deliver `msg` and return the replies with the allocations the delivery
/// made (the message itself is built before counting starts).
fn deliver(node: &mut AeNode, msg: AeMsg) -> (Vec<AeMsg>, u64) {
    let mut outbox = Outbox::new();
    let before = allocs();
    node.on_message(NodeId::new(1), msg, &mut outbox);
    let spent = allocs() - before;
    (outbox.sent, spent)
}

/// Every vector a reply carries, as `(len, capacity)`.
fn vectors(msg: &AeMsg) -> Vec<(usize, usize)> {
    match msg {
        AeMsg::Delta { delta } | AeMsg::RangeAck { delta, .. } => {
            vec![(delta.len(), delta.capacity())]
        }
        AeMsg::MerkleSyn { .. } => Vec::new(),
        AeMsg::MerkleProbe { probes, .. } => vec![(probes.len(), probes.capacity())],
        AeMsg::RangeSyn { stamps, .. } => vec![(stamps.len(), stamps.capacity())],
        AeMsg::SynReq { .. } | AeMsg::SynAck { .. } => panic!("{msg:?} is not a Merkle reply"),
    }
}

/// The one reply `msg` draws from `node`: its allocations must be one per
/// non-empty vector it carries, each vector exactly as long as it is wide.
fn one_reply(node: &mut AeNode, msg: AeMsg) -> AeMsg {
    let (mut replies, spent) = deliver(node, msg);
    assert_eq!(replies.len(), 1, "{replies:?}");
    let reply = replies.pop().expect("one reply");
    let vectors = vectors(&reply);
    for &(len, capacity) in &vectors {
        assert_eq!(capacity, len, "{reply:?} carries spare capacity");
    }
    let non_empty = vectors.iter().filter(|&&(len, _)| len > 0).count() as u64;
    assert!(non_empty > 0, "{reply:?} carries nothing");
    assert_eq!(spent, non_empty, "{reply:?} took {spent} allocations");
    reply
}

#[test]
fn range_repair_replies_are_one_allocation_each() {
    // In the first leaf, the initiator holds the origins 1 and 7, the
    // responder the six others: lengths a doubling vector overshoots.
    let mut initiator = node([1, SPAN - 1]);
    let mut responder = node((2..SPAN - 1).chain([0]));
    let syn = AeMsg::RangeSyn {
        n: N as u32,
        start: 0,
        stamps: initiator.store().range_digest(0, SPAN),
    };
    let ack = one_reply(&mut responder, syn);
    let AeMsg::RangeAck { want, delta, .. } = &ack else {
        panic!("{ack:?} is not a range ack");
    };
    assert_eq!(delta.len(), SPAN - 2, "the responder's origins");
    assert_eq!(*want, 0b1000_0010, "the initiator's origins");
    let back = one_reply(&mut initiator, ack);
    let AeMsg::Delta { delta } = &back else {
        panic!("{back:?} is not a delta");
    };
    assert_eq!(delta.len(), 2);
    // The closing delta adopts without allocating and draws no reply.
    let (replies, spent) = deliver(&mut responder, back);
    assert!(replies.is_empty());
    assert_eq!(spent, 0, "adopting a delta allocated {spent} times");
    assert_eq!(initiator.store(), responder.store());
}

#[test]
fn descent_replies_are_one_allocation_each() {
    let mut responder = node(0..N);
    // A root mismatch is answered with one two-pair probe…
    let probe = one_reply(
        &mut responder,
        AeMsg::MerkleSyn {
            n: N as u32,
            root: 0,
        },
    );
    assert!(matches!(&probe, AeMsg::MerkleProbe { probes, .. } if probes.len() == 2));
    // …and a mismatching leaf with one range syn over its span.
    let leaf = N / SPAN - 1 + 3;
    let syn = one_reply(
        &mut responder,
        AeMsg::MerkleProbe {
            n: N as u32,
            probes: vec![(leaf as u32, 0)],
        },
    );
    assert!(matches!(&syn, AeMsg::RangeSyn { start, stamps, .. }
        if *start as usize == 3 * SPAN && stamps.len() == SPAN));
    // A tree that is one leaf answers a root mismatch with a range syn
    // over the whole store, and builds no probe front beside it.
    let mut one_leaf = node_with_span(N, 0..N);
    let syn = one_reply(
        &mut one_leaf,
        AeMsg::MerkleSyn {
            n: N as u32,
            root: 0,
        },
    );
    assert!(matches!(&syn, AeMsg::RangeSyn { stamps, .. } if stamps.len() == N));
}
