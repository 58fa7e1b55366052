//! The frame path's allocation budget, pinned: once a [`NodeCore`] has
//! sent its first frame, a datagram in → handler → frame out hop touches
//! no heap, keyed or not, and a rejected datagram never does.
//!
//! Driven through an in-memory [`FrameSink`], no socket. The counting
//! `#[global_allocator]` counts per thread, so the parallel test threads
//! of this binary do not see each other's allocations.

use gossip_net::{
    encode_frame, encode_frame_sealed, AuthKey, Handler, Mailbox, NodeId, Phase, TimerId,
};
use gossip_node::{FrameSink, NodeCore, Recv};
use gossip_obs::TraceCtx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::net::SocketAddr;

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

/// Forwards every message to the other node of a two-node book.
struct Relay;

impl Handler for Relay {
    type Msg = (u32, u64);
    fn on_start(&mut self, _mailbox: &mut dyn Mailbox<Self::Msg>) {}
    fn on_message(
        &mut self,
        _from: NodeId,
        (hop, sum): Self::Msg,
        mailbox: &mut dyn Mailbox<Self::Msg>,
    ) {
        let next = NodeId::new(1 - mailbox.me().index());
        mailbox.send(next, Phase::Other, 96, (hop + 1, sum ^ u64::from(hop)));
    }
    fn on_timer(&mut self, _timer: TimerId, _mailbox: &mut dyn Mailbox<Self::Msg>) {}
}

/// Keeps the last frame sent (in a buffer it reuses) and counts them.
#[derive(Default)]
struct LastFrame {
    frames: u64,
    last: Vec<u8>,
}

impl FrameSink for LastFrame {
    fn send_frame(&mut self, _addr: SocketAddr, frame: &[u8]) -> io::Result<usize> {
        self.frames += 1;
        self.last.clear();
        self.last.extend_from_slice(frame);
        Ok(frame.len())
    }
}

fn book() -> Vec<SocketAddr> {
    vec![
        "127.0.0.1:9000".parse().unwrap(),
        "127.0.0.1:9001".parse().unwrap(),
    ]
}

fn relay_pair(key: Option<&AuthKey>) -> [NodeCore<Relay>; 2] {
    [0, 1].map(|i| {
        let core = NodeCore::new(NodeId::new(i), book(), 7, Relay);
        match key {
            Some(key) => core.with_auth_key(key.clone()),
            None => core,
        }
    })
}

/// Bounce one token between two cores for `hops` hops; every hop is one
/// `on_datagram` (decode, verify) and one forward (encode, seal, sink).
fn bounce(
    cores: &mut [NodeCore<Relay>; 2],
    wire: &mut LastFrame,
    inbound: &mut Vec<u8>,
    book: &[SocketAddr],
    hops: u64,
) {
    for _ in 0..hops {
        // Node 0 opens towards node 1 and every hop turns the token round.
        let to = (wire.frames as usize + 1) % 2;
        let got = cores[to].on_datagram(inbound, book[1 - to], wire);
        assert_eq!(got, Recv::Dispatched);
        std::mem::swap(inbound, &mut wire.last);
    }
}

fn forwarding_allocates_nothing(key: Option<AuthKey>) {
    let key = key.as_ref();
    let mut cores = relay_pair(key);
    let mut wire = LastFrame::default();
    for core in &mut cores {
        core.start(&mut wire);
    }
    // Node 0's opening frame, addressed to node 1.
    let mut inbound = encode_frame_sealed(NodeId::new(0), TraceCtx::NONE, key, &(0u32, 1u64));
    let book = book();
    bounce(&mut cores, &mut wire, &mut inbound, &book, 16);

    let before = allocs();
    bounce(&mut cores, &mut wire, &mut inbound, &book, 1_000);
    let spent = allocs() - before;

    assert_eq!(spent, 0, "1 000 forward hops allocated {spent} times");
    assert_eq!(wire.frames, 1_016);
    let stats = [cores[0].stats(), cores[1].stats()];
    assert_eq!(
        stats[0].messages_dispatched + stats[1].messages_dispatched,
        1_016
    );
    assert_eq!(stats[0].datagrams_sent + stats[1].datagrams_sent, 1_016);
    for s in stats {
        assert_eq!(
            s.decode_errors + s.auth_reject + s.send_errors + s.send_oversize,
            0
        );
    }
}

#[test]
fn a_keyed_forward_hop_allocates_nothing() {
    forwarding_allocates_nothing(Some(AuthKey::from_passphrase("alloc-suite")));
}

#[test]
fn an_unkeyed_forward_hop_allocates_nothing() {
    forwarding_allocates_nothing(None);
}

#[test]
fn rejecting_forged_and_bare_frames_allocates_nothing() {
    let key = AuthKey::from_passphrase("alloc-suite");
    let [mut core, _] = relay_pair(Some(&key));
    let mut wire = LastFrame::default();
    core.start(&mut wire);
    let src = book()[1];
    let msg = (3u32, 4u64);
    let bare = encode_frame(NodeId::new(1), &msg);
    let mut forged = encode_frame_sealed(NodeId::new(1), TraceCtx::NONE, Some(&key), &msg);
    *forged.last_mut().unwrap() ^= 1;
    let wrong_key = AuthKey::from_passphrase("not-the-cluster-key");
    let foreign = encode_frame_sealed(NodeId::new(1), TraceCtx::NONE, Some(&wrong_key), &msg);

    let before = allocs();
    for i in 0..1_000 {
        let frame = [&bare, &forged, &foreign][i % 3];
        assert_eq!(core.on_datagram(frame, src, &mut wire), Recv::Rejected);
    }
    let spent = allocs() - before;

    assert_eq!(spent, 0, "1 000 rejections allocated {spent} times");
    assert_eq!(core.stats().auth_reject, 1_000);
    assert_eq!(core.stats().messages_dispatched, 0);
    assert_eq!(wire.frames, 0, "a rejected frame reaches no handler");
}

/// Sends whatever it is handed, so a test can inject any payload size.
struct Outbox;

impl Handler for Outbox {
    type Msg = Vec<u64>;
    fn on_start(&mut self, _mailbox: &mut dyn Mailbox<Self::Msg>) {}
    fn on_message(
        &mut self,
        _from: NodeId,
        _msg: Self::Msg,
        _mailbox: &mut dyn Mailbox<Self::Msg>,
    ) {
    }
    fn on_timer(&mut self, _timer: TimerId, _mailbox: &mut dyn Mailbox<Self::Msg>) {}
}

#[test]
fn an_oversize_payload_sends_nothing_and_is_counted_once() {
    let key = AuthKey::from_passphrase("alloc-suite");
    let mut core = NodeCore::new(NodeId::new(0), book(), 7, Outbox).with_auth_key(key.clone());
    let mut wire = LastFrame::default();
    let send = |core: &mut NodeCore<Outbox>, wire: &mut LastFrame, msg: Vec<u64>| {
        core.with_handler(wire, |_, mailbox| {
            mailbox.send(NodeId::new(1), Phase::Other, 32, msg)
        })
    };

    // 4 + 9 000 × 8 bytes: beyond one datagram.
    send(&mut core, &mut wire, vec![7; 9_000]);
    assert_eq!(wire.frames, 0, "nothing reaches the sink");
    assert_eq!(core.stats().send_oversize, 1);
    assert_eq!(core.stats().datagrams_sent, 0);
    assert_eq!(core.stats().send_errors, 0);

    // The buffer the oversize message grew carries nothing into the next
    // frame.
    send(&mut core, &mut wire, vec![42]);
    assert_eq!(wire.frames, 1);
    assert_eq!(core.stats().send_oversize, 1);
    assert_eq!(
        wire.last,
        encode_frame_sealed(NodeId::new(0), TraceCtx::NONE, Some(&key), &vec![42u64])
    );
    assert_eq!(core.stats().bytes_sent, wire.last.len() as u64);
}
