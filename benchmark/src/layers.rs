//! Single-layer probes: one public function of one module, timed in
//! batches.
//!
//! Each probe is recorded as one span per batch with the batch size as its
//! count; the reported figure is the median batch's time per call. The
//! inputs are the ones the workloads put through the layer: the relay
//! message and its 40-byte sealed frame for `net` and `node`, a 256-origin
//! store for `ae`, a 64-node folded page and a full 8 192-slot ring for
//! `obs`.

use crate::alloc;
use crate::spans::Tracer;
use crate::stats::{median, mix};
use crate::workloads::ae_swim_churn::AeSwimChurn;
use crate::workloads::udp_relay::{Relay, RelayMsg, UdpRelay};
use gossip_ae::{DigestTree, Entry, Store};
use gossip_net::{
    decode_frame, decode_frame_sealed, encode_frame, encode_frame_sealed, NodeId,
    FRAME_HEADER_BYTES,
};
use gossip_node::{FrameSink, NodeCore};
use gossip_obs::{reconstruct, Registry, TraceCtx, TraceKind, TraceReason, TraceRing};
use gossip_runtime::PayloadArena;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

/// Batches per probe; the median one is reported.
const BATCHES: usize = 3;

/// Batch sizes: calls per batch of a sub-microsecond, a microsecond-scale
/// and a 10–100 µs call; and the slots of the trace ring the `obs` probes
/// fill (E22's ring at full size).
pub struct Sizes {
    pub fast: usize,
    pub slow: usize,
    pub bulk: usize,
    pub ring_slots: usize,
}

impl Sizes {
    pub fn new(toy: bool) -> Self {
        if toy {
            Sizes {
                fast: 500,
                slow: 200,
                bulk: 5,
                ring_slots: 1 << 9,
            }
        } else {
            Sizes {
                fast: 100_000,
                slow: 100_000,
                bulk: 50,
                ring_slots: 1 << 13,
            }
        }
    }
}

/// Seconds per call of `f`, median of [`BATCHES`] batches of `calls`.
fn per_call(tr: &mut Tracer, name: &'static str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let span = tr.enter(name);
        let started = Instant::now();
        for i in 0..calls {
            f(i);
        }
        batches.push(started.elapsed().as_secs_f64() / calls as f64);
        tr.exit_counted(span, calls as u64);
    }
    median(&batches)
}

/// Heap allocations per call of `f` over `calls` calls.
fn allocs_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    alloc::start();
    for i in 0..calls {
        f(i);
    }
    let made = alloc::snapshot().calls;
    alloc::stop();
    made as f64 / calls as f64
}

/// A sink that counts what it was given and keeps nothing, so
/// `NodeCore` is timed without a socket and without a copy per frame.
struct CountingSink {
    frames: u64,
}

impl FrameSink for CountingSink {
    fn send_frame(&mut self, _addr: SocketAddr, frame: &[u8]) -> std::io::Result<usize> {
        self.frames += 1;
        Ok(frame.len())
    }
}

/// `net.wire.*` and `net.auth.*`: the codec and the tag on the relay
/// message.
pub fn net(tr: &mut Tracer, sizes: &Sizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    tr.set_rep("layers", 0);
    let key = UdpRelay::new(seed, true).key();
    let from = NodeId::new(1);
    let msg: RelayMsg = (5_000, mix(seed, 0));
    let bare = encode_frame(from, &msg);
    let sealed = encode_frame_sealed(from, TraceCtx::NONE, Some(&key), &msg);
    assert_eq!(sealed.len(), 40, "the relay's sealed frame is 40 bytes");
    let ns = 1e9;

    let t = per_call(tr, "net.wire.encode_frame", sizes.fast, |i| {
        black_box(encode_frame(from, black_box(&(i as u32, msg.1))));
    });
    out.push(("net.wire.encode_bare_ns", t * ns));
    let t = per_call(tr, "net.wire.decode_frame", sizes.fast, |_| {
        black_box(decode_frame::<RelayMsg>(black_box(&bare)).expect("a frame just encoded"));
    });
    out.push(("net.wire.decode_bare_ns", t * ns));
    let t = per_call(tr, "net.wire.encode_frame_sealed", sizes.slow, |i| {
        black_box(encode_frame_sealed(
            from,
            TraceCtx::NONE,
            Some(&key),
            black_box(&(i as u32, msg.1)),
        ));
    });
    out.push(("net.wire.encode_sealed_ns", t * ns));
    let t = per_call(tr, "net.wire.decode_frame_sealed", sizes.slow, |_| {
        black_box(
            decode_frame_sealed::<RelayMsg>(black_box(&sealed), Some(&key))
                .expect("a frame just sealed"),
        );
    });
    out.push(("net.wire.decode_sealed_ns", t * ns));
    out.push((
        "net.wire.allocs_per_encode",
        allocs_per_call(sizes.fast, |i| {
            black_box(encode_frame_sealed(
                from,
                TraceCtx::NONE,
                Some(&key),
                &(i as u32, msg.1),
            ));
        }),
    ));

    // What a 40-byte frame's tag covers: the header and the payload.
    let (head, payload) = (&bare[..FRAME_HEADER_BYTES], &bare[FRAME_HEADER_BYTES..]);
    let tag = key.tag_parts(&[head, payload]);
    let t = per_call(tr, "net.auth.tag_parts", sizes.slow, |_| {
        black_box(key.tag_parts(black_box(&[head, payload])));
    });
    out.push(("net.auth.tag_40b_ns", t * ns));
    let t = per_call(tr, "net.auth.verify_parts", sizes.slow, |_| {
        black_box(key.verify_parts(black_box(&[head, payload]), &tag));
    });
    out.push(("net.auth.verify_40b_ns", t * ns));
    let kib = vec![0xA5u8; 1024];
    let t = per_call(tr, "net.auth.tag_parts", sizes.slow / 10, |_| {
        black_box(key.tag_parts(black_box(&[head, &kib])));
    });
    out.push(("net.auth.tag_1k_ns", t * ns));
}

/// `node.core.*`: `NodeCore::on_datagram` on the relay handler, no socket.
/// Each datagram is decoded (and verified), dispatched, and answered with
/// one encoded (and sealed) frame into the sink: one relay hop less its
/// two system calls.
pub fn node_core(tr: &mut Tracer, sizes: &Sizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    tr.set_rep("layers", 0);
    let relay = UdpRelay::new(seed, true);
    let peers: Vec<SocketAddr> = (0..relay.hosts)
        .map(|i| SocketAddr::from(([127, 0, 0, 1], 40_000 + i as u16)))
        .collect();
    let (me, from) = (NodeId::new(1), NodeId::new(0));
    let msg: RelayMsg = (u32::MAX, mix(seed, 1));
    let mut sink = CountingSink { frames: 0 };
    for (keyed, name, metric) in [
        (
            true,
            "node.core.on_datagram(sealed)",
            "node.core.on_datagram_sealed_ns",
        ),
        (
            false,
            "node.core.on_datagram(bare)",
            "node.core.on_datagram_bare_ns",
        ),
    ] {
        let key = keyed.then(|| relay.key());
        let frame = encode_frame_sealed(from, TraceCtx::NONE, key.as_ref(), &msg);
        let core = NodeCore::new(me, peers.clone(), seed, Relay::new(me, relay.hosts));
        let mut core = match key {
            Some(key) => core.with_auth_key(key),
            None => core,
        };
        core.start(&mut sink);
        let t = per_call(tr, name, sizes.slow, |_| {
            black_box(core.on_datagram(black_box(&frame), peers[0], &mut sink));
        });
        out.push((metric, t * 1e9));
        if keyed {
            out.push((
                "node.core.allocs_per_datagram",
                allocs_per_call(sizes.fast, |_| {
                    core.on_datagram(&frame, peers[0], &mut sink);
                }),
            ));
        }
        assert_eq!(
            core.stats().messages_dispatched,
            sink.frames,
            "every datagram is dispatched and forwarded"
        );
        sink.frames = 0;
    }
}

/// `runtime.arena.*`, `ae.store.*`, `ae.merkle.*`.
pub fn stores(tr: &mut Tracer, sizes: &Sizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    tr.set_rep("layers", 0);
    let mut arena: PayloadArena<f64> = PayloadArena::new();
    // Sixteen payloads stay live, as many as a busy node has in flight.
    let mut keys: Vec<u32> = (0..16).map(|i| arena.insert(f64::from(i))).collect();
    let t = per_call(tr, "runtime.arena.insert+take", sizes.fast, |i| {
        let slot = i % keys.len();
        black_box(arena.take(keys[slot]));
        keys[slot] = arena.insert(black_box(i as f64));
    });
    out.push(("runtime.arena.insert_take_ns", t * 1e9));

    let n = AeSwimChurn::new(seed, false).n;
    let mut store = Store::new(n);
    for i in 0..n {
        store.merge(
            NodeId::new(i),
            Entry {
                stamp: 1,
                value: i as f64,
            },
        );
    }
    let mut tree = DigestTree::new(&store, 32);
    let mut stamp = 1;
    let t = per_call(tr, "ae.store.merge", sizes.fast, |i| {
        // Every merge adopts: each call's stamp is newer than the last.
        stamp += 1;
        let entry = Entry {
            stamp,
            value: i as f64,
        };
        black_box(store.merge(NodeId::new(i % n), black_box(entry)));
    });
    out.push(("ae.store.merge_ns", t * 1e9));
    let t = per_call(tr, "ae.merkle.refresh", sizes.fast, |i| {
        tree.refresh(
            NodeId::new(mix(seed, i as u64) as usize % n),
            black_box(&store),
        );
    });
    out.push(("ae.merkle.refresh_ns", t * 1e9));
    let t = per_call(tr, "ae.merkle.rebuild", sizes.slow / 50, |_| {
        tree.rebuild(black_box(&store));
    });
    black_box(tree.root());
    out.push(("ae.merkle.rebuild_us", t * 1e6));
}

/// `obs.*`: nothing gated runs with observability on, so these are read
/// beside `runtime.shard.trace_on_ratio` only.
pub fn obs(tr: &mut Tracer, sizes: &Sizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    tr.set_rep("layers", 0);
    // A 64-node SWIM + anti-entropy population, traced, run until its
    // ring has wrapped: the page and the ring a deployment would serve.
    let small = AeSwimChurn {
        n: 64,
        ..AeSwimChurn::new(seed, false)
    };
    let mut driver = small.driver().with_trace(sizes.ring_slots);
    let mut ticks = 0;
    while driver.trace().map_or(0, |ring| ring.len()) < sizes.ring_slots && ticks < 200 {
        ticks += 4;
        driver.run_until(ticks * 1_000_000);
    }
    let mut registry = Registry::new();
    driver.fill_registry(&mut registry);
    let ring = driver.trace().expect("the driver was built with a ring");

    let t = per_call(tr, "obs.registry.render", sizes.bulk, |_| {
        black_box(registry.render());
    });
    out.push(("obs.registry.render_us", t * 1e6));
    let mut scratch = TraceRing::new(sizes.ring_slots);
    let t = per_call(tr, "obs.trace.record_ctx", sizes.fast, |i| {
        let i = i as u64;
        scratch.record_ctx(
            i,
            i % 64,
            (i + 1) % 64,
            TraceKind::Send,
            TraceReason::None,
            TraceCtx::derive(i % 64, i),
        );
    });
    black_box(scratch.total());
    out.push(("obs.trace.record_ns", t * 1e9));
    let t = per_call(tr, "obs.causal.reconstruct", sizes.bulk, |_| {
        black_box(reconstruct(black_box(&ring)).events);
    });
    out.push(("obs.causal.reconstruct_us", t * 1e6));
}

/// Peak resident set of the process (`VmHWM`), MiB; 0 where procfs is
/// absent.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
