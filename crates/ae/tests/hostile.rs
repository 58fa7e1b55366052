//! Regression suite for the untrusted digest path: hostile `AeMsg`s that
//! *decode cleanly* — the frame layer cannot reject them — must be
//! dropped and counted by the protocol layer, never panic a node, and
//! never amplify its sends.
//!
//! The bugs pinned here were real: `Store::delta_for` only
//! `debug_assert!`ed digest arity, so in a release build a short hostile
//! digest made a node ship its **entire store** (amplification), a long
//! one was silently truncated, an out-of-range delta origin indexed out
//! of bounds, and a stamp-0 entry violated the store's "0 = absent"
//! invariant. Every message here goes through the real wire
//! encode→decode before it reaches `on_message`, exactly like a datagram.

use gossip_ae::protocol::{AeConfig, AeMsg, AeNode, DigestMode};
use gossip_ae::store::{Entry, Store};
use gossip_ae::{reconcile, MAX_RANGE_SLOTS};
use gossip_net::{
    decode_frame, encode_frame, Mailbox, NodeId, Phase, TimerId, WireError, WireMsg, WireReader,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const N: usize = 8;

/// A recording mailbox: everything the node sends lands in `outbox`.
struct RecordingMailbox {
    me: NodeId,
    now: u64,
    rng: SmallRng,
    outbox: Vec<(NodeId, u32, AeMsg)>,
}

impl RecordingMailbox {
    fn new(me: NodeId) -> Self {
        RecordingMailbox {
            me,
            now: 1_000,
            rng: SmallRng::seed_from_u64(7),
            outbox: Vec::new(),
        }
    }
}

impl Mailbox<AeMsg> for RecordingMailbox {
    fn me(&self) -> NodeId {
        self.me
    }
    fn n(&self) -> usize {
        N
    }
    fn now_us(&self) -> u64 {
        self.now
    }
    fn send(&mut self, to: NodeId, _phase: Phase, bits: u32, msg: AeMsg) {
        self.outbox.push((to, bits, msg));
    }
    fn set_timer(&mut self, _delay_us: u64, _timer: TimerId) {}
    fn cancel_timer(&mut self, _timer: TimerId) {}
    fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// A node with a populated store, plus its mailbox.
fn populated_node(mode: DigestMode) -> (AeNode, RecordingMailbox) {
    let config = AeConfig::default().with_digest_mode(mode);
    let mut node = AeNode::new(NodeId::new(0), N, 3, 24, config);
    for i in 0..N {
        node.seed_entry(
            NodeId::new(i),
            Entry {
                stamp: 10 + i as u64,
                value: i as f64,
            },
        );
    }
    (node, RecordingMailbox::new(NodeId::new(0)))
}

/// Ship `msg` through the real wire (encode → decode) into `on_message`.
fn deliver_over_wire(node: &mut AeNode, mailbox: &mut RecordingMailbox, msg: &AeMsg) {
    use gossip_net::Handler;
    let frame = encode_frame(NodeId::new(1), msg);
    let (from, decoded): (NodeId, AeMsg) = decode_frame(&frame).expect("structurally valid");
    node.on_message(from, decoded, mailbox);
}

/// Sparse digests standing in for the old suite's short / long / empty
/// dense digests, plus the shapes only the sparse form can be hostile in.
fn hostile_digests() -> Vec<AeMsg> {
    let short = AeMsg::SynReq {
        n: N as u32 - 1, // "short digest": claims a smaller arity
        digest: vec![(NodeId::new(0), 5)],
    };
    let long = AeMsg::SynReq {
        n: N as u32 + 9, // "long digest": claims a larger arity
        digest: (0..N + 9).map(|i| (NodeId::new(i), 1)).collect(),
    };
    let empty = AeMsg::SynReq {
        n: 0, // "empty digest": zero arity from a different universe
        digest: Vec::new(),
    };
    let out_of_range = AeMsg::SynReq {
        n: N as u32, // right arity, origins beyond it
        digest: vec![(NodeId::new(N + 3), 5)],
    };
    let unsorted = AeMsg::SynReq {
        n: N as u32, // right arity, pairs out of order (breaks the merge walk)
        digest: vec![(NodeId::new(3), 5), (NodeId::new(1), 2)],
    };
    let duplicate = AeMsg::SynReq {
        n: N as u32,
        digest: vec![(NodeId::new(2), 5), (NodeId::new(2), 9)],
    };
    let zero_stamp = AeMsg::SynReq {
        n: N as u32, // stamp 0 is the code for absent; honest senders omit
        digest: vec![(NodeId::new(2), 0)],
    };
    vec![
        short,
        long,
        empty,
        out_of_range,
        unsorted,
        duplicate,
        zero_stamp,
    ]
}

#[test]
fn hostile_digest_arity_is_dropped_counted_and_never_amplifies() {
    for mode in [DigestMode::Dense, DigestMode::Merkle] {
        let (mut node, mut mailbox) = populated_node(mode);
        let hostiles = hostile_digests();
        for msg in &hostiles {
            deliver_over_wire(&mut node, &mut mailbox, msg);
        }
        assert_eq!(
            node.stats.digest_mismatches,
            hostiles.len() as u64,
            "every hostile digest counted ({mode:?})"
        );
        assert!(
            mailbox.outbox.is_empty(),
            "a hostile digest must draw no reply at all ({mode:?}) — a short \
             one used to make the node ship its whole store"
        );
    }
}

#[test]
fn hostile_synack_digests_and_deltas_are_dropped() {
    let (mut node, mut mailbox) = populated_node(DigestMode::Dense);
    let before = node.store().clone();
    // SynAck with a mismatched arity: neither the delta nor the digest may
    // be trusted (the delta could be replayed garbage for another arity).
    deliver_over_wire(
        &mut node,
        &mut mailbox,
        &AeMsg::SynAck {
            n: N as u32 + 1,
            delta: vec![(
                NodeId::new(1),
                Entry {
                    stamp: 99,
                    value: 1.0,
                },
            )],
            digest: Vec::new(),
        },
    );
    assert_eq!(node.stats.digest_mismatches, 1);
    assert_eq!(node.store(), &before, "nothing adopted from a bad arity");
    assert!(mailbox.outbox.is_empty());

    // Deltas with out-of-range origins (used to index out of bounds) and
    // stamp-0 entries (used to trip the store's stamp invariant): dropped
    // pair-by-pair, honest pairs still merge.
    deliver_over_wire(
        &mut node,
        &mut mailbox,
        &AeMsg::Delta {
            delta: vec![
                (
                    NodeId::new(1 << 30),
                    Entry {
                        stamp: 5,
                        value: 0.0,
                    },
                ),
                (
                    NodeId::new(2),
                    Entry {
                        stamp: 0,
                        value: 0.0,
                    },
                ),
                (
                    NodeId::new(3),
                    Entry {
                        stamp: 777,
                        value: 3.5,
                    },
                ),
            ],
        },
    );
    assert_eq!(node.stats.digest_mismatches, 3, "two hostile pairs counted");
    assert_eq!(node.stats.entries_adopted, 1, "the honest pair merged");
    assert_eq!(node.store().get(NodeId::new(3)).unwrap().stamp, 777);
}

#[test]
fn hostile_merkle_legs_are_dropped_in_merkle_mode() {
    let (mut node, mut mailbox) = populated_node(DigestMode::Merkle);
    let before = node.store().clone();
    for msg in [
        AeMsg::MerkleSyn {
            n: N as u32 + 1,
            root: 0xDEAD,
        },
        AeMsg::MerkleProbe {
            n: N as u32 - 1,
            probes: vec![(0, 1)],
        },
        AeMsg::RangeSyn {
            n: N as u32,
            start: N as u32,
            stamps: vec![1],
        },
        AeMsg::RangeSyn {
            n: N as u32,
            start: u32::MAX,
            stamps: vec![1, 2, 3],
        },
        AeMsg::RangeAck {
            n: N as u32,
            start: 4,
            len: N as u8, // overflows past the end of the store
            want: 0,
            delta: Vec::new(),
        },
        // An empty range: no honest descent sends one.
        AeMsg::RangeAck {
            n: N as u32,
            start: 0,
            len: 0,
            want: 0,
            delta: Vec::new(),
        },
        // Want words naming slots beyond the range, just past it and at
        // the word's top bit.
        AeMsg::RangeAck {
            n: N as u32,
            start: 2,
            len: 2,
            want: 0b101,
            delta: Vec::new(),
        },
        AeMsg::RangeAck {
            n: N as u32,
            start: 0,
            len: N as u8,
            want: 1 << 63,
            delta: Vec::new(),
        },
    ] {
        deliver_over_wire(&mut node, &mut mailbox, &msg);
    }
    assert_eq!(node.stats.digest_mismatches, 8);
    assert_eq!(node.store(), &before);
    assert!(mailbox.outbox.is_empty());
}

#[test]
fn range_legs_wider_than_the_fallback_span_are_dropped() {
    let config = AeConfig::default()
        .with_digest_mode(DigestMode::Merkle)
        .with_merkle_fallback_slots(4);
    let mut node = AeNode::new(NodeId::new(0), N, 3, 24, config);
    let mut mailbox = RecordingMailbox::new(NodeId::new(0));
    for msg in [
        AeMsg::RangeSyn {
            n: N as u32,
            start: 0,
            stamps: vec![1; 5],
        },
        AeMsg::RangeAck {
            n: N as u32,
            start: 0,
            len: 5,
            want: 0b1_0000,
            delta: Vec::new(),
        },
    ] {
        deliver_over_wire(&mut node, &mut mailbox, &msg);
    }
    assert_eq!(node.stats.digest_mismatches, 2);
    assert!(mailbox.outbox.is_empty());
}

#[test]
fn range_legs_wider_than_a_want_word_are_dropped() {
    // The wire cannot carry a range ack past 64 slots, so hand these to
    // the engine and the node directly. The bare engine takes any
    // fallback span; the want word still caps the range at 64 slots.
    let n = 4 * MAX_RANGE_SLOTS;
    let wide = MAX_RANGE_SLOTS + 1;
    let ack = AeMsg::RangeAck {
        n: n as u32,
        start: 0,
        len: wide as u8,
        want: 1,
        delta: Vec::new(),
    };
    let syn = AeMsg::RangeSyn {
        n: n as u32,
        start: 0,
        stamps: vec![1; wide],
    };
    let mut store = Store::new(n);
    for msg in [&ack, &syn] {
        let handled = reconcile(&mut store, None, 2 * MAX_RANGE_SLOTS, msg);
        assert_eq!(handled.invalid, 1, "{msg:?} must be dropped");
        assert!(handled.replies.is_empty(), "{msg:?} must draw no reply");
    }

    use gossip_net::Handler;
    let config = AeConfig::default()
        .with_digest_mode(DigestMode::Merkle)
        .with_merkle_fallback_slots(MAX_RANGE_SLOTS);
    let mut node = AeNode::new(NodeId::new(0), n, 8, 24, config);
    let mut mailbox = RecordingMailbox::new(NodeId::new(0));
    node.on_message(NodeId::new(1), ack, &mut mailbox);
    node.on_message(NodeId::new(1), syn, &mut mailbox);
    assert_eq!(node.stats.digest_mismatches, 2);
    assert!(mailbox.outbox.is_empty());
}

#[test]
fn range_acks_past_a_want_word_or_cut_short_fail_to_decode() {
    let ack = |len: u8| AeMsg::RangeAck {
        n: 1 << 10,
        start: 0,
        len,
        want: 1,
        delta: vec![(
            NodeId::new(0),
            Entry {
                stamp: 3,
                value: 1.0,
            },
        )],
    };
    for len in [MAX_RANGE_SLOTS as u8 + 1, u8::MAX] {
        let frame = encode_frame(NodeId::new(1), &ack(len));
        assert_eq!(
            decode_frame::<AeMsg>(&frame),
            Err(WireError::BadLength {
                claimed: len.into()
            })
        );
    }
    let frame = encode_frame(NodeId::new(1), &ack(MAX_RANGE_SLOTS as u8));
    assert!(decode_frame::<AeMsg>(&frame).is_ok());
    for cut in 0..frame.len() {
        assert!(
            decode_frame::<AeMsg>(&frame[..cut]).is_err(),
            "cut at {cut}"
        );
    }
}

#[test]
fn range_syns_past_a_want_word_fail_to_decode() {
    // Width-0 codes (an all-absent range) take no bytes, so without the
    // length check a hostile length would pass `check_len` and allocate.
    for stamps in [vec![0; MAX_RANGE_SLOTS + 1], vec![0; 200], vec![7; 255]] {
        let len = stamps.len();
        let syn = AeMsg::RangeSyn {
            n: 1 << 10,
            start: 0,
            stamps,
        };
        assert_eq!(
            decode_frame::<AeMsg>(&encode_frame(NodeId::new(1), &syn)),
            Err(WireError::BadLength { claimed: len })
        );
    }
    let syn = AeMsg::RangeSyn {
        n: 1 << 10,
        start: 0,
        stamps: vec![0; MAX_RANGE_SLOTS],
    };
    assert!(decode_frame::<AeMsg>(&encode_frame(NodeId::new(1), &syn)).is_ok());
}

/// Payload offsets of a range syn's run: tag, arity, start, length, then
/// the `u64` base, the width byte and the codes.
const SYN_WIDTH_AT: usize = 1 + 4 + 4 + 1 + 8;

#[test]
fn run_widths_above_eight_bytes_fail_to_decode() {
    let syn = AeMsg::RangeSyn {
        n: 64,
        start: 0,
        stamps: vec![5, 0, 6],
    };
    let mut bytes = syn.to_wire_bytes();
    assert_eq!(bytes[SYN_WIDTH_AT], 1, "codes 1..2 take one byte");
    for width in [9u8, 64, u8::MAX] {
        bytes[SYN_WIDTH_AT] = width;
        // Pad so the claimed codes would be there: only the width is wrong.
        let mut padded = bytes.clone();
        padded.resize(SYN_WIDTH_AT + 1 + 3 * usize::from(width), 0);
        assert_eq!(
            AeMsg::decode(&mut WireReader::new(&padded)),
            Err(WireError::OutOfRange {
                value: width.into()
            })
        );
    }
}

#[test]
fn codes_that_overflow_their_base_fail_to_decode() {
    let syn = AeMsg::RangeSyn {
        n: 64,
        start: 0,
        stamps: vec![u64::MAX - 1, u64::MAX],
    };
    let mut bytes = syn.to_wire_bytes();
    let codes = SYN_WIDTH_AT + 1;
    assert_eq!(&bytes[codes..], [1, 2], "the top stamp is the top code");
    assert_eq!(AeMsg::decode(&mut WireReader::new(&bytes)), Ok(syn));
    bytes[codes + 1] = 3; // one past u64::MAX
    assert_eq!(
        AeMsg::decode(&mut WireReader::new(&bytes)),
        Err(WireError::OutOfRange { value: 3 })
    );
}

#[test]
fn range_ack_offsets_outside_the_range_fail_to_decode() {
    let entry = Entry {
        stamp: 3,
        value: 1.0,
    };
    // Tag, arity, start, length, want, count, run header: then the first
    // entry's slot offset.
    let offset_at = 1 + 4 + 4 + 1 + 8 + 4 + 9;
    for (start, len, offset, origin) in [
        (8u32, 4u8, 4u8, 12u64),       // offset = len
        (8, 4, u8::MAX, 8 + 255),      // far past the length
        (u32::MAX - 1, 4, 2, 1 << 32), // start + offset past u32
    ] {
        let ack = AeMsg::RangeAck {
            n: 1 << 10,
            start,
            len,
            want: 0,
            delta: vec![(NodeId(start + 1), entry)],
        };
        let mut bytes = ack.to_wire_bytes();
        assert_eq!(bytes[offset_at], 1);
        assert_eq!(AeMsg::decode(&mut WireReader::new(&bytes)), Ok(ack));
        bytes[offset_at] = offset;
        assert_eq!(
            AeMsg::decode(&mut WireReader::new(&bytes)),
            Err(WireError::OutOfRange { value: origin })
        );
    }
}

#[test]
fn version_one_frames_are_refused() {
    // A pre-codec peer's Delta: fixed-width stamps under version 1. Read
    // as stamp runs it could decode as well-formed with a wrong stamp, and
    // the max-stamp merge would keep a bogus far-future stamp forever, so
    // the frame layer refuses the version before the payload is parsed.
    assert_eq!(gossip_net::WIRE_VERSION, 2);
    let mut payload = vec![2u8]; // TAG_DELTA
    payload.extend_from_slice(&1u32.to_le_bytes()); // one entry
    payload.extend_from_slice(&3u32.to_le_bytes()); // origin
    payload.extend_from_slice(&7_000_000u64.to_le_bytes()); // stamp
    payload.extend_from_slice(&2.5f64.to_le_bytes()); // value
    let mut frame = gossip_net::frame_with_payload(NodeId::new(1), &payload);
    frame[2] = 1;
    assert_eq!(
        decode_frame::<AeMsg>(&frame),
        Err(WireError::VersionMismatch { found: 1 })
    );
}

#[test]
#[should_panic(expected = "merkle_fallback_slots = 65 exceeds 64")]
fn fallback_spans_past_a_want_word_are_refused_by_the_config() {
    let _ = AeConfig::default().with_merkle_fallback_slots(MAX_RANGE_SLOTS + 1);
}

#[test]
#[should_panic(expected = "merkle_fallback_slots = 65 exceeds 64")]
fn fallback_spans_past_a_want_word_are_refused_by_the_node() {
    let config = AeConfig {
        merkle_fallback_slots: MAX_RANGE_SLOTS + 1,
        ..AeConfig::default().with_digest_mode(DigestMode::Merkle)
    };
    let _ = AeNode::new(NodeId::new(0), 4 * MAX_RANGE_SLOTS, 8, 24, config);
}

#[test]
fn honest_wire_traffic_still_reconciles_after_the_validation() {
    // The validation must not break the protocol it protects: a genuine
    // exchange over the wire codec still converges two nodes.
    use gossip_net::Handler;
    let (mut a, mut mb_a) = populated_node(DigestMode::Dense);
    let config = AeConfig::default();
    let mut b = AeNode::new(NodeId::new(1), N, 3, 24, config);
    let mut mb_b = RecordingMailbox::new(NodeId::new(1));
    b.seed_entry(
        NodeId::new(1),
        Entry {
            stamp: 500,
            value: 4.0,
        },
    );

    // b opens; pump until both outboxes drain.
    let opener = AeMsg::SynReq {
        n: N as u32,
        digest: b.store().sparse_digest(),
    };
    a.on_message(NodeId::new(1), opener, &mut mb_a);
    let mut legs = 0;
    loop {
        let mut moved = false;
        for (to, _, msg) in mb_a.outbox.drain(..).collect::<Vec<_>>() {
            assert_eq!(to, NodeId::new(1));
            let frame = encode_frame(NodeId::new(0), &msg);
            let (from, decoded): (NodeId, AeMsg) = decode_frame(&frame).unwrap();
            b.on_message(from, decoded, &mut mb_b);
            moved = true;
        }
        for (to, _, msg) in mb_b.outbox.drain(..).collect::<Vec<_>>() {
            assert_eq!(to, NodeId::new(0));
            let frame = encode_frame(NodeId::new(1), &msg);
            let (from, decoded): (NodeId, AeMsg) = decode_frame(&frame).unwrap();
            a.on_message(from, decoded, &mut mb_a);
            moved = true;
        }
        legs += 1;
        if !moved || legs > 8 {
            break;
        }
    }
    assert_eq!(a.store(), b.store(), "wire exchange converges");
    assert_eq!(a.store().known(), N);
    assert_eq!(a.stats.digest_mismatches + b.stats.digest_mismatches, 0);
}

/// The auth-mode rows of the hostile matrix: the same forged digests,
/// now arriving as *sealed* frames at an auth-required receiver. Every
/// forgery — tampered tag, tampered payload, truncated tag, wrong key,
/// replayed bare frame — must die at the frame layer with a typed error
/// (what `NodeHost` counts as `auth_reject`), so the protocol's own
/// validation never even runs for them. A frame sealed with the right
/// key still decodes, and the protocol validation behind the auth gate
/// keeps working exactly as the bare suite pins it.
#[test]
fn forged_sealed_frames_fail_authentication_before_any_payload_decodes() {
    use gossip_net::{
        decode_frame_sealed, encode_frame_sealed, AuthKey, WireError, AUTH_TAG_BYTES,
        FRAME_HEADER_BYTES,
    };
    use gossip_obs::TraceCtx;

    let key = AuthKey::from_passphrase("ae-hostile-suite");
    let wrong_key = AuthKey::from_passphrase("ae-hostile-suite-but-wrong");
    let (mut node, mut mailbox) = populated_node(DigestMode::Merkle);
    let before = node.store().clone();
    let attacker = NodeId::new(1);

    for msg in &hostile_digests() {
        let sealed = encode_frame_sealed(attacker, TraceCtx::NONE, Some(&key), msg);

        // Tampered tag byte.
        let mut tampered_tag = sealed.clone();
        tampered_tag[FRAME_HEADER_BYTES] ^= 0x80;
        assert!(matches!(
            decode_frame_sealed::<AeMsg>(&tampered_tag, Some(&key)),
            Err(WireError::BadAuthTag)
        ));

        // Tampered payload byte (the tag no longer covers what arrived).
        let mut tampered_payload = sealed.clone();
        *tampered_payload.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            decode_frame_sealed::<AeMsg>(&tampered_payload, Some(&key)),
            Err(WireError::BadAuthTag)
        ));

        // Tag truncated mid-way: still an auth failure, not a decode one.
        let truncated = &sealed[..FRAME_HEADER_BYTES + AUTH_TAG_BYTES / 2];
        assert!(matches!(
            decode_frame_sealed::<AeMsg>(truncated, Some(&key)),
            Err(WireError::BadAuthTag)
        ));

        // Sealed under the wrong key.
        let foreign = encode_frame_sealed(attacker, TraceCtx::NONE, Some(&wrong_key), msg);
        assert!(matches!(
            decode_frame_sealed::<AeMsg>(&foreign, Some(&key)),
            Err(WireError::BadAuthTag)
        ));

        // A replayed bare frame — byte-identical to what a keyless
        // cluster would accept — is refused outright when a key is
        // required.
        let bare = encode_frame(attacker, msg);
        assert!(matches!(
            decode_frame_sealed::<AeMsg>(&bare, Some(&key)),
            Err(WireError::AuthRequired)
        ));
    }

    // None of the forgeries reached the protocol: no counter moved, no
    // reply was drawn, nothing was adopted.
    assert_eq!(node.stats.digest_mismatches, 0);
    assert_eq!(node.store(), &before);
    assert!(mailbox.outbox.is_empty());

    // Behind the auth gate the protocol validation is unchanged: the
    // same hostiles sealed with the *right* key decode fine and are then
    // dropped and counted by the digest checks, exactly as the bare
    // suite pins.
    use gossip_net::Handler;
    let hostiles = hostile_digests();
    for msg in &hostiles {
        let sealed = encode_frame_sealed(attacker, TraceCtx::NONE, Some(&key), msg);
        let (from, _ctx, decoded): (NodeId, _, AeMsg) =
            decode_frame_sealed(&sealed, Some(&key)).expect("honestly sealed frame decodes");
        node.on_message(from, decoded, &mut mailbox);
    }
    assert_eq!(node.stats.digest_mismatches, hostiles.len() as u64);
    assert!(mailbox.outbox.is_empty(), "still no amplification");
}
