//! Properties of the sealing path's two fast routes, each held to a
//! slower, independent formulation: the key's stored HMAC midstates
//! against one-shot `hmac_sha256` (itself pinned to RFC 4231 in the unit
//! suite), and the in-place buffer encoder against the frame composed
//! field by field.

use gossip_net::{
    decode_frame_sealed, encode_frame_into, hmac_sha256, seal_frame, AuthKey, NodeId, WireError,
    WireMsg, WireReader, WireWriter, AUTH_TAG_BYTES, FRAME_HEADER_BYTES, MAX_PAYLOAD_BYTES,
    WIRE_MAGIC, WIRE_VERSION,
};
use gossip_obs::TraceCtx;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn auth_key_tags_equal_truncated_hmac_at_every_length_and_split() {
    let mut rng = SmallRng::seed_from_u64(0x5EA1);
    // 0..=200 crosses every SHA-256 padding boundary the inner hash can
    // meet after the key block: 55/56 (the length suffix spills), 63/64/65
    // (a whole block from the input), 119/120 (the same, one block on).
    for len in 0..=200usize {
        let key_bytes: [u8; 32] = std::array::from_fn(|_| rng.gen_range(0..=u8::MAX));
        let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        let key = AuthKey::from_bytes(key_bytes);
        let clone = key.clone();
        let expect = &hmac_sha256(&key_bytes, &data)[..AUTH_TAG_BYTES];
        assert_eq!(key.tag_parts(&[&data]), expect, "length {len}, unsplit");
        for cut in 0..=len {
            let (a, b) = data.split_at(cut);
            assert_eq!(key.tag_parts(&[a, b]), expect, "length {len} cut {cut}");
            assert_eq!(clone.tag_parts(&[a, b]), expect, "clone, {len} cut {cut}");
        }
        assert!(key.verify_parts(&[&data], expect));
    }
}

/// A payload of exactly the bytes it holds: no length prefix, so a test
/// can ask for an encoded size of 0 or of `MAX_PAYLOAD_BYTES` on the dot.
#[derive(Debug, PartialEq)]
struct Raw(Vec<u8>);

impl WireMsg for Raw {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(&self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        (0..r.remaining())
            .map(|_| r.take_u8())
            .collect::<Result<_, _>>()
            .map(Raw)
    }
}

/// The frame layout composed field by field, the way `seal_frame` built it
/// before the buffer encoder existed: the reference the encoder is held to.
fn composed(from: NodeId, ctx: TraceCtx, key: Option<&AuthKey>, payload: &[u8]) -> Vec<u8> {
    let flags = u8::from(ctx.is_some()) | u8::from(key.is_some()) << 1;
    let mut frame = Vec::new();
    frame.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    frame.extend_from_slice(&[WIRE_VERSION, flags]);
    frame.extend_from_slice(&from.0.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    if ctx.is_some() {
        frame.extend_from_slice(&ctx.trace_id.to_le_bytes());
        frame.push(ctx.hop);
    }
    if let Some(key) = key {
        let tag = key.tag_parts(&[&frame, payload]);
        frame.extend_from_slice(&tag);
    }
    frame.extend_from_slice(payload);
    frame
}

#[test]
fn buffer_encoder_equals_the_composed_frame_for_every_flag_combination() {
    let key = AuthKey::from_passphrase("seal-properties");
    let ctx = TraceCtx {
        trace_id: 0x0123_4567_89AB_CDEF,
        hop: 9,
    };
    let from = NodeId(0xDEAD_BEEF);
    let mut rng = SmallRng::seed_from_u64(0xF4A3);
    // Long-then-short and back again through ONE buffer, so a stale byte
    // of an earlier, longer frame would show in a later, shorter one.
    let sizes = [
        MAX_PAYLOAD_BYTES,
        0,
        1024,
        12,
        0,
        12,
        1024,
        MAX_PAYLOAD_BYTES,
    ];
    let mut buf = Vec::new();
    for size in sizes {
        let msg = Raw((0..size).map(|_| rng.gen_range(0..=u8::MAX)).collect());
        for (ctx, key) in [
            (TraceCtx::NONE, None),
            (ctx, None),
            (TraceCtx::NONE, Some(&key)),
            (ctx, Some(&key)),
        ] {
            encode_frame_into(&mut buf, from, ctx, key, &msg).expect("within the payload limit");
            let what = format!("{size} B, trace {}, auth {}", ctx.is_some(), key.is_some());
            assert!(buf == composed(from, ctx, key, &msg.0), "composed: {what}");
            assert!(
                buf == seal_frame(from, ctx, key, &msg.to_wire_bytes()),
                "seal_frame: {what}"
            );
            let (got_from, got_ctx, got): (NodeId, TraceCtx, Raw) =
                decode_frame_sealed(&buf, key).expect("the encoder's own frame decodes");
            assert_eq!((got_from, got_ctx), (from, ctx), "{what}");
            assert!(got == msg, "round trip: {what}");
        }
    }
}

#[test]
fn buffer_encoder_refuses_an_oversize_payload_and_leaves_nothing_behind() {
    let key = AuthKey::from_passphrase("seal-properties");
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, NodeId(1), TraceCtx::NONE, Some(&key), &7u64).unwrap();
    let too_big = Raw(vec![0xAB; MAX_PAYLOAD_BYTES + 1]);
    assert_eq!(
        encode_frame_into(&mut buf, NodeId(1), TraceCtx::NONE, Some(&key), &too_big),
        Err(WireError::Oversized {
            claimed: MAX_PAYLOAD_BYTES + 1,
            limit: MAX_PAYLOAD_BYTES,
        })
    );
    assert!(buf.is_empty(), "no half-built frame is left to be sent");
    assert_eq!(buf.capacity(), 0, "nor the oversize encoding's storage");
    // The buffer is still good for the next frame.
    encode_frame_into(&mut buf, NodeId(1), TraceCtx::NONE, Some(&key), &7u64).unwrap();
    assert_eq!(
        buf,
        seal_frame(NodeId(1), TraceCtx::NONE, Some(&key), &7u64.to_wire_bytes())
    );
}

/// The raw-payload wrappers have no error to return: the largest legal
/// payload frames, one byte more panics (in release builds too).
#[test]
#[should_panic(expected = "caller must reject oversize payloads before framing")]
fn seal_frame_panics_on_an_oversize_payload() {
    let full = vec![0xAB; MAX_PAYLOAD_BYTES + 1];
    let frame = seal_frame(NodeId(1), TraceCtx::NONE, None, &full[..MAX_PAYLOAD_BYTES]);
    assert_eq!(frame.len(), FRAME_HEADER_BYTES + MAX_PAYLOAD_BYTES);
    seal_frame(NodeId(1), TraceCtx::NONE, None, &full);
}
