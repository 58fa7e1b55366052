//! The wire codec: how [`Handler`](crate::Handler) messages travel over a
//! real network.
//!
//! The simulation backends carry handler messages as plain Rust values —
//! a `send` hands the payload to the host, the host hands it to the
//! receiver's callback, and the `bits` argument merely *models* a wire
//! size. A socket host (`gossip-node`) has no such luxury: the payload
//! must round-trip through bytes, and the bytes come off an untrusted
//! datagram socket. This module is that boundary:
//!
//! * [`WireMsg`] — encode/decode for a protocol's message type. The
//!   workspace's `serde` is an offline no-op shim (see `DESIGN.md` §9), so
//!   the data model is hand-rolled: fixed-width little-endian primitives
//!   through a [`WireWriter`]/[`WireReader`] pair, with blanket impls for
//!   the shapes protocol messages are built from (integers, floats,
//!   `Vec`, tuples, `Option`, [`NodeId`]).
//! * **Frames** — one datagram is one frame: a fixed header (magic,
//!   version, sender id, payload length) followed by exactly
//!   `payload length` bytes of `WireMsg`-encoded payload. See
//!   [`encode_frame`]/[`decode_frame`].
//!
//! The decoder is total: any input — truncated mid-header, truncated
//! mid-payload, oversized, version-skewed, trailing garbage, absurd
//! collection lengths — produces a [`WireError`], never a panic and never
//! an attempt to allocate what the length field claims before the bytes
//! are actually there. A node must be able to eat arbitrary datagrams off
//! the network and shrug.

use crate::auth::{AuthKey, AUTH_TAG_BYTES};
use crate::node::NodeId;
use gossip_obs::TraceCtx;
use std::fmt;

/// First two bytes of every frame (little-endian on the wire). Chosen to
/// be unlikely as the start of stray ASCII traffic.
pub const WIRE_MAGIC: u16 = 0xCA75;

/// Current wire-format version. Bump on any incompatible layout change;
/// the decoder rejects every other version. Version 2 changed the
/// anti-entropy and membership payloads (stamp runs, one-byte rumor
/// counts): a version-1 payload could otherwise decode as well-formed with
/// wrong stamps.
pub const WIRE_VERSION: u8 = 2;

/// Frame header size in bytes: magic (2) + version (1) + flags (1) +
/// sender id (4) + payload length (4).
pub const FRAME_HEADER_BYTES: usize = 12;

/// Where the payload-length field sits in the header.
const LEN_FIELD: std::ops::Range<usize> = 8..FRAME_HEADER_BYTES;

/// Flags bit: the header is followed by a trace context (trace id `u64`
/// plus hop `u8`) before the payload. Frames without the bit carry no extra
/// bytes and are byte-identical to frames from builds that predate
/// tracing — the feature is opt-in per frame, not a version bump.
pub(crate) const FLAG_TRACE: u8 = 0x01;

/// Flags bit: the frame is authenticated — [`AUTH_TAG_BYTES`] of
/// truncated HMAC-SHA256 (keyed by the cluster [`AuthKey`]) follow the
/// header and any trace context, covering every frame byte except the tag
/// itself. Like `FLAG_TRACE`, the bit is opt-in per frame: frames
/// without it are byte-identical to the unauthenticated format.
pub const FLAG_AUTH: u8 = 0x02;

/// All flags bits this build understands. Unknown bits are rejected: a
/// flag may imply extra header bytes (as [`FLAG_TRACE`] and [`FLAG_AUTH`]
/// do), so a decoder that ignored one would misparse everything after it.
pub(crate) const KNOWN_FLAGS: u8 = FLAG_TRACE | FLAG_AUTH;

/// Extra bytes a [`FLAG_TRACE`] frame carries: trace id (8) + hop (1).
pub(crate) const TRACE_CTX_BYTES: usize = 9;

/// Hard ceiling on a frame's payload length, chosen so that header +
/// payload always fits a single unfragmented-at-the-API UDP datagram
/// (65 507 bytes of UDP payload max). The decoder rejects length fields
/// beyond this *before* trusting them.
pub const MAX_PAYLOAD_BYTES: usize = 65_000;

/// The largest frame a conforming sender can produce: header, trace
/// context, tag and a full payload. What a receive buffer has to hold.
pub const MAX_FRAME_BYTES: usize =
    FRAME_HEADER_BYTES + TRACE_CTX_BYTES + AUTH_TAG_BYTES + MAX_PAYLOAD_BYTES;

/// Everything that can be wrong with bytes off the wire.
///
/// Every variant is a *rejection*, not a crash: the decoder returns these
/// for arbitrary input and a socket host counts them and moves on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value being decoded did: the decoder
    /// asked for `need` bytes when only `have` remained.
    Truncated {
        /// Bytes the failing read requested (in total, not the shortfall).
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The first two bytes are not [`WIRE_MAGIC`] — not one of ours.
    BadMagic {
        /// The magic actually found.
        found: u16,
    },
    /// The frame's version byte differs from [`WIRE_VERSION`].
    VersionMismatch {
        /// The version actually found.
        found: u8,
    },
    /// The header's length field exceeds [`MAX_PAYLOAD_BYTES`] (or the
    /// datagram's own size): rejected before any allocation trusts it.
    Oversized {
        /// The claimed payload length.
        claimed: usize,
        /// The largest length that would have been accepted.
        limit: usize,
    },
    /// The payload decoded cleanly but did not consume every payload
    /// byte — a length/content mismatch, so the frame is rejected rather
    /// than silently ignoring the tail.
    TrailingBytes {
        /// Unconsumed payload bytes.
        extra: usize,
    },
    /// An enum tag byte holds a value the message type does not define.
    BadTag {
        /// The offending tag.
        tag: u8,
    },
    /// A collection length field claims more elements than the remaining
    /// bytes could possibly encode — rejected before allocating.
    BadLength {
        /// The claimed element count.
        claimed: usize,
    },
    /// A field decoded to a value its layout rules out: a stamp-run width
    /// byte above 8, a stamp code that overflows its run's base, a slot
    /// offset outside its range.
    OutOfRange {
        /// The offending value.
        value: u64,
    },
    /// The flags byte carries a bit this build does not understand (see
    /// `KNOWN_FLAGS`): the frame cannot be parsed safely.
    BadFlags {
        /// The flags byte actually found.
        found: u8,
    },
    /// The frame carries [`FLAG_AUTH`] but its tag does not verify under
    /// the receiver's key — a tampered frame, a truncation that happened
    /// to keep the layout parseable, or a sender holding a different key.
    BadAuthTag,
    /// The receiver requires authenticated frames (it holds an
    /// [`AuthKey`]) but the frame arrived bare — a legacy or hostile
    /// sender talking to an auth-required host.
    AuthRequired,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: read wanted {need} bytes, had {have}")
            }
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:#06x}"),
            WireError::VersionMismatch { found } => {
                write!(f, "wire version {found} (this build speaks {WIRE_VERSION})")
            }
            WireError::Oversized { claimed, limit } => {
                write!(f, "payload length {claimed} exceeds limit {limit}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing payload bytes after decode")
            }
            WireError::BadTag { tag } => write!(f, "unknown enum tag {tag}"),
            WireError::BadLength { claimed } => {
                write!(
                    f,
                    "collection length {claimed} cannot fit the remaining bytes"
                )
            }
            WireError::OutOfRange { value } => write!(f, "field value {value} out of range"),
            WireError::BadFlags { found } => {
                write!(
                    f,
                    "unknown flags {found:#04x} (this build understands {KNOWN_FLAGS:#04x})"
                )
            }
            WireError::BadAuthTag => write!(f, "frame auth tag failed verification"),
            WireError::AuthRequired => {
                write!(f, "unauthenticated frame at an auth-required receiver")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only byte sink for encoding. All integers are little-endian.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (little-endian).
    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append the low `bytes` bytes of `v` (little-endian, `bytes` ≤ 8):
    /// an unsigned integer at the width its range needs.
    pub fn put_uint(&mut self, v: u64, bytes: usize) {
        debug_assert!(
            bytes == 8 || v >> (8 * bytes) == 0,
            "{v} needs more than {bytes} bytes"
        );
        self.buf.extend_from_slice(&v.to_le_bytes()[..bytes]);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round-trip,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked cursor over received bytes for decoding.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub(crate) fn take_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian unsigned integer of `bytes` bytes (`bytes` ≤ 8),
    /// the counterpart of [`WireWriter::put_uint`].
    pub fn take_uint(&mut self, bytes: usize) -> Result<u64, WireError> {
        let mut le = [0u8; 8];
        le[..bytes].copy_from_slice(self.take(bytes)?);
        Ok(u64::from_le_bytes(le))
    }

    /// Read an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Validate a collection length field against the bytes that remain:
    /// `claimed` elements of at least `min_elem_bytes` each must fit. This
    /// is what keeps a hostile length field from driving a huge allocation.
    pub fn check_len(&self, claimed: usize, min_elem_bytes: usize) -> Result<(), WireError> {
        let fits = claimed
            .checked_mul(min_elem_bytes.max(1))
            .is_some_and(|total| total <= self.remaining());
        if fits {
            Ok(())
        } else {
            Err(WireError::BadLength { claimed })
        }
    }
}

/// A message type that can cross a real wire. Implemented by every
/// protocol message a socket host can carry; the simulation backends never
/// call it.
///
/// The contract the property suite pins: `decode(encode(m)) == m` for all
/// values, and `decode` returns `Err` (never panics) on arbitrary bytes.
pub trait WireMsg: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Decode one value, advancing the reader past exactly the bytes
    /// [`encode`](WireMsg::encode) produced.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Convenience: encode into a fresh byte vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

impl WireMsg for u8 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u8()
    }
}

impl WireMsg for u16 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u16()
    }
}

impl WireMsg for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u32()
    }
}

impl WireMsg for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u64()
    }
}

impl WireMsg for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_f64()
    }
}

impl WireMsg for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

impl WireMsg for NodeId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.take_u32()?))
    }
}

impl<T: WireMsg> WireMsg for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.take_u32()? as usize;
        // Every element costs at least one byte on the wire, so the length
        // field is validated against the remaining buffer before any
        // allocation happens.
        r.check_len(len, 1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: WireMsg, B: WireMsg> WireMsg for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: WireMsg, B: WireMsg, C: WireMsg> WireMsg for (A, B, C) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: WireMsg> WireMsg for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

/// Write one frame into `buf`, replacing its contents: the single encoder
/// every framing function here is a wrapper over. The layout is header
/// ([`WIRE_MAGIC`], [`WIRE_VERSION`], flags, sender id, payload length),
/// then the trace context if `ctx` is present ([`FLAG_TRACE`]), then a
/// tag slot if `key` is present ([`FLAG_AUTH`]), then whatever `payload`
/// writes. The length field is patched once the payload's size is known
/// and the tag is computed in place over every frame byte *except
/// itself*, so nothing is staged in a second buffer.
///
/// A payload beyond [`MAX_PAYLOAD_BYTES`] is [`WireError::Oversized`] and
/// leaves `buf` empty with its storage released.
fn write_frame(
    buf: &mut Vec<u8>,
    from: NodeId,
    ctx: TraceCtx,
    key: Option<&AuthKey>,
    payload: impl FnOnce(&mut WireWriter),
) -> Result<(), WireError> {
    let mut flags = 0u8;
    if ctx.is_some() {
        flags |= FLAG_TRACE;
    }
    if key.is_some() {
        flags |= FLAG_AUTH;
    }
    buf.clear();
    // `WireWriter` owns its bytes, so the caller's buffer is moved through
    // it and handed back: the allocation is reused, not copied.
    let mut w = WireWriter {
        buf: std::mem::take(buf),
    };
    w.buf.reserve(head_bytes(ctx, key));
    w.put_u16(WIRE_MAGIC);
    w.put_u8(WIRE_VERSION);
    w.put_u8(flags);
    w.put_u32(from.0);
    w.put_u32(0); // the payload length, patched below
    if ctx.is_some() {
        w.put_u64(ctx.trace_id);
        w.put_u8(ctx.hop);
    }
    let tag_start = w.len();
    if key.is_some() {
        w.put_bytes(&[0; AUTH_TAG_BYTES]);
    }
    let payload_start = w.len();
    payload(&mut w);
    *buf = w.into_bytes();
    let payload_len = buf.len() - payload_start;
    if payload_len > MAX_PAYLOAD_BYTES {
        // Freed, not cleared: a reused buffer is sized by the frames it
        // sent, and this one was not.
        *buf = Vec::new();
        return Err(WireError::Oversized {
            claimed: payload_len,
            limit: MAX_PAYLOAD_BYTES,
        });
    }
    buf[LEN_FIELD].copy_from_slice(&(payload_len as u32).to_le_bytes());
    if let Some(key) = key {
        // Header+context before the slot, payload after it — exactly the
        // bytes a verifier can see.
        let (head, rest) = buf.split_at_mut(tag_start);
        let (tag, payload) = rest.split_at_mut(AUTH_TAG_BYTES);
        tag.copy_from_slice(&key.tag_parts(&[head, payload]));
    }
    Ok(())
}

/// Bytes a frame spends before its payload: the header plus whichever of
/// the trace context and the tag it carries.
fn head_bytes(ctx: TraceCtx, key: Option<&AuthKey>) -> usize {
    FRAME_HEADER_BYTES
        + if ctx.is_some() { TRACE_CTX_BYTES } else { 0 }
        + if key.is_some() { AUTH_TAG_BYTES } else { 0 }
}

/// Encode one frame into a caller-owned buffer, replacing its contents —
/// the allocation-free framing seam. A sender that keeps `buf` between
/// calls (the socket host lends one per node) encodes, seals and sends
/// without touching the heap once the buffer has grown to its largest
/// frame. Layout and authentication are [`seal_frame`]'s, byte for byte.
///
/// An encoded payload beyond [`MAX_PAYLOAD_BYTES`] is
/// [`WireError::Oversized`] and leaves `buf` empty with its storage
/// released, so a kept buffer stays sized by the frames it sent. The
/// caller decides what an oversize message means (the socket host counts
/// and drops it — `NodeStats::send_oversize` — instead of panicking
/// mid-protocol or handing the kernel a datagram it will reject with a
/// confusing OS error).
pub fn encode_frame_into<M: WireMsg>(
    buf: &mut Vec<u8>,
    from: NodeId,
    ctx: TraceCtx,
    key: Option<&AuthKey>,
    msg: &M,
) -> Result<(), WireError> {
    write_frame(buf, from, ctx, key, |w| msg.encode(w))
}

/// Encode one frame: header ([`WIRE_MAGIC`], [`WIRE_VERSION`], sender id,
/// payload length) followed by the encoded payload.
///
/// # Panics
/// Panics if the encoded payload exceeds [`MAX_PAYLOAD_BYTES`] — that is a
/// protocol-design bug (a message type too large for one datagram), not a
/// runtime condition, and it must fail loudly at the sender rather than be
/// silently rejected by every receiver.
pub fn encode_frame<M: WireMsg>(from: NodeId, msg: &M) -> Vec<u8> {
    encode_frame_sealed(from, TraceCtx::NONE, None, msg)
}

/// Wrap an already-encoded payload in a frame header. The seam that lets
/// a sender encode once, *check the size itself*, and decide what to do
/// with an oversize payload. Callers must have checked `payload.len()`
/// against [`MAX_PAYLOAD_BYTES`]; see [`seal_frame`].
pub fn frame_with_payload(from: NodeId, payload: &[u8]) -> Vec<u8> {
    seal_frame(from, TraceCtx::NONE, None, payload)
}

/// The full framing seam: [`frame_with_payload`] plus an optional causal
/// context and optional authentication. The absent context produces a
/// frame byte-identical to an untraced one (flags 0, no extra bytes); a
/// real context sets `FLAG_TRACE` and carries `TRACE_CTX_BYTES` of trace
/// id + hop between the header and the payload. With `key = None` the
/// output is byte-identical to the unauthenticated encoders (down to
/// flags 0 when the context is also absent). With a key, the frame sets
/// [`FLAG_AUTH`] and splices [`AUTH_TAG_BYTES`] of truncated HMAC-SHA256
/// between the trace context (if any) and the payload; the tag covers
/// every frame byte *except itself* — header, trace context, and payload —
/// so any post-seal tampering (including the length field and sender id)
/// invalidates it. The length field counts the payload only, as always.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD_BYTES`]: callers check the
/// size before framing.
pub fn seal_frame(from: NodeId, ctx: TraceCtx, key: Option<&AuthKey>, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(head_bytes(ctx, key) + payload.len());
    write_frame(&mut frame, from, ctx, key, |w| w.put_bytes(payload))
        .expect("caller must reject oversize payloads before framing");
    frame
}

/// [`encode_frame`] with an optional causal context and optional
/// authentication (see [`seal_frame`] for the layout).
///
/// # Panics
/// Panics on oversize payloads, like [`encode_frame`].
pub fn encode_frame_sealed<M: WireMsg>(
    from: NodeId,
    ctx: TraceCtx,
    key: Option<&AuthKey>,
    msg: &M,
) -> Vec<u8> {
    let mut frame = Vec::new();
    if let Err(e) = encode_frame_into(&mut frame, from, ctx, key, msg) {
        panic!("encoded payload does not fit one frame: {e}");
    }
    frame
}

/// Decode one frame: validates magic, version and the length field, then
/// decodes the payload and requires it to consume every payload byte.
/// Returns the sender id carried in the header and the payload; a traced
/// frame's causal context is dropped.
///
/// Equivalent to [`decode_frame_sealed`] with no key: authenticated
/// frames are *accepted* (the tag is skipped, not verified) so a keyless
/// node can interoperate with a keyed cluster, mirroring how this decoder
/// accepts traced frames.
///
/// Total over arbitrary input — every failure is a [`WireError`].
pub fn decode_frame<M: WireMsg>(buf: &[u8]) -> Result<(NodeId, M), WireError> {
    let (from, _ctx, msg) = decode_frame_sealed(buf, None)?;
    Ok((from, msg))
}

/// The full decoding seam: [`decode_frame`] plus the frame's causal
/// context ([`TraceCtx::NONE`] for untraced frames) and an authentication
/// policy. Total over arbitrary input, like every decoder here.
///
/// * `key = None` — legacy behaviour: bare frames decode as before and
///   [`FLAG_AUTH`] frames are accepted with the tag skipped (a keyless
///   receiver cannot verify, and rejecting would partition mixed
///   clusters mid-rollout).
/// * `key = Some` — the receiver *requires* authentication: a bare frame
///   is [`WireError::AuthRequired`], and a tagged frame whose tag does
///   not verify over the received bytes (header, trace context, payload —
///   everything but the tag) is [`WireError::BadAuthTag`], as is a tag
///   region cut short. Verification happens before payload decode, so a
///   forged frame never reaches the message parser.
pub fn decode_frame_sealed<M: WireMsg>(
    buf: &[u8],
    key: Option<&AuthKey>,
) -> Result<(NodeId, TraceCtx, M), WireError> {
    let mut r = WireReader::new(buf);
    let magic = r.take_u16()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = r.take_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { found: version });
    }
    let flags = r.take_u8()?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(WireError::BadFlags { found: flags });
    }
    let from = NodeId(r.take_u32()?);
    let claimed = r.take_u32()? as usize;
    if claimed > MAX_PAYLOAD_BYTES {
        return Err(WireError::Oversized {
            claimed,
            limit: MAX_PAYLOAD_BYTES,
        });
    }
    let ctx = if flags & FLAG_TRACE != 0 {
        let trace_id = r.take_u64()?;
        let hop = r.take_u8()?;
        TraceCtx { trace_id, hop }
    } else {
        TraceCtx::NONE
    };
    if flags & FLAG_AUTH != 0 {
        // The tag sits between the (optional) trace context and the
        // payload; its offset is fixed by the flags alone.
        let tag_start = buf.len() - r.remaining();
        // A frame claiming authentication without a whole tag is an auth
        // failure, not mere truncation: every mutilation of the tag
        // region — flipped, cut short, missing — reads as one signal
        // (`auth_reject` at the host), whatever shape the forgery took.
        let tag = r.take(AUTH_TAG_BYTES).map_err(|_| WireError::BadAuthTag)?;
        if let Some(key) = key {
            let covered_head = &buf[..tag_start];
            let covered_tail = &buf[tag_start + AUTH_TAG_BYTES..];
            if !key.verify_parts(&[covered_head, covered_tail], tag) {
                return Err(WireError::BadAuthTag);
            }
        }
    } else if key.is_some() {
        return Err(WireError::AuthRequired);
    }
    if claimed != r.remaining() {
        // A datagram is one frame: the payload must fill the rest exactly.
        // Shorter is truncation; longer is trailing garbage.
        if claimed > r.remaining() {
            return Err(WireError::Truncated {
                need: claimed,
                have: r.remaining(),
            });
        }
        return Err(WireError::TrailingBytes {
            extra: r.remaining() - claimed,
        });
    }
    let msg = M::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok((from, ctx, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        0xABu8.encode(&mut w);
        0xBEEFu16.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        0x0123_4567_89AB_CDEFu64.encode(&mut w);
        (-1234.5678f64).encode(&mut w);
        true.encode(&mut w);
        NodeId::new(17).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(u8::decode(&mut r), Ok(0xAB));
        assert_eq!(u16::decode(&mut r), Ok(0xBEEF));
        assert_eq!(u32::decode(&mut r), Ok(0xDEAD_BEEF));
        assert_eq!(u64::decode(&mut r), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(f64::decode(&mut r), Ok(-1234.5678));
        assert_eq!(bool::decode(&mut r), Ok(true));
        assert_eq!(NodeId::decode(&mut r), Ok(NodeId::new(17)));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn variable_width_integers_round_trip() {
        let mut w = WireWriter::new();
        for (v, bytes) in [(0, 0), (0xAB, 1), (0x01_0203, 3), (u64::MAX, 8)] {
            w.put_uint(v, bytes);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 3 + 8);
        let mut r = WireReader::new(&bytes);
        for (v, bytes) in [(0, 0), (0xAB, 1), (0x01_0203, 3), (u64::MAX, 8)] {
            assert_eq!(r.take_uint(bytes), Ok(v));
        }
        assert_eq!(
            r.take_uint(1),
            Err(WireError::Truncated { need: 1, have: 0 })
        );
    }

    #[test]
    fn composites_round_trip() {
        type Composite = (u32, Vec<(NodeId, f64)>, Option<u64>);
        let value: Composite = (
            7,
            vec![(NodeId::new(1), 1.5), (NodeId::new(2), f64::NEG_INFINITY)],
            Some(99),
        );
        let bytes = value.to_wire_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Composite::decode(&mut r), Ok(value));
        assert_eq!(r.remaining(), 0);

        let none: Option<u64> = None;
        let bytes = none.to_wire_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Option::<u64>::decode(&mut r), Ok(None));
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = weird.to_wire_bytes();
        let decoded = f64::decode(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(decoded.to_bits(), weird.to_bits());
    }

    #[test]
    fn frames_round_trip() {
        let msg: Vec<u64> = vec![3, 1, 4, 1, 5];
        let frame = encode_frame(NodeId::new(9), &msg);
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + msg.to_wire_bytes().len());
        let (from, decoded): (NodeId, Vec<u64>) = decode_frame(&frame).unwrap();
        assert_eq!(from, NodeId::new(9));
        assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_frames_error_at_every_cut() {
        let frame = encode_frame(NodeId::new(3), &vec![1u64, 2, 3]);
        for cut in 0..frame.len() {
            let err = decode_frame::<Vec<u64>>(&frame[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::BadLength { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn version_and_magic_mismatches_are_rejected() {
        let mut frame = encode_frame(NodeId::new(0), &42u64);
        frame[2] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame::<u64>(&frame),
            Err(WireError::VersionMismatch {
                found: WIRE_VERSION + 1
            })
        );
        // A version-1 frame: its payload layouts predate stamp runs.
        let mut frame = encode_frame(NodeId::new(0), &42u64);
        frame[2] = 1;
        assert_eq!(
            decode_frame::<u64>(&frame),
            Err(WireError::VersionMismatch { found: 1 })
        );
        let mut frame = encode_frame(NodeId::new(0), &42u64);
        frame[0] ^= 0xFF;
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversized_length_fields_are_rejected_before_allocation() {
        // A frame whose header claims a payload far beyond the limit.
        let mut w = WireWriter::new();
        w.put_u16(WIRE_MAGIC);
        w.put_u8(WIRE_VERSION);
        w.put_u8(0);
        w.put_u32(0);
        w.put_u32(u32::MAX);
        let err = decode_frame::<u64>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));

        // A vector whose length field claims more elements than the bytes
        // behind it could hold.
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        w.put_u64(1);
        let err = Vec::<u64>::decode(&mut WireReader::new(&w.into_bytes())).unwrap_err();
        assert_eq!(
            err,
            WireError::BadLength {
                claimed: u32::MAX as usize
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode_frame(NodeId::new(1), &7u64);
        frame.push(0xFF);
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(WireError::TrailingBytes { .. })
        ));
        // Payload shorter than its content claims: the inner decode sees
        // trailing bytes *inside* the declared payload.
        let frame = encode_frame(NodeId::new(1), &(7u64, 8u64));
        assert!(decode_frame::<u64>(&frame).is_err());
    }

    #[test]
    fn errors_display_usefully() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(WireError::Truncated { need: 8, have: 3 }),
            Box::new(WireError::BadMagic { found: 0x1234 }),
            Box::new(WireError::VersionMismatch { found: 9 }),
            Box::new(WireError::Oversized {
                claimed: 1 << 30,
                limit: MAX_PAYLOAD_BYTES,
            }),
            Box::new(WireError::TrailingBytes { extra: 4 }),
            Box::new(WireError::BadTag { tag: 7 }),
            Box::new(WireError::BadLength { claimed: 1 << 40 }),
            Box::new(WireError::OutOfRange { value: 9 }),
            Box::new(WireError::BadFlags { found: 0x80 }),
            Box::new(WireError::BadAuthTag),
            Box::new(WireError::AuthRequired),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn traced_frames_round_trip_and_untraced_frames_are_unchanged() {
        let msg = vec![1u64, 2, 3];
        let ctx = TraceCtx {
            trace_id: 0x0123_4567_89AB_CDEF,
            hop: 3,
        };
        let traced = encode_frame_sealed(NodeId::new(9), ctx, None, &msg);
        assert_eq!(
            traced.len(),
            FRAME_HEADER_BYTES + TRACE_CTX_BYTES + msg.to_wire_bytes().len()
        );
        assert_eq!(traced[3], FLAG_TRACE);
        let (from, got_ctx, decoded): (NodeId, TraceCtx, Vec<u64>) =
            decode_frame_sealed(&traced, None).unwrap();
        assert_eq!(from, NodeId::new(9));
        assert_eq!(got_ctx, ctx);
        assert_eq!(decoded, msg);

        // The absent context produces a frame byte-identical to the
        // untraced encoder's — the version-compatibility contract.
        let plain = encode_frame_sealed(NodeId::new(9), TraceCtx::NONE, None, &msg);
        assert_eq!(plain, encode_frame(NodeId::new(9), &msg));
        let (_, got_ctx, _): (NodeId, TraceCtx, Vec<u64>) =
            decode_frame_sealed(&plain, None).unwrap();
        assert!(got_ctx.is_none());

        // The untraced decoder accepts traced frames (drops the context).
        let (from, decoded): (NodeId, Vec<u64>) = decode_frame(&traced).unwrap();
        assert_eq!(from, NodeId::new(9));
        assert_eq!(decoded, msg);
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let mut frame = encode_frame(NodeId::new(1), &7u64);
        frame[3] = 0x04; // a bit this build does not define
        assert_eq!(
            decode_frame::<u64>(&frame),
            Err(WireError::BadFlags { found: 0x04 })
        );
        let mut frame = encode_frame_sealed(
            NodeId::new(1),
            TraceCtx {
                trace_id: 5,
                hop: 0,
            },
            None,
            &7u64,
        );
        frame[3] |= 0x80;
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(WireError::BadFlags { found }) if found == 0x81
        ));
    }

    #[test]
    fn truncated_traced_frames_error_at_every_cut() {
        let ctx = TraceCtx {
            trace_id: 42,
            hop: 1,
        };
        let frame = encode_frame_sealed(NodeId::new(3), ctx, None, &vec![1u64, 2, 3]);
        for cut in 0..frame.len() {
            let err = decode_frame_sealed::<Vec<u64>>(&frame[..cut], None).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::BadLength { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
        // A frame that claims FLAG_TRACE but ends inside the context.
        let mut w = WireWriter::new();
        w.put_u16(WIRE_MAGIC);
        w.put_u8(WIRE_VERSION);
        w.put_u8(FLAG_TRACE);
        w.put_u32(0);
        w.put_u32(0); // empty payload...
        w.put_u32(0xDEAD); // ...but only 4 of the 9 context bytes
        assert!(matches!(
            decode_frame_sealed::<u64>(&w.into_bytes(), None),
            Err(WireError::Truncated { .. })
        ));
    }

    fn test_key() -> AuthKey {
        AuthKey::from_passphrase("wire-tests")
    }

    #[test]
    fn sealed_frames_round_trip_with_and_without_trace() {
        let key = test_key();
        let msg = vec![6u64, 28, 496];
        let ctx = TraceCtx {
            trace_id: 0xFEED_FACE,
            hop: 7,
        };

        let sealed = encode_frame_sealed(NodeId::new(4), ctx, Some(&key), &msg);
        assert_eq!(sealed[3], FLAG_TRACE | FLAG_AUTH);
        assert_eq!(
            sealed.len(),
            FRAME_HEADER_BYTES + TRACE_CTX_BYTES + AUTH_TAG_BYTES + msg.to_wire_bytes().len()
        );
        let (from, got_ctx, decoded): (NodeId, TraceCtx, Vec<u64>) =
            decode_frame_sealed(&sealed, Some(&key)).unwrap();
        assert_eq!(from, NodeId::new(4));
        assert_eq!(got_ctx, ctx);
        assert_eq!(decoded, msg);

        let sealed = encode_frame_sealed(NodeId::new(4), TraceCtx::NONE, Some(&key), &msg);
        assert_eq!(sealed[3], FLAG_AUTH);
        assert_eq!(
            sealed.len(),
            FRAME_HEADER_BYTES + AUTH_TAG_BYTES + msg.to_wire_bytes().len()
        );
        let (from, got_ctx, decoded): (NodeId, TraceCtx, Vec<u64>) =
            decode_frame_sealed(&sealed, Some(&key)).unwrap();
        assert_eq!(from, NodeId::new(4));
        assert!(got_ctx.is_none());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn keyless_sealing_is_byte_identical_to_legacy_encoders() {
        let msg = vec![1u64, 2, 3];
        assert_eq!(
            encode_frame_sealed(NodeId::new(9), TraceCtx::NONE, None, &msg),
            encode_frame(NodeId::new(9), &msg)
        );
        assert_eq!(
            seal_frame(NodeId::new(9), TraceCtx::NONE, None, &[1, 2, 3]),
            frame_with_payload(NodeId::new(9), &[1, 2, 3])
        );
    }

    #[test]
    fn keyless_receivers_accept_sealed_frames() {
        // Mixed-cluster interop: a node without a key skips the tag, like
        // an untraced decoder skipping a trace context.
        let key = test_key();
        let sealed = encode_frame_sealed(NodeId::new(2), TraceCtx::NONE, Some(&key), &77u64);
        let (from, decoded): (NodeId, u64) = decode_frame(&sealed).unwrap();
        assert_eq!(from, NodeId::new(2));
        assert_eq!(decoded, 77);
    }

    #[test]
    fn keyed_receivers_reject_bare_frames() {
        let key = test_key();
        let bare = encode_frame(NodeId::new(2), &77u64);
        assert_eq!(
            decode_frame_sealed::<u64>(&bare, Some(&key)),
            Err(WireError::AuthRequired)
        );
        let traced = encode_frame_sealed(
            NodeId::new(2),
            TraceCtx {
                trace_id: 1,
                hop: 0,
            },
            None,
            &77u64,
        );
        assert_eq!(
            decode_frame_sealed::<u64>(&traced, Some(&key)),
            Err(WireError::AuthRequired)
        );
    }

    #[test]
    fn tampering_anywhere_invalidates_the_tag() {
        let key = test_key();
        let ctx = TraceCtx {
            trace_id: 123,
            hop: 1,
        };
        let sealed = encode_frame_sealed(NodeId::new(5), ctx, Some(&key), &vec![1u64, 2, 3]);
        // Flip one bit at every position that keeps the frame structurally
        // parseable (skip magic/version/flags/length: those fail their own
        // structural checks first, which is also fine — just not BadAuthTag).
        for byte in 0..sealed.len() {
            let mut evil = sealed.clone();
            evil[byte] ^= 0x01;
            let got = decode_frame_sealed::<Vec<u64>>(&evil, Some(&key));
            assert!(got.is_err(), "flipping byte {byte} was accepted");
        }
        // Sender id and payload flips specifically must be BadAuthTag: the
        // frame still parses, only the tag disagrees.
        for byte in [4usize, 5, 6, 7, sealed.len() - 1] {
            let mut evil = sealed.clone();
            evil[byte] ^= 0x01;
            assert_eq!(
                decode_frame_sealed::<Vec<u64>>(&evil, Some(&key)),
                Err(WireError::BadAuthTag),
                "byte {byte}"
            );
        }
    }

    #[test]
    fn wrong_key_and_truncated_tag_are_rejected() {
        let key = test_key();
        let other = AuthKey::from_passphrase("not-the-cluster-key");
        let sealed = encode_frame_sealed(NodeId::new(5), TraceCtx::NONE, Some(&key), &42u64);
        assert_eq!(
            decode_frame_sealed::<u64>(&sealed, Some(&other)),
            Err(WireError::BadAuthTag)
        );
        // Truncation at every cut is an error under a keyed decoder too.
        for cut in 0..sealed.len() {
            let err = decode_frame_sealed::<u64>(&sealed[..cut], Some(&key)).unwrap_err();
            assert!(
                !matches!(err, WireError::TrailingBytes { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn auth_flag_without_tag_bytes_is_a_bad_tag() {
        let mut w = WireWriter::new();
        w.put_u16(WIRE_MAGIC);
        w.put_u8(WIRE_VERSION);
        w.put_u8(FLAG_AUTH);
        w.put_u32(0);
        w.put_u32(0); // empty payload...
        w.put_u32(0xBEEF); // ...but only 4 of the 16 tag bytes
        assert_eq!(
            decode_frame_sealed::<u64>(&w.into_bytes(), Some(&test_key())),
            Err(WireError::BadAuthTag)
        );
    }
}
