//! Wire-codec impls for the anti-entropy messages, so [`AeNode`] runs
//! unchanged on the real-socket host (`gossip-node`).
//!
//! The layout mirrors the modelled sizing of [`AeMsg`]: a one-byte tag,
//! then exactly the fields `AeNode`'s bit accounting charges for. Every
//! stamp vector travels as one **stamp run** (see [`crate::stamps`]): a
//! `u64` base, a `u8` byte width, then one code of that many bytes per
//! stamp, and nothing at all for an empty vector. Per leg (`run(k)` is
//! `9 + k·⌈w/8⌉` bytes, 0 when k = 0):
//!
//! - a flat digest travels **sparse**: a `u32` pair count, the run, then
//!   `u32` origin and code per known origin, `4 + 4k + run(k)` bytes;
//! - a delta is a `u32` count, the run, then `u32` origin, code and `f64`
//!   value per entry, `4 + 12k + run(k)`;
//! - a range syn is the arity, the range start, a `u8` range length (at
//!   most [`MAX_RANGE_SLOTS`]) and the run over its per-slot stamps: a
//!   32-slot range at 23-bit codes is 115 bytes;
//! - a range ack is the arity, the start, the `u8` length, the `u64` want
//!   word and its delta, whose entries name their slot by a `u8` offset
//!   from the start: `22 + 9k + run(k)` bytes, 12 per entry at 23-bit codes;
//! - the Merkle opener and probes carry root hashes and `(tree index,
//!   hash)` pairs at fixed widths.
//!
//! The model charges each code its logical width in bits; the wire rounds
//! it up to whole bytes, so a code is one byte copy. [`payload_bytes`] is
//! the exact byte-length twin of the encoder, pinned equal to
//! `to_wire_bytes().len()` by the property suite, so tests and experiments
//! can reason about datagram budgets without encoding.
//!
//! The decoder is total (property-pinned): truncated, oversized,
//! bit-flipped and hostile-length input returns [`WireError`], never a
//! panic. A range length above [`MAX_RANGE_SLOTS`] is
//! [`WireError::BadLength`] (width-0 codes occupy no bytes, so the length
//! check is what keeps a hostile one from allocating); a run width byte
//! above 8, a code that overflows its base and a range-ack offset at or
//! beyond the length are [`WireError::OutOfRange`]. Decoding is only the
//! first gate — a structurally valid message can still carry a hostile
//! digest (wrong arity, unsorted pairs, out-of-range origins), which
//! [`AeNode`] validates and counts before trusting (see
//! `AeNodeStats::digest_mismatches`).
//!
//! [`AeNode`]: crate::protocol::AeNode

use crate::merkle::MAX_RANGE_SLOTS;
use crate::protocol::AeMsg;
use crate::stamps::{RunReader, StampRun};
use crate::store::Entry;
use gossip_net::{NodeId, WireError, WireMsg, WireReader, WireWriter};

const TAG_SYN_REQ: u8 = 0;
const TAG_SYN_ACK: u8 = 1;
const TAG_DELTA: u8 = 2;
const TAG_MERKLE_SYN: u8 = 3;
const TAG_MERKLE_PROBE: u8 = 4;
const TAG_RANGE_SYN: u8 = 5;
const TAG_RANGE_ACK: u8 = 6;

/// Bytes of the `u32` count in front of a delta or a digest.
const COUNT_BYTES: usize = 4;
/// Bytes of an absolute origin id.
const ID_BYTES: usize = 4;
/// Bytes of a range-ack entry's slot offset.
const OFFSET_BYTES: usize = 1;
/// Bytes of an entry's value.
const VALUE_BYTES: usize = 8;

/// How a delta's entries name their origins on the wire.
#[derive(Clone, Copy)]
enum Origins {
    /// A `u32` origin id.
    Absolute,
    /// A `u8` offset into the range `[start, start + len)` of a range ack.
    InRange { start: u32, len: u8 },
}

impl Origins {
    fn bytes(self) -> usize {
        match self {
            Origins::Absolute => ID_BYTES,
            Origins::InRange { .. } => OFFSET_BYTES,
        }
    }

    fn put(self, w: &mut WireWriter, origin: NodeId) {
        match self {
            Origins::Absolute => origin.encode(w),
            Origins::InRange { start, len } => {
                let offset = origin.0.wrapping_sub(start);
                assert!(
                    offset < u32::from(len),
                    "range-ack entry {origin:?} outside [{start}, {start} + {len})"
                );
                w.put_u8(offset as u8);
            }
        }
    }

    fn take(self, r: &mut WireReader<'_>) -> Result<NodeId, WireError> {
        match self {
            Origins::Absolute => NodeId::decode(r),
            Origins::InRange { start, len } => {
                let offset = r.take_u8()?;
                let origin = start.checked_add(offset.into());
                match origin {
                    Some(origin) if offset < len => Ok(NodeId(origin)),
                    _ => Err(WireError::OutOfRange {
                        value: u64::from(start) + u64::from(offset),
                    }),
                }
            }
        }
    }
}

fn put_entries(w: &mut WireWriter, entries: &[(NodeId, Entry)], origins: Origins) {
    w.put_u32(entries.len() as u32);
    let run = StampRun::of_entries(entries);
    run.put_header(w, entries.len());
    for &(origin, entry) in entries {
        origins.put(w, origin);
        run.put(w, entry.stamp);
        w.put_f64(entry.value);
    }
}

fn take_entries(
    r: &mut WireReader<'_>,
    origins: Origins,
) -> Result<Vec<(NodeId, Entry)>, WireError> {
    let k = r.take_u32()? as usize;
    let run = RunReader::take_header(r, k)?;
    r.check_len(k, origins.bytes() + run.code_bytes() + VALUE_BYTES)?;
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let origin = origins.take(r)?;
        let stamp = run.take(r)?;
        let value = r.take_f64()?;
        out.push((origin, Entry { stamp, value }));
    }
    Ok(out)
}

fn entries_bytes(entries: &[(NodeId, Entry)], origins: Origins) -> usize {
    let k = entries.len();
    COUNT_BYTES + k * (origins.bytes() + VALUE_BYTES) + StampRun::of_entries(entries).wire_bytes(k)
}

fn put_pairs(w: &mut WireWriter, pairs: &[(NodeId, u64)]) {
    w.put_u32(pairs.len() as u32);
    let run = StampRun::of_pairs(pairs);
    run.put_header(w, pairs.len());
    for &(origin, stamp) in pairs {
        origin.encode(w);
        run.put(w, stamp);
    }
}

fn take_pairs(r: &mut WireReader<'_>) -> Result<Vec<(NodeId, u64)>, WireError> {
    let k = r.take_u32()? as usize;
    let run = RunReader::take_header(r, k)?;
    r.check_len(k, ID_BYTES + run.code_bytes())?;
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        out.push((NodeId::decode(r)?, run.take(r)?));
    }
    Ok(out)
}

fn pairs_bytes(pairs: &[(NodeId, u64)]) -> usize {
    let k = pairs.len();
    COUNT_BYTES + k * ID_BYTES + StampRun::of_pairs(pairs).wire_bytes(k)
}

/// A range length, rejected above [`MAX_RANGE_SLOTS`].
fn take_range_len(r: &mut WireReader<'_>) -> Result<u8, WireError> {
    let len = r.take_u8()?;
    if usize::from(len) > MAX_RANGE_SLOTS {
        return Err(WireError::BadLength {
            claimed: len.into(),
        });
    }
    Ok(len)
}

impl WireMsg for AeMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            AeMsg::SynReq { n, digest } => {
                w.put_u8(TAG_SYN_REQ);
                w.put_u32(*n);
                put_pairs(w, digest);
            }
            AeMsg::SynAck { n, delta, digest } => {
                w.put_u8(TAG_SYN_ACK);
                w.put_u32(*n);
                put_entries(w, delta, Origins::Absolute);
                put_pairs(w, digest);
            }
            AeMsg::Delta { delta } => {
                w.put_u8(TAG_DELTA);
                put_entries(w, delta, Origins::Absolute);
            }
            AeMsg::MerkleSyn { n, root } => {
                w.put_u8(TAG_MERKLE_SYN);
                w.put_u32(*n);
                w.put_u64(*root);
            }
            AeMsg::MerkleProbe { n, probes } => {
                w.put_u8(TAG_MERKLE_PROBE);
                w.put_u32(*n);
                probes.encode(w);
            }
            AeMsg::RangeSyn { n, start, stamps } => {
                w.put_u8(TAG_RANGE_SYN);
                w.put_u32(*n);
                w.put_u32(*start);
                let len = u8::try_from(stamps.len()).expect("a range syn's length fits a byte");
                w.put_u8(len);
                let run = StampRun::of_stamps(stamps);
                run.put_header(w, stamps.len());
                for &stamp in stamps {
                    run.put(w, stamp);
                }
            }
            AeMsg::RangeAck {
                n,
                start,
                len,
                want,
                delta,
            } => {
                w.put_u8(TAG_RANGE_ACK);
                w.put_u32(*n);
                w.put_u32(*start);
                w.put_u8(*len);
                w.put_u64(*want);
                let origins = Origins::InRange {
                    start: *start,
                    len: *len,
                };
                put_entries(w, delta, origins);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            TAG_SYN_REQ => Ok(AeMsg::SynReq {
                n: r.take_u32()?,
                digest: take_pairs(r)?,
            }),
            TAG_SYN_ACK => Ok(AeMsg::SynAck {
                n: r.take_u32()?,
                delta: take_entries(r, Origins::Absolute)?,
                digest: take_pairs(r)?,
            }),
            TAG_DELTA => Ok(AeMsg::Delta {
                delta: take_entries(r, Origins::Absolute)?,
            }),
            TAG_MERKLE_SYN => Ok(AeMsg::MerkleSyn {
                n: r.take_u32()?,
                root: r.take_u64()?,
            }),
            TAG_MERKLE_PROBE => Ok(AeMsg::MerkleProbe {
                n: r.take_u32()?,
                probes: Vec::<(u32, u64)>::decode(r)?,
            }),
            TAG_RANGE_SYN => {
                let (n, start, len) = (r.take_u32()?, r.take_u32()?, take_range_len(r)?);
                let run = RunReader::take_header(r, len.into())?;
                let stamps = (0..len).map(|_| run.take(r)).collect::<Result<_, _>>()?;
                Ok(AeMsg::RangeSyn { n, start, stamps })
            }
            TAG_RANGE_ACK => {
                let (n, start, len) = (r.take_u32()?, r.take_u32()?, take_range_len(r)?);
                let want = r.take_u64()?;
                let delta = take_entries(r, Origins::InRange { start, len })?;
                Ok(AeMsg::RangeAck {
                    n,
                    start,
                    len,
                    want,
                    delta,
                })
            }
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

/// Exact encoded payload size of `msg`, computed from its counts and stamp
/// runs without encoding: `payload_bytes(m) == m.to_wire_bytes().len()`
/// for every message (property-pinned). The arithmetic twin the
/// datagram-budget assertions and E20's in-vitro byte measurements use.
pub fn payload_bytes(msg: &AeMsg) -> usize {
    const PROBE: usize = 4 + 8; // (tree index, hash)
    match msg {
        AeMsg::SynReq { digest, .. } => 1 + 4 + pairs_bytes(digest),
        AeMsg::SynAck { delta, digest, .. } => {
            1 + 4 + entries_bytes(delta, Origins::Absolute) + pairs_bytes(digest)
        }
        AeMsg::Delta { delta } => 1 + entries_bytes(delta, Origins::Absolute),
        AeMsg::MerkleSyn { .. } => 1 + 4 + 8,
        AeMsg::MerkleProbe { probes, .. } => 1 + 4 + COUNT_BYTES + probes.len() * PROBE,
        AeMsg::RangeSyn { stamps, .. } => {
            1 + 4 + 4 + 1 + StampRun::of_stamps(stamps).wire_bytes(stamps.len())
        }
        AeMsg::RangeAck {
            start, len, delta, ..
        } => {
            let origins = Origins::InRange {
                start: *start,
                len: *len,
            };
            1 + 4 + 4 + 1 + 8 + entries_bytes(delta, origins)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &AeMsg) -> AeMsg {
        let bytes = msg.to_wire_bytes();
        assert_eq!(bytes.len(), payload_bytes(msg), "size twin agrees");
        let mut r = WireReader::new(&bytes);
        let decoded = AeMsg::decode(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0, "decode consumes everything");
        decoded
    }

    fn entry(stamp: u64, value: f64) -> Entry {
        Entry { stamp, value }
    }

    #[test]
    fn every_leg_round_trips() {
        let digest = vec![(NodeId::new(1), 5u64), (NodeId::new(3), 12)];
        let delta = vec![
            (NodeId::new(1), entry(5, 1.25)),
            (NodeId::new(3), entry(12, -7.5)),
        ];
        let in_range = vec![
            (NodeId::new(33), entry(5, 1.25)),
            (NodeId::new(35), entry(12, -7.5)),
        ];
        for msg in [
            AeMsg::SynReq {
                n: 4,
                digest: digest.clone(),
            },
            AeMsg::SynAck {
                n: 4,
                delta: delta.clone(),
                digest: digest.clone(),
            },
            AeMsg::Delta {
                delta: delta.clone(),
            },
            AeMsg::SynReq {
                n: 4,
                digest: Vec::new(),
            },
            AeMsg::Delta { delta: Vec::new() },
            AeMsg::MerkleSyn {
                n: 1 << 20,
                root: u64::MAX,
            },
            AeMsg::MerkleProbe {
                n: 64,
                probes: vec![(1, 0xDEAD), (2, 0xBEEF)],
            },
            AeMsg::RangeSyn {
                n: 64,
                start: 32,
                stamps: vec![0, 7, 0, 9],
            },
            AeMsg::RangeSyn {
                n: 64,
                start: 32,
                stamps: vec![0; 4],
            },
            AeMsg::RangeAck {
                n: 64,
                start: 32,
                len: 4,
                want: 0b1010,
                delta: in_range.clone(),
            },
            AeMsg::RangeAck {
                n: 64,
                start: 0,
                len: 64,
                want: u64::MAX,
                delta: Vec::new(),
            },
        ] {
            assert_eq!(round_trip(&msg), msg);
        }
    }

    #[test]
    fn range_legs_cost_what_the_layout_doc_says() {
        // A 32-slot range syn at 23-bit codes: 10 header bytes, a 9-byte
        // run header and 3 bytes per slot (it was 269 at 8 bytes a stamp).
        let base = 40_000_000;
        let stamps: Vec<u64> = (0..32).map(|k| base + k * 200_000).collect();
        assert_eq!(StampRun::of_stamps(&stamps).width(), 23);
        let syn = AeMsg::RangeSyn {
            n: 256,
            start: 64,
            stamps,
        };
        assert_eq!(payload_bytes(&syn), 115);
        assert_eq!(round_trip(&syn), syn);
        // A 32-slot range ack: its header, then 9 bytes of run and 12 per
        // entry at 23-bit codes (it was 22 + 20 per entry).
        let ack = |k: u64| AeMsg::RangeAck {
            n: 1 << 20,
            start: 64,
            len: 32,
            want: 0xFFFF_0000,
            delta: (0..k)
                .map(|i| (NodeId::new(64 + i as usize), entry(base + i * 200_000, 0.5)))
                .collect(),
        };
        assert_eq!(payload_bytes(&ack(0)), 22);
        for k in [2, 32] {
            assert_eq!(payload_bytes(&ack(k)), 22 + 9 + 12 * k as usize);
            assert_eq!(round_trip(&ack(k)), ack(k));
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut bytes = AeMsg::MerkleSyn { n: 4, root: 9 }.to_wire_bytes();
        bytes[0] = 9;
        assert_eq!(
            AeMsg::decode(&mut WireReader::new(&bytes)),
            Err(WireError::BadTag { tag: 9 })
        );
    }

    #[test]
    fn truncation_never_panics() {
        for msg in [
            AeMsg::SynAck {
                n: 3,
                delta: vec![(NodeId::new(2), entry(9, 3.0))],
                digest: vec![(NodeId::new(1), 9)],
            },
            AeMsg::RangeAck {
                n: 8,
                start: 4,
                len: 2,
                want: 0b10,
                delta: vec![(NodeId::new(5), entry(2, 0.5))],
            },
            AeMsg::RangeSyn {
                n: 8,
                start: 4,
                stamps: vec![1, 2],
            },
            AeMsg::MerkleProbe {
                n: 8,
                probes: vec![(0, 1)],
            },
        ] {
            let bytes = msg.to_wire_bytes();
            for cut in 0..bytes.len() {
                assert!(AeMsg::decode(&mut WireReader::new(&bytes[..cut])).is_err());
            }
        }
    }

    #[test]
    fn digests_cost_bytes_only_for_known_origins() {
        // The wire size of a digest is a function of what the replica
        // *knows*, not of n — a rejoiner's opener is 9 bytes whether the
        // network has ten nodes or a million.
        let rejoiner = AeMsg::SynReq {
            n: 1_000_000,
            digest: Vec::new(),
        };
        assert_eq!(payload_bytes(&rejoiner), 9);
        let one_known = AeMsg::SynReq {
            n: 1_000_000,
            digest: vec![(NodeId::new(123_456), 7)],
        };
        // The origin, a run header and one 1-byte code.
        assert_eq!(payload_bytes(&one_known), 9 + 4 + 9 + 1);
    }
}
