//! Wire-codec impls for the anti-entropy messages, so [`AeNode`] runs
//! unchanged on the real-socket host (`gossip-node`).
//!
//! The layout mirrors the modelled sizing of [`AeMsg`]: a one-byte tag,
//! then exactly the fields `AeNode`'s bit accounting charges for. A flat
//! digest travels **sparse** — the store arity, then one
//! `(origin, stamp)` pair per known origin — matching the model's
//! `8 + 32 + known·(id_bits + STAMP_BITS)` (the dense `Vec<u64>` form an
//! earlier revision shipped charged sparse but encoded all n stamps, so
//! the model and the wire disagreed for every sparse store: early ticks,
//! rejoiners). Deltas are `(origin, stamp, value)` triples; the Merkle
//! legs carry root hashes, `(tree index, hash)` probe pairs and per-slot
//! range stamps. A range ack is the arity, the range start, a `u8` range
//! length (at most [`MAX_RANGE_SLOTS`]; longer is a [`WireError`]), the
//! `u64` want word and the delta: 22 + 20·k bytes for k entries, at any
//! range length. [`payload_bytes`] is the exact byte-length twin of the
//! encoder, pinned equal to `to_wire_bytes().len()` by the property
//! suite, so tests and experiments can reason about datagram budgets
//! without encoding.
//!
//! The decoder is total (property-pinned): truncated, oversized,
//! bit-flipped and hostile-length input returns [`WireError`], never a
//! panic. Decoding is only the first gate — a structurally valid message
//! can still carry a hostile digest (wrong arity, unsorted pairs,
//! out-of-range origins), which [`AeNode`] validates and counts before
//! trusting (see `AeNodeStats::digest_mismatches`).
//!
//! [`AeNode`]: crate::protocol::AeNode
//! [`STAMP_BITS`]: crate::store::STAMP_BITS

use crate::merkle::MAX_RANGE_SLOTS;
use crate::protocol::AeMsg;
use crate::store::Entry;
use gossip_net::{NodeId, WireError, WireMsg, WireReader, WireWriter};

impl WireMsg for Entry {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.stamp);
        w.put_f64(self.value);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Entry {
            stamp: r.take_u64()?,
            value: r.take_f64()?,
        })
    }
}

const TAG_SYN_REQ: u8 = 0;
const TAG_SYN_ACK: u8 = 1;
const TAG_DELTA: u8 = 2;
const TAG_MERKLE_SYN: u8 = 3;
const TAG_MERKLE_PROBE: u8 = 4;
const TAG_RANGE_SYN: u8 = 5;
const TAG_RANGE_ACK: u8 = 6;

impl WireMsg for AeMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            AeMsg::SynReq { n, digest } => {
                w.put_u8(TAG_SYN_REQ);
                w.put_u32(*n);
                digest.encode(w);
            }
            AeMsg::SynAck { n, delta, digest } => {
                w.put_u8(TAG_SYN_ACK);
                w.put_u32(*n);
                delta.encode(w);
                digest.encode(w);
            }
            AeMsg::Delta { delta } => {
                w.put_u8(TAG_DELTA);
                delta.encode(w);
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
                stamps.encode(w);
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
                delta.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            TAG_SYN_REQ => Ok(AeMsg::SynReq {
                n: r.take_u32()?,
                digest: Vec::<(NodeId, u64)>::decode(r)?,
            }),
            TAG_SYN_ACK => Ok(AeMsg::SynAck {
                n: r.take_u32()?,
                delta: Vec::<(NodeId, Entry)>::decode(r)?,
                digest: Vec::<(NodeId, u64)>::decode(r)?,
            }),
            TAG_DELTA => Ok(AeMsg::Delta {
                delta: Vec::<(NodeId, Entry)>::decode(r)?,
            }),
            TAG_MERKLE_SYN => Ok(AeMsg::MerkleSyn {
                n: r.take_u32()?,
                root: r.take_u64()?,
            }),
            TAG_MERKLE_PROBE => Ok(AeMsg::MerkleProbe {
                n: r.take_u32()?,
                probes: Vec::<(u32, u64)>::decode(r)?,
            }),
            TAG_RANGE_SYN => Ok(AeMsg::RangeSyn {
                n: r.take_u32()?,
                start: r.take_u32()?,
                stamps: Vec::<u64>::decode(r)?,
            }),
            TAG_RANGE_ACK => {
                let (n, start, len) = (r.take_u32()?, r.take_u32()?, r.take_u8()?);
                if usize::from(len) > MAX_RANGE_SLOTS {
                    return Err(WireError::BadLength {
                        claimed: len.into(),
                    });
                }
                Ok(AeMsg::RangeAck {
                    n,
                    start,
                    len,
                    want: r.take_u64()?,
                    delta: Vec::<(NodeId, Entry)>::decode(r)?,
                })
            }
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

/// Exact encoded payload size of `msg`, computed from its counts without
/// encoding: `payload_bytes(m) == m.to_wire_bytes().len()` for every
/// message (property-pinned). The arithmetic twin the datagram-budget
/// assertions and E20's in-vitro byte measurements use.
pub fn payload_bytes(msg: &AeMsg) -> usize {
    const VEC_LEN: usize = 4; // Vec<T> length prefix
    const PAIR: usize = 4 + 8; // (NodeId, u64) — digest pairs and probes
    const DELTA_ENTRY: usize = 4 + 8 + 8; // (NodeId, Entry{stamp, value})
    match msg {
        AeMsg::SynReq { digest, .. } => 1 + 4 + VEC_LEN + digest.len() * PAIR,
        AeMsg::SynAck { delta, digest, .. } => {
            1 + 4 + VEC_LEN + delta.len() * DELTA_ENTRY + VEC_LEN + digest.len() * PAIR
        }
        AeMsg::Delta { delta } => 1 + VEC_LEN + delta.len() * DELTA_ENTRY,
        AeMsg::MerkleSyn { .. } => 1 + 4 + 8,
        AeMsg::MerkleProbe { probes, .. } => 1 + 4 + VEC_LEN + probes.len() * PAIR,
        AeMsg::RangeSyn { stamps, .. } => 1 + 4 + 4 + VEC_LEN + stamps.len() * 8,
        AeMsg::RangeAck { delta, .. } => 1 + 4 + 4 + 1 + 8 + VEC_LEN + delta.len() * DELTA_ENTRY,
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
            AeMsg::RangeAck {
                n: 64,
                start: 32,
                len: 4,
                want: 0b1010,
                delta: delta.clone(),
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
        // A 32-slot range ack costs its header and its entries, no stamps.
        let ack = |k: usize| AeMsg::RangeAck {
            n: 1 << 20,
            start: 64,
            len: 32,
            want: 0xFFFF_0000,
            delta: delta.iter().copied().cycle().take(k).collect(),
        };
        for k in [0, 1, 2, 32] {
            assert_eq!(payload_bytes(&ack(k)), 22 + 20 * k);
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
        // The satellite bugfix in one assertion: the wire size of a digest
        // is a function of what the replica *knows*, not of n — a
        // rejoiner's opener is 9 bytes whether the network has ten nodes
        // or a million.
        let rejoiner = AeMsg::SynReq {
            n: 1_000_000,
            digest: Vec::new(),
        };
        assert_eq!(payload_bytes(&rejoiner), 9);
        let one_known = AeMsg::SynReq {
            n: 1_000_000,
            digest: vec![(NodeId::new(123_456), 7)],
        };
        assert_eq!(payload_bytes(&one_known), 9 + 12);
    }
}
