//! Wire-codec impls for the membership envelope, so [`Member`] runs
//! unchanged on the real-socket host (`gossip-node`).
//!
//! The layout mirrors the modelled sizing exactly: a one-byte tag, the
//! variant's fixed fields, then the piggybacked rumor vector (a `u8` count,
//! so at most [`MAX_UPDATES`] rumors a message, then 13 bytes per
//! [`Update`]: u32 id, u64 incarnation, u8 state). The
//! [`payload_bytes`] helper is the byte-length twin of the encoder —
//! pinned equal to `to_wire_bytes().len()` by the property suite — and
//! the one place `swim.rs` reads message sizes from: the piggyback budget
//! arithmetic that keeps every datagram under `budget_bytes` and away
//! from `send_oversize`, and the modelled bits every send is charged.
//!
//! The decoder is total: truncated, oversized, bit-flipped and
//! hostile-length input returns [`WireError`], never a panic. Decoding is
//! only the first gate — a structurally valid rumor can still be hostile
//! (subject outside the universe, stale incarnation, self-referential
//! death claim), which [`Member`] rejects and counts before trusting
//! (`member_forged_*`, `member_stale_updates_total`).
//!
//! [`Member`]: crate::Member

use crate::state::{Liveness, Update, UPDATE_WIRE_BYTES};
use crate::swim::MemberMsg;
use gossip_net::{NodeId, WireError, WireMsg, WireReader, WireWriter};

const TAG_PING: u8 = 0;
const TAG_ACK: u8 = 1;
const TAG_PING_REQ: u8 = 2;
const TAG_JOIN: u8 = 3;
const TAG_JOIN_ACK: u8 = 4;
const TAG_LEAVE: u8 = 5;
const TAG_APP: u8 = 6;

/// Most rumors one message carries: the count travels as one byte.
pub const MAX_UPDATES: usize = u8::MAX as usize;
/// Wire bytes of the rumor count.
const UPDATES_LEN_BYTES: usize = 1;

fn put_updates(w: &mut WireWriter, updates: &[Update]) {
    let k = u8::try_from(updates.len()).expect("at most MAX_UPDATES rumors per message");
    w.put_u8(k);
    for update in updates {
        update.encode(w);
    }
}

fn take_updates(r: &mut WireReader<'_>) -> Result<Vec<Update>, WireError> {
    let k = usize::from(r.take_u8()?);
    r.check_len(k, UPDATE_WIRE_BYTES)?;
    (0..k).map(|_| Update::decode(r)).collect()
}

impl WireMsg for Update {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.node.index() as u32);
        w.put_u64(self.incarnation);
        w.put_u8(self.state.to_wire());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let node = NodeId::new(r.take_u32()? as usize);
        let incarnation = r.take_u64()?;
        let tag = r.take_u8()?;
        let state = Liveness::from_wire(tag).ok_or(WireError::BadTag { tag })?;
        Ok(Update {
            node,
            incarnation,
            state,
        })
    }
}

impl<M: WireMsg> WireMsg for MemberMsg<M> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            MemberMsg::Ping {
                seq,
                origin,
                updates,
            } => {
                w.put_u8(TAG_PING);
                w.put_u64(*seq);
                origin.encode(w);
                put_updates(w, updates);
            }
            MemberMsg::Ack {
                seq,
                origin,
                updates,
            } => {
                w.put_u8(TAG_ACK);
                w.put_u64(*seq);
                origin.encode(w);
                put_updates(w, updates);
            }
            MemberMsg::PingReq {
                seq,
                target,
                updates,
            } => {
                w.put_u8(TAG_PING_REQ);
                w.put_u64(*seq);
                target.encode(w);
                put_updates(w, updates);
            }
            MemberMsg::Join { updates } => {
                w.put_u8(TAG_JOIN);
                put_updates(w, updates);
            }
            MemberMsg::JoinAck { updates } => {
                w.put_u8(TAG_JOIN_ACK);
                put_updates(w, updates);
            }
            MemberMsg::Leave {
                incarnation,
                updates,
            } => {
                w.put_u8(TAG_LEAVE);
                w.put_u64(*incarnation);
                put_updates(w, updates);
            }
            MemberMsg::App { payload, updates } => {
                w.put_u8(TAG_APP);
                payload.encode(w);
                put_updates(w, updates);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            TAG_PING => Ok(MemberMsg::Ping {
                seq: r.take_u64()?,
                origin: NodeId::decode(r)?,
                updates: take_updates(r)?,
            }),
            TAG_ACK => Ok(MemberMsg::Ack {
                seq: r.take_u64()?,
                origin: NodeId::decode(r)?,
                updates: take_updates(r)?,
            }),
            TAG_PING_REQ => Ok(MemberMsg::PingReq {
                seq: r.take_u64()?,
                target: NodeId::decode(r)?,
                updates: take_updates(r)?,
            }),
            TAG_JOIN => Ok(MemberMsg::Join {
                updates: take_updates(r)?,
            }),
            TAG_JOIN_ACK => Ok(MemberMsg::JoinAck {
                updates: take_updates(r)?,
            }),
            TAG_LEAVE => Ok(MemberMsg::Leave {
                incarnation: r.take_u64()?,
                updates: take_updates(r)?,
            }),
            TAG_APP => Ok(MemberMsg::App {
                payload: M::decode(r)?,
                updates: take_updates(r)?,
            }),
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

/// Exact encoded size of `msg` in bytes, given the encoded size of the
/// wrapped payload for [`MemberMsg::App`] (`app_payload_bytes` is ignored
/// for control variants). The size-twin of [`WireMsg::encode`].
pub fn payload_bytes<M>(msg: &MemberMsg<M>, app_payload_bytes: usize) -> usize {
    let updates_bytes = UPDATES_LEN_BYTES + UPDATE_WIRE_BYTES * msg.updates().len();
    match msg {
        MemberMsg::Ping { .. } | MemberMsg::Ack { .. } | MemberMsg::PingReq { .. } => {
            1 + 8 + 4 + updates_bytes
        }
        MemberMsg::Join { .. } | MemberMsg::JoinAck { .. } => 1 + updates_bytes,
        MemberMsg::Leave { .. } => 1 + 8 + updates_bytes,
        MemberMsg::App { .. } => 1 + app_payload_bytes + updates_bytes,
    }
}

/// The modelled size of `msg` in bits, what every `Member` send is
/// charged: its wire bytes × 8, plus `app_bits` (the wrapped message's own
/// modelled size) for [`MemberMsg::App`]; control variants pass 0.
pub(crate) fn modelled_bits<M>(msg: &MemberMsg<M>, app_bits: u32) -> u32 {
    app_bits + (8 * payload_bytes(msg, 0)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ups() -> Vec<Update> {
        vec![
            Update {
                node: NodeId::new(3),
                incarnation: 7,
                state: Liveness::Suspect,
            },
            Update {
                node: NodeId::new(9),
                incarnation: 0,
                state: Liveness::Alive,
            },
        ]
    }

    fn round_trip(msg: MemberMsg<u64>) {
        let bytes = msg.to_wire_bytes();
        assert_eq!(bytes.len(), payload_bytes(&msg, 8));
        let mut r = WireReader::new(&bytes);
        let back = MemberMsg::<u64>::decode(&mut r).expect("decodes");
        assert_eq!(back, msg);
        assert_eq!(r.remaining(), 0, "decoder consumed exactly the encoding");
    }

    #[test]
    fn every_variant_round_trips_with_exact_sizes() {
        round_trip(MemberMsg::Ping {
            seq: 42,
            origin: NodeId::new(1),
            updates: ups(),
        });
        round_trip(MemberMsg::Ack {
            seq: 42,
            origin: NodeId::new(1),
            updates: Vec::new(),
        });
        round_trip(MemberMsg::PingReq {
            seq: 7,
            target: NodeId::new(5),
            updates: ups(),
        });
        round_trip(MemberMsg::Join { updates: ups() });
        round_trip(MemberMsg::JoinAck { updates: ups() });
        round_trip(MemberMsg::Leave {
            incarnation: 3,
            updates: ups(),
        });
        round_trip(MemberMsg::App {
            payload: 0xDEAD_BEEF_u64,
            updates: ups(),
        });
    }

    #[test]
    fn rumor_counts_travel_in_one_byte() {
        let full = MemberMsg::<u64>::JoinAck {
            updates: ups().into_iter().cycle().take(MAX_UPDATES).collect(),
        };
        round_trip(full.clone());
        assert_eq!(
            payload_bytes(&full, 0),
            1 + 1 + MAX_UPDATES * UPDATE_WIRE_BYTES
        );
        // Every cut of every variant fails to decode, count byte included.
        let msg = MemberMsg::<u64>::Leave {
            incarnation: 3,
            updates: ups(),
        };
        let bytes = msg.to_wire_bytes();
        for cut in 0..bytes.len() {
            assert!(MemberMsg::<u64>::decode(&mut WireReader::new(&bytes[..cut])).is_err());
        }
        // A count claiming more rumors than the bytes behind it hold is
        // rejected before anything is allocated.
        let mut bytes = MemberMsg::<u64>::Join { updates: ups() }.to_wire_bytes();
        bytes[1] = u8::MAX;
        assert_eq!(
            MemberMsg::<u64>::decode(&mut WireReader::new(&bytes)),
            Err(WireError::BadLength { claimed: 255 })
        );
    }

    #[test]
    #[should_panic(expected = "at most MAX_UPDATES rumors")]
    fn more_rumors_than_the_count_byte_refuse_to_encode() {
        let msg = MemberMsg::<u64>::JoinAck {
            updates: ups().into_iter().cycle().take(MAX_UPDATES + 1).collect(),
        };
        let _ = msg.to_wire_bytes();
    }

    #[test]
    fn hostile_liveness_tag_is_rejected() {
        let good = Update {
            node: NodeId::new(1),
            incarnation: 1,
            state: Liveness::Dead,
        };
        let mut bytes = good.to_wire_bytes();
        assert_eq!(bytes.len(), UPDATE_WIRE_BYTES);
        *bytes.last_mut().unwrap() = 9;
        let mut r = WireReader::new(&bytes);
        assert!(Update::decode(&mut r).is_err());
    }
}
