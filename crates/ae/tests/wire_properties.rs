//! Property suite for the anti-entropy wire encoding: every generated
//! `AeMsg` — classic legs and Merkle descent legs alike — round-trips
//! bit-exactly, the arithmetic size twin (`payload_bytes`) matches the
//! encoder byte for byte, and mangled frames never panic the decoder —
//! the node host must survive arbitrary datagrams.

use gossip_ae::protocol::AeMsg;
use gossip_ae::store::Entry;
use gossip_ae::wire::payload_bytes;
use gossip_ae::MAX_RANGE_SLOTS;
use gossip_net::{decode_frame, encode_frame, NodeId, WireMsg, WireReader};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Decode a packed `u64` into one delta pair (stamps ≥ 1, like honest
/// origins; values cover negatives and fractions).
fn pair(z: u64) -> (NodeId, Entry) {
    (
        NodeId((z % 97) as u32),
        Entry {
            stamp: 1 + (z >> 8) % 1_000_000,
            value: ((z as i64) as f64) / 3.0,
        },
    )
}

/// Decode a packed `u64` into one sparse-digest pair. No honesty
/// constraints (sortedness, range) — the codec must carry hostile shapes
/// verbatim; it is the protocol layer that rejects them.
fn digest_pair(z: u64) -> (NodeId, u64) {
    (NodeId((z % 131) as u32), z >> 7)
}

/// One message of every variant, built from the generated raw material.
fn messages(raws: &[u64], digest_raws: &[u64]) -> Vec<AeMsg> {
    let delta: Vec<(NodeId, Entry)> = raws.iter().copied().map(pair).collect();
    let digest: Vec<(NodeId, u64)> = digest_raws.iter().copied().map(digest_pair).collect();
    let probes: Vec<(u32, u64)> = digest_raws.iter().map(|&z| ((z % 511) as u32, z)).collect();
    let stamps: Vec<u64> = digest_raws.iter().map(|&z| z % 9).collect();
    let n = 1 + (raws.first().copied().unwrap_or(7) % (1 << 20)) as u32;
    vec![
        AeMsg::SynReq {
            n,
            digest: digest.clone(),
        },
        AeMsg::SynAck {
            n,
            delta: delta.clone(),
            digest,
        },
        AeMsg::Delta {
            delta: delta.clone(),
        },
        AeMsg::MerkleSyn {
            n,
            root: raws.iter().fold(0x5EED, |h, &z| h ^ z),
        },
        AeMsg::MerkleProbe { n, probes },
        AeMsg::RangeSyn {
            n,
            start: n / 2,
            stamps,
        },
        AeMsg::RangeAck {
            n,
            start: n / 2,
            len: (digest_raws.len() % (MAX_RANGE_SLOTS + 1)) as u8,
            want: digest_raws.iter().fold(0, |w, &z| w ^ z),
            delta,
        },
    ]
}

proptest! {
    #[test]
    fn every_leg_round_trips_and_sizes_agree(
        raws in proptest::collection::vec(0u64..=u64::MAX, 0..48),
        digest_raws in proptest::collection::vec(0u64..=u64::MAX, 0..64),
    ) {
        for msg in messages(&raws, &digest_raws) {
            let bytes = msg.to_wire_bytes();
            prop_assert_eq!(bytes.len(), payload_bytes(&msg), "size twin diverged");
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(AeMsg::decode(&mut r).unwrap(), msg);
            prop_assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn framed_legs_round_trip(
        raws in proptest::collection::vec(0u64..=u64::MAX, 0..16),
        from in 0u32..1024,
    ) {
        for msg in messages(&raws, &[0, 3, 0, 9]) {
            let frame = encode_frame(NodeId(from), &msg);
            let (sender, decoded): (NodeId, AeMsg) = decode_frame(&frame).unwrap();
            prop_assert_eq!(sender, NodeId(from));
            prop_assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn mangled_ae_frames_never_panic(
        raws in proptest::collection::vec(0u64..=u64::MAX, 0..16),
        seed in 0u64..=u64::MAX,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for msg in messages(&raws, &[1, 0, 2]) {
            let frame = encode_frame(NodeId(3), &msg);
            // Truncations.
            for _ in 0..4 {
                let cut = rng.gen_range(0..frame.len());
                prop_assert!(decode_frame::<AeMsg>(&frame[..cut]).is_err());
            }
            // Bit flips: Ok-with-different-content or Err, never a panic.
            for _ in 0..8 {
                let mut mangled = frame.clone();
                let bit = rng.gen_range(0..mangled.len() * 8);
                mangled[bit / 8] ^= 1 << (bit % 8);
                let _ = decode_frame::<AeMsg>(&mangled);
            }
        }
    }
}
