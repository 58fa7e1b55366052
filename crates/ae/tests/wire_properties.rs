//! Property suite for the anti-entropy wire encoding: every generated
//! `AeMsg` — classic legs and Merkle descent legs alike, with stamp runs
//! from all-absent to the full `u64` range — round-trips bit-exactly, the
//! arithmetic size twin (`payload_bytes`) matches the encoder byte for
//! byte, every truncation is an error, and mangled frames never panic the
//! decoder — the node host must survive arbitrary datagrams.

use gossip_ae::protocol::AeMsg;
use gossip_ae::store::Entry;
use gossip_ae::wire::payload_bytes;
use gossip_ae::{StampRun, MAX_RANGE_SLOTS};
use gossip_net::{decode_frame, encode_frame, NodeId, WireMsg, WireReader};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A stamp from raw material: the extremes (0 = absent, 1, `u64::MAX`),
/// arbitrary 64-bit values and, most often, stamps clustered above a
/// shared `base` — the shape real runs have. The codec must carry every
/// one of them losslessly.
fn stamp(z: u64, base: u64) -> u64 {
    match z % 8 {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => z,
        _ => base.saturating_add((z >> 3) % 8_000_000),
    }
}

/// Decode a packed `u64` into one delta pair (values cover negatives and
/// fractions).
fn pair(z: u64, base: u64) -> (NodeId, Entry) {
    (
        NodeId((z % 97) as u32),
        Entry {
            stamp: stamp(z.rotate_left(17), base),
            value: ((z as i64) as f64) / 3.0,
        },
    )
}

/// Decode a packed `u64` into one sparse-digest pair. No honesty
/// constraints (sortedness, range, nonzero stamps) — the codec must carry
/// hostile shapes verbatim; it is the protocol layer that rejects them.
fn digest_pair(z: u64, base: u64) -> (NodeId, u64) {
    (NodeId((z % 131) as u32), stamp(z >> 7, base))
}

/// One message of every variant, built from the generated raw material,
/// plus the degenerate runs: all-absent, single-entry and empty.
fn messages(raws: &[u64], digest_raws: &[u64], base: u64) -> Vec<AeMsg> {
    let delta: Vec<(NodeId, Entry)> = raws.iter().map(|&z| pair(z, base)).collect();
    let digest: Vec<(NodeId, u64)> = digest_raws.iter().map(|&z| digest_pair(z, base)).collect();
    let probes: Vec<(u32, u64)> = digest_raws.iter().map(|&z| ((z % 511) as u32, z)).collect();
    let stamps: Vec<u64> = digest_raws
        .iter()
        .take(MAX_RANGE_SLOTS)
        .map(|&z| stamp(z, base))
        .collect();
    let n = 1 + (raws.first().copied().unwrap_or(7) % (1 << 20)) as u32;
    let start = n / 2;
    let len = (digest_raws.len() % (MAX_RANGE_SLOTS + 1)) as u8;
    // A range ack's entries lie in its range: slot offsets below `len`.
    let in_range: Vec<(NodeId, Entry)> = match len {
        0 => Vec::new(),
        len => delta
            .iter()
            .map(|&(origin, entry)| (NodeId(start + origin.0 % u32::from(len)), entry))
            .collect(),
    };
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
        AeMsg::Delta {
            delta: delta.iter().take(1).copied().collect(),
        },
        AeMsg::MerkleSyn {
            n,
            root: raws.iter().fold(0x5EED, |h, &z| h ^ z),
        },
        AeMsg::MerkleProbe { n, probes },
        AeMsg::RangeSyn {
            n,
            start,
            stamps: stamps.clone(),
        },
        AeMsg::RangeSyn {
            n,
            start,
            stamps: vec![0; stamps.len()],
        },
        AeMsg::RangeSyn {
            n,
            start,
            stamps: stamps.iter().take(1).copied().collect(),
        },
        AeMsg::RangeAck {
            n,
            start,
            len,
            want: digest_raws.iter().fold(0, |w, &z| w ^ z),
            delta: in_range,
        },
    ]
}

proptest! {
    #[test]
    fn every_leg_round_trips_and_sizes_agree(
        raws in proptest::collection::vec(0u64..=u64::MAX, 0..48),
        digest_raws in proptest::collection::vec(0u64..=u64::MAX, 0..72),
        base in 0u64..=u64::MAX,
    ) {
        for msg in messages(&raws, &digest_raws, base) {
            let bytes = msg.to_wire_bytes();
            prop_assert_eq!(bytes.len(), payload_bytes(&msg), "size twin diverged");
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(AeMsg::decode(&mut r).unwrap(), msg);
            prop_assert_eq!(r.remaining(), 0);
            // Every truncation is an error, never a shorter message.
            for cut in 0..bytes.len() {
                prop_assert!(AeMsg::decode(&mut WireReader::new(&bytes[..cut])).is_err());
            }
        }
    }

    #[test]
    fn framed_legs_round_trip(
        raws in proptest::collection::vec(0u64..=u64::MAX, 0..16),
        from in 0u32..1024,
    ) {
        for msg in messages(&raws, &[0, 3, 0, 9], 1 << 40) {
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
        for msg in messages(&raws, &[1, 0, 2, 4], seed) {
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

/// The runs at their edges, one message each: every stamp a run can hold
/// comes back exactly, and the run is as narrow as its range.
#[test]
fn runs_round_trip_at_their_edges() {
    let runs: [&[u64]; 7] = [
        &[0],
        &[0, 0, 0],
        &[1],
        &[u64::MAX],
        &[1, u64::MAX],
        &[0, u64::MAX - 1, u64::MAX, 0],
        &[1 << 40, (1 << 40) + 255, 0, (1 << 40) + 256],
    ];
    let widths = [0, 0, 1, 1, 64, 2, 9];
    for (stamps, width) in runs.into_iter().zip(widths) {
        assert_eq!(StampRun::of_stamps(stamps).width(), width, "{stamps:?}");
        let syn = AeMsg::RangeSyn {
            n: 64,
            start: 0,
            stamps: stamps.to_vec(),
        };
        let delta = AeMsg::Delta {
            delta: stamps
                .iter()
                .enumerate()
                .map(|(i, &stamp)| (NodeId::new(i), Entry { stamp, value: 1.5 }))
                .collect(),
        };
        for msg in [syn, delta] {
            let bytes = msg.to_wire_bytes();
            assert_eq!(bytes.len(), payload_bytes(&msg));
            assert_eq!(AeMsg::decode(&mut WireReader::new(&bytes)), Ok(msg));
        }
    }
}
