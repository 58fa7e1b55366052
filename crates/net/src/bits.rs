//! Helpers for message-size accounting, plus the workspace's shared
//! deterministic bit mixer.
//!
//! The model limits message length to `O(log n + log s)` bits, where `n` is
//! the network size and `s` the range of values (Section 2 of the paper).
//! Protocols construct message sizes from these helpers so that the bound
//! can be asserted in tests and tracked by [`crate::Metrics`].

/// Salt of the backends' setup/churn RNG stream (`seed ^ salt`), from
/// which [`draw_initial_liveness`](crate::draw_initial_liveness) — the one
/// initial-crash draw every backend makes — seeds its stream.
pub(crate) const SETUP_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// `ceil(log2(x))` for `x >= 1`; returns 0 for `x <= 1`.
#[inline]
pub fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

/// Number of bits needed to address one of `n` nodes.
#[inline]
pub fn id_bits(n: usize) -> u32 {
    ceil_log2(n as u64).max(1)
}

/// Number of bits needed to represent a value drawn from a range of size
/// `range` (i.e. `log s` in the paper's notation). A floating-point payload
/// in the simulator is charged this logical width, not its in-memory width.
#[inline]
pub(crate) fn value_bits_for_range(range: f64) -> u32 {
    if !range.is_finite() || range <= 1.0 {
        1
    } else {
        ceil_log2(range.ceil() as u64).max(1)
    }
}

/// The SplitMix64 finalizer: a cheap, high-quality deterministic bit mixer.
///
/// The workspace's canonical tool for RNG-free per-node derived quantities —
/// signal base levels, timer stagger offsets, per-link biases: stable for
/// the whole run, independent of every RNG stream, and well spread. Feed it
/// a node index (optionally pre-multiplied by an odd constant and salted)
/// and use as many of the 64 output bits as needed.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ceil_log2_known_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(ceil_log2(u64::MAX), 64);
    }

    #[test]
    fn id_bits_known_values() {
        assert_eq!(id_bits(1), 1);
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(1000), 10);
        assert_eq!(id_bits(1 << 20), 20);
    }

    #[test]
    fn mix64_spreads_and_is_pure() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let m = mix64(i);
            assert_eq!(m, mix64(i), "pure function");
            seen.insert(m);
        }
        assert_eq!(seen.len(), 10_000, "no collisions on small inputs");
        // Sequential inputs decorrelate: roughly half the bits flip.
        let flips = (mix64(1) ^ mix64(2)).count_ones();
        assert!((16..=48).contains(&flips), "{flips} bits flipped");
    }

    #[test]
    fn value_bits_handles_degenerate_ranges() {
        assert_eq!(value_bits_for_range(0.0), 1);
        assert_eq!(value_bits_for_range(-5.0), 1);
        assert_eq!(value_bits_for_range(f64::NAN), 1);
        assert_eq!(value_bits_for_range(f64::INFINITY), 1);
        assert_eq!(value_bits_for_range(1.0), 1);
        assert_eq!(value_bits_for_range(256.0), 8);
    }

    proptest! {
        #[test]
        fn ceil_log2_is_tight(x in 1u64..=u64::MAX / 2) {
            let b = ceil_log2(x);
            // 2^b >= x
            prop_assert!(b == 64 || (1u128 << b) >= x as u128);
            // 2^(b-1) < x for x > 1
            if x > 1 {
                prop_assert!((1u128 << (b - 1)) < x as u128);
            }
        }

        #[test]
        fn id_bits_monotone(a in 1usize..100_000, b in 1usize..100_000) {
            if a <= b {
                prop_assert!(id_bits(a) <= id_bits(b));
            }
        }
    }
}
