//! Per-link message latency models.

use gossip_net::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Distribution of one-way message latency, in virtual microseconds.
///
/// Latency is sampled per message; an optional deterministic per-link bias
/// (see `LatencyModel::link_bias`) makes some `(from, to)` pairs
/// persistently slower, which is what produces realistic tail behaviour in
/// the `latency_tail` experiment.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly this long. Consumes **no** randomness,
    /// which keeps the engine's RNG stream aligned with the synchronous
    /// `Network` (the bit-compatibility mode of the determinism suite).
    Constant(u64),
    /// Uniform in `[lo_us, hi_us]`.
    Uniform {
        /// Minimum latency (µs).
        lo_us: u64,
        /// Maximum latency (µs).
        hi_us: u64,
    },
    /// Log-normal with the given median; `sigma` is the standard deviation
    /// of the underlying normal (heavier tail as it grows).
    LogNormal {
        /// Median latency (µs): `exp(mu)`.
        median_us: f64,
        /// Tail parameter (σ of `ln X`).
        sigma: f64,
    },
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant(1_000)
    }
}

impl LatencyModel {
    /// Deterministic per-link multiplier in `[1 − spread, 1 + spread]`,
    /// derived from the pair of endpoints (stable across the whole run).
    pub(crate) fn link_bias(seed: u64, from: NodeId, to: NodeId, spread: f64) -> f64 {
        if spread <= 0.0 {
            return 1.0;
        }
        // The shared mixer over a commutativity-breaking combination of the
        // ids (same finalizer as before the mix64 extraction, so biases are
        // unchanged).
        let z = gossip_net::mix64(
            seed ^ (from.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (to.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        1.0 - spread + 2.0 * spread * unit
    }

    /// Sample one message latency, floored at 1 µs — no message arrives at
    /// the instant it was sent, which is also the contract
    /// `LatencyModel::min_us` (and with it the sharded engine's
    /// cross-shard lookahead) relies on. [`LatencyModel::Constant`] draws
    /// nothing from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match *self {
            LatencyModel::Constant(us) => us.max(1),
            LatencyModel::Uniform { lo_us, hi_us } => {
                assert!(lo_us <= hi_us, "uniform latency needs lo <= hi");
                rng.gen_range(lo_us..=hi_us).max(1)
            }
            LatencyModel::LogNormal { median_us, sigma } => {
                assert!(
                    median_us > 0.0 && sigma >= 0.0,
                    "log-normal latency needs positive median and sigma >= 0"
                );
                let z = rand_distr::Normal::standard_sample(rng);
                let x = median_us * (sigma * z).exp();
                x.round().max(1.0) as u64
            }
        }
    }

    /// A hard lower bound on any sampled latency (µs), before the per-link
    /// bias. Every model floors its samples at 1 µs; the sharded engine
    /// derives its bounded-lag epoch (the cross-shard lookahead) from this:
    /// a message sent at `t` can never arrive before `t + min_us`, so
    /// shards may safely run `min_us` of virtual time apart.
    pub(crate) fn min_us(&self) -> u64 {
        match *self {
            LatencyModel::Constant(us) => us.max(1),
            LatencyModel::Uniform { lo_us, .. } => lo_us.max(1),
            // Log-normal support reaches (after rounding) all the way down
            // to the 1 µs floor.
            LatencyModel::LogNormal { .. } => 1,
        }
    }

    /// The median of the distribution (µs) — the scale rounds are sized by.
    pub fn median_us(&self) -> u64 {
        match *self {
            LatencyModel::Constant(us) => us,
            LatencyModel::Uniform { lo_us, hi_us } => lo_us + (hi_us - lo_us) / 2,
            LatencyModel::LogNormal { median_us, .. } => median_us.round().max(1.0) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_never_touches_rng() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let model = LatencyModel::Constant(250);
        for _ in 0..10 {
            assert_eq!(model.sample(&mut a), 250);
        }
        // a is untouched: same next value as the fresh clone b.
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn samples_are_floored_at_one_microsecond() {
        // min_us() promises a 1 µs floor and the sharded engine's bounded-
        // lag epoch depends on it: a 0 µs sample would let a message arrive
        // at its own send instant, in a slot the calendar queue has already
        // detached.
        let mut rng = SmallRng::seed_from_u64(9);
        assert_eq!(LatencyModel::Constant(0).sample(&mut rng), 1);
        assert_eq!(LatencyModel::Constant(0).min_us(), 1);
        let zeroish = LatencyModel::Uniform { lo_us: 0, hi_us: 1 };
        for _ in 0..100 {
            assert!(zeroish.sample(&mut rng) >= 1);
        }
        assert_eq!(zeroish.min_us(), 1);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        let model = LatencyModel::Uniform {
            lo_us: 100,
            hi_us: 300,
        };
        for _ in 0..5000 {
            let l = model.sample(&mut rng);
            assert!((100..=300).contains(&l));
        }
        assert_eq!(model.median_us(), 200);
    }

    #[test]
    fn log_normal_median_is_roughly_right_and_tail_is_heavy() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = LatencyModel::LogNormal {
            median_us: 1000.0,
            sigma: 1.0,
        };
        let mut samples: Vec<u64> = (0..20_000).map(|_| model.sample(&mut rng)).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        assert!((800..=1250).contains(&median), "median {median}");
        let p99 = samples[(samples.len() * 99) / 100];
        assert!(p99 > 5 * median, "p99 {p99} vs median {median}");
    }

    #[test]
    fn link_bias_is_stable_and_bounded() {
        let a = NodeId::new(3);
        let b = NodeId::new(7);
        let bias = LatencyModel::link_bias(42, a, b, 0.5);
        assert_eq!(bias, LatencyModel::link_bias(42, a, b, 0.5));
        assert!((0.5..=1.5).contains(&bias));
        assert_ne!(
            bias,
            LatencyModel::link_bias(42, b, a, 0.5),
            "direction matters"
        );
        assert_eq!(LatencyModel::link_bias(42, a, b, 0.0), 1.0);
    }
}
