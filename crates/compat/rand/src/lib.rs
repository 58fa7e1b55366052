//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no network access, so the workspace vendors the
//! small slice of the `rand` API it actually uses: [`rngs::SmallRng`]
//! (xoshiro256++ seeded via SplitMix64), [`Rng::gen_range`] over integer and
//! float ranges, [`Rng::gen_bool`], and [`seq::SliceRandom::shuffle`].
//! Everything is deterministic: there is no entropy source, RNGs can only be
//! seeded explicitly.

#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable deterministic RNGs.
pub trait SeedableRng: Sized {
    /// Build an RNG whose entire stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample uniformly from a half-open or inclusive range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} out of range [0,1]");
        next_f64(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Uniform `f64` in `[0, 1)` with 53 bits of precision.
fn next_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges that can be sampled from (the `SampleRange` of real `rand`).
pub trait SampleRange<T> {
    /// Draw one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// Unsigned ranges reduce the word in `u64`: every span but the full range
// of a 64-bit type fits, and there the word itself is the sample, so each
// draw is the value `x as u128 % span` gives without a 128-bit remainder.
macro_rules! uint_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let x = rng.next_u64();
                match ((hi - lo) as u64).checked_add(1) {
                    Some(span) => lo + (x % span) as $t,
                    None => x as $t,
                }
            }
        }
    )*};
}

uint_sample_range!(u8, u16, u32, u64, usize);

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = rng.next_u64() as u128 % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = rng.next_u64() as u128 % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_sample_range!(i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = next_f64(rng) as $t;
                let v = self.start + u * (self.end - self.start);
                // Guard against rounding up to the excluded endpoint.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                lo + (next_f64(rng) as $t) * (hi - lo)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::SmallRng;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_extremes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Huge inclusive spans must not overflow.
        let _ = rng.gen_range(1u64..=u64::MAX / 2);
    }

    /// An `RngCore` whose every word is the one it was built with.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Every unsigned range draws what the 128-bit formula it replaced,
    /// `lo + (x as u128 % span)`, draws from the same word `x`: spans 1, 2,
    /// 1001, 2^32 ± 1, 2^63, `u64::MAX` and the full `0..=MAX` of each
    /// type, at the bottom, middle and top of the type's range.
    macro_rules! check_uint_against_u128 {
        ($($t:ty),*) => {$({
            let max = <$t>::MAX as u128;
            let mut words = vec![0, 1, 1000, (1 << 32) - 1, 1 << 32, 1 << 63, u64::MAX - 1, u64::MAX];
            let mut rng = SmallRng::seed_from_u64(11);
            words.extend((0..64).map(|_| rng.next_u64()));
            let spans = [
                1u128, 2, 1001, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 63,
                u64::MAX as u128, max, max + 1,
            ];
            for span in spans.into_iter().filter(|&span| span <= max + 1) {
                for lo in [0, 1, (max + 1 - span) / 2, max + 1 - span] {
                    if lo + span > max + 1 {
                        continue;
                    }
                    let hi = lo + span - 1;
                    for &x in &words {
                        let old = (lo + x as u128 % span) as $t;
                        assert_eq!(Word(x).gen_range(lo as $t..=hi as $t), old);
                        if hi < max {
                            assert_eq!(Word(x).gen_range(lo as $t..(hi + 1) as $t), old);
                        }
                    }
                }
            }
        })*};
    }

    #[test]
    fn unsigned_ranges_draw_the_128_bit_formula() {
        check_uint_against_u128!(u8, u16, u32, u64, usize);
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
