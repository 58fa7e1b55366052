//! Summary statistics over repeated trials.

use serde::{Deserialize, Serialize};

/// Summary of a sample of measurements (one per trial).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (by nearest rank).
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarise a sample. Returns a zeroed summary for an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p10: 0.0,
                p90: 0.0,
            };
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            samples.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| {
            a.partial_cmp(b)
                .expect("statistics require non-NaN samples")
        });
        let percentile = |q: f64| {
            let idx = ((count as f64 - 1.0) * q).round() as usize;
            sorted[idx]
        };
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile(0.5),
            p10: percentile(0.1),
            p90: percentile(0.9),
        }
    }

    /// Summarise only the finite samples, dropping every NaN/∞ sentinel.
    ///
    /// Experiment metrics use NaN as a deliberate "not measured" marker
    /// (push-sum's stale fraction, a rejoin column with no rejoins, the
    /// synchronous backend's virtual time). [`Summary::of`] must never see
    /// those — its mean would be poisoned and its percentile sort panics —
    /// so every aggregation over cells that may carry the sentinel goes
    /// through here instead. `count` reflects only the retained samples;
    /// a `count` of 0 means *nothing was measured*, which table renderers
    /// must surface as "—" (see `fmt_mean_or_dash`), never as a zero.
    pub fn of_finite<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let finite: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        Summary::of(&finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_and_singleton() {
        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
        let single = Summary::of(&[7.0]);
        assert_eq!(single.count, 1);
        assert_eq!(single.mean, 7.0);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn of_finite_drops_sentinels_without_poisoning() {
        // NaN cells are "not measured" sentinels: the finite samples must
        // summarise as if the sentinels were never there.
        let s = Summary::of_finite([1.0, f64::NAN, 3.0, f64::INFINITY, 5.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        // All-sentinel input is "nothing measured", not zero.
        let empty = Summary::of_finite([f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(empty.count, 0);
        // And Summary::of on the same input would panic in the percentile
        // sort — the reason sentinel-bearing paths must route through here.
        let caught = std::panic::catch_unwind(|| Summary::of(&[1.0, f64::NAN]));
        assert!(caught.is_err(), "Summary::of must reject NaN loudly");
    }

    #[test]
    fn percentiles_are_ordered() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0]);
        assert!(s.p10 <= s.median && s.median <= s.p90);
        assert!(s.min <= s.p10 && s.p90 <= s.max);
    }

    proptest! {
        #[test]
        fn mean_is_within_min_max(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::of(&samples);
            prop_assert!(s.mean >= s.min - 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert!(s.std_dev >= 0.0);
        }

        #[test]
        fn constant_sample_has_zero_spread(x in -1e3f64..1e3, len in 1usize..50) {
            let s = Summary::of(&vec![x; len]);
            prop_assert!((s.mean - x).abs() < 1e-9);
            prop_assert!(s.std_dev.abs() < 1e-9);
            prop_assert_eq!(s.min, s.max);
        }
    }
}
