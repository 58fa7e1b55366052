//! Centralised (exact) reference quantile.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by nearest rank on a sorted
/// copy. Used as ground truth for the gossip quantile search.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN values"));
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rank_and_quantile() {
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert_eq!(quantile(&values, 1.0), 5.0);
        // Nearest rank: 0.3 · 4 = 1.2 rounds to rank 1.
        assert_eq!(quantile(&values, 0.3), 2.0);
    }

    #[test]
    fn quantile_of_empty_is_nan() {
        assert!(quantile(&[], 0.5).is_nan());
    }

    proptest! {
        #[test]
        fn min_le_average_le_max(values in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let (min, max) = (quantile(&values, 0.0), quantile(&values, 1.0));
            let average = values.iter().sum::<f64>() / values.len() as f64;
            prop_assert!(min <= average + 1e-9);
            prop_assert!(average <= max + 1e-9);
        }
    }
}
