//! Error metrics for gossip estimates.
//!
//! Theorem 7 of the paper bounds the **relative error** of the Gossip-ave
//! estimate at the largest-tree root, and switches to the **absolute error**
//! criterion when the true average is zero. These helpers implement both
//! criteria plus network-wide consensus checks.

/// Relative error `|estimate − truth| / |truth|`. Falls back to the absolute
/// error when `truth == 0` (the convention of Theorem 7's final remark).
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        estimate.abs()
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

/// Fraction of estimates that are exactly equal to the truth (used for the
/// Max/Min consensus checks of Theorems 5 and 6).
pub fn fraction_exact(estimates: &[f64], truth: f64) -> f64 {
    if estimates.is_empty() {
        return 0.0;
    }
    estimates.iter().filter(|&&e| e == truth).count() as f64 / estimates.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basic() {
        assert_eq!(relative_error(11.0, 10.0), 0.1);
        assert_eq!(relative_error(10.0, 10.0), 0.0);
        assert_eq!(relative_error(-9.0, -10.0), 0.1);
    }

    #[test]
    fn relative_error_falls_back_to_absolute_for_zero_truth() {
        assert_eq!(relative_error(0.25, 0.0), 0.25);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
    }

    #[test]
    fn fraction_exact_counts_matches() {
        assert_eq!(fraction_exact(&[5.0, 5.0, 3.0, 5.0], 5.0), 0.75);
        assert_eq!(fraction_exact(&[], 5.0), 0.0);
    }
}
