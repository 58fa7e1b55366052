//! The [`Aggregate`] trait and the two aggregates the tree phases carry.
//!
//! An aggregate is described by a mergeable *state*: every node starts with
//! the state of its own value (`lift`), and states are merged pairwise with
//! a commutative and associative `combine`. This is what Convergecast
//! (Algorithms 2 and 3) does on the way up each tree. The other aggregates
//! (Min, Sum, Count, Rank) are written in `gossip_drr::aggregates` as
//! changes of input to the Max and Average chains.

use serde::{Deserialize, Serialize};

/// A distributive/algebraic aggregate function computable by combining
/// partial states.
pub trait Aggregate: Clone {
    /// The mergeable partial state carried by messages.
    type State: Clone + PartialEq + std::fmt::Debug;

    /// The state representing a single node holding `value`.
    fn lift(&self, value: f64) -> Self::State;

    /// Merge two partial states. Must be commutative and associative.
    fn combine(&self, a: &Self::State, b: &Self::State) -> Self::State;
}

/// Maximum of the node values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Max;

impl Aggregate for Max {
    type State = f64;

    fn lift(&self, value: f64) -> f64 {
        value
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a.max(*b)
    }
}

/// The `(sum, count)` pair state of [`Average`]. This is exactly the row
/// vector `(v_i, w_i)` that Convergecast-sum (Algorithm 3) and Gossip-ave
/// (Algorithm 6) carry in their messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AverageState {
    /// Sum of values seen so far.
    pub sum: f64,
    /// Number of values seen so far.
    pub count: f64,
}

/// Average (arithmetic mean) of the node values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Average;

impl Aggregate for Average {
    type State = AverageState;

    fn lift(&self, value: f64) -> AverageState {
        AverageState {
            sum: value,
            count: 1.0,
        }
    }

    fn combine(&self, a: &AverageState, b: &AverageState) -> AverageState {
        AverageState {
            sum: a.sum + b.sum,
            count: a.count + b.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fold `values` through `lift` and `combine`, left to right.
    fn fold<A: Aggregate>(agg: &A, values: &[f64]) -> A::State {
        let mut states = values.iter().map(|&v| agg.lift(v));
        let first = states.next().expect("at least one value");
        states.fold(first, |acc, s| agg.combine(&acc, &s))
    }

    #[test]
    fn max_and_min_basic() {
        let values = [3.0, -1.0, 7.5, 2.0];
        assert_eq!(fold(&Max, &values), 7.5);
        // Min is Max of the negated values, as `drr_gossip_min` runs it.
        let negated: Vec<f64> = values.iter().map(|&v| -v).collect();
        assert_eq!(-fold(&Max, &negated), -1.0);
    }

    #[test]
    fn sum_count_average_basic() {
        let s = fold(&Average, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.sum, s.count), (10.0, 4.0));
        assert_eq!(s.sum / s.count, 2.5);
    }

    #[test]
    fn average_of_single_value_is_that_value() {
        let s = Average.lift(42.0);
        assert_eq!(s.sum / s.count, 42.0);
    }

    fn assert_combine_laws<A: Aggregate>(agg: &A, a: f64, b: f64, c: f64) {
        let (sa, sb, sc) = (agg.lift(a), agg.lift(b), agg.lift(c));
        // commutativity
        assert_eq!(agg.combine(&sa, &sb), agg.combine(&sb, &sa));
        // associativity
        let left = agg.combine(&agg.combine(&sa, &sb), &sc);
        let right = agg.combine(&sa, &agg.combine(&sb, &sc));
        assert_eq!(left, right);
    }

    proptest! {
        #[test]
        fn combine_laws_hold(a in -1e6f64..1e6, b in -1e6f64..1e6, c in -1e6f64..1e6) {
            assert_combine_laws(&Max, a, b, c);
            // Sums of integers this small are exact in f64, so Average's
            // associativity holds bit for bit.
            assert_combine_laws(&Average, a.round(), b.round(), c.round());
        }

        #[test]
        fn sum_and_average_match_reference(values in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
            let reference_sum: f64 = values.iter().sum();
            let reference_avg = reference_sum / values.len() as f64;
            let s = fold(&Average, &values);
            prop_assert!((s.sum - reference_sum).abs() < 1e-6);
            prop_assert!((s.sum / s.count - reference_avg).abs() < 1e-6);
        }

        #[test]
        fn max_exact_matches_iterator_max(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let m = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(fold(&Max, &values), m);
        }
    }
}
