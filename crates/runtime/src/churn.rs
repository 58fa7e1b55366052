//! Ongoing node churn: mid-run crashes and rejoins.

use serde::{Deserialize, Serialize};

/// Per-round churn probabilities.
///
/// At every round boundary the engine draws, for each alive node, a crash
/// with probability [`ChurnModel::crash_prob`]; the crash instant is placed
/// uniformly *inside* the next round window and ordered against message
/// deliveries by the event queue. Dead nodes (initial crashes and churned
/// nodes alike) rejoin with probability [`ChurnModel::rejoin_prob`], taking
/// effect at the boundary itself. A disabled model (`ChurnModel::none`)
/// draws **no** randomness, keeping the RNG stream aligned with the
/// synchronous `Network`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Per-node, per-round crash probability.
    pub crash_prob: f64,
    /// Per-dead-node, per-round rejoin probability.
    pub rejoin_prob: f64,
    /// Never let churn push the alive population below this floor
    /// (protocols need at least one subject; sweeps typically keep a
    /// quorum).
    pub min_alive: usize,
}

impl ChurnModel {
    /// No churn at all.
    pub fn none() -> Self {
        ChurnModel {
            crash_prob: 0.0,
            rejoin_prob: 0.0,
            min_alive: 1,
        }
    }

    /// Crash/rejoin with the given per-round probabilities.
    ///
    /// # Panics
    /// Panics if either probability is outside `[0, 1)`.
    pub fn per_round(crash_prob: f64, rejoin_prob: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&crash_prob),
            "crash probability must lie in [0, 1), got {crash_prob}"
        );
        assert!(
            (0.0..1.0).contains(&rejoin_prob),
            "rejoin probability must lie in [0, 1), got {rejoin_prob}"
        );
        ChurnModel {
            crash_prob,
            rejoin_prob,
            min_alive: 1,
        }
    }

    /// Set the alive-population floor.
    pub fn with_min_alive(mut self, min_alive: usize) -> Self {
        self.min_alive = min_alive.max(1);
        self
    }

    /// Whether this model ever draws randomness.
    pub(crate) fn is_enabled(&self) -> bool {
        self.crash_prob > 0.0 || self.rejoin_prob > 0.0
    }
}

impl Default for ChurnModel {
    fn default() -> Self {
        ChurnModel::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_disabled() {
        assert!(!ChurnModel::none().is_enabled());
        assert!(ChurnModel::per_round(0.01, 0.0).is_enabled());
        assert!(ChurnModel::per_round(0.0, 0.1).is_enabled());
    }

    #[test]
    #[should_panic(expected = "crash probability")]
    fn rejects_bad_crash_prob() {
        let _ = ChurnModel::per_round(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "rejoin probability")]
    fn rejects_bad_rejoin_prob() {
        let _ = ChurnModel::per_round(0.0, -0.5);
    }

    #[test]
    fn min_alive_floor_is_at_least_one() {
        assert_eq!(ChurnModel::none().with_min_alive(0).min_alive, 1);
        assert_eq!(ChurnModel::none().with_min_alive(16).min_alive, 16);
    }
}
