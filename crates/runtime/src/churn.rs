//! Ongoing node churn: mid-run crashes and rejoins, and the one draw
//! both faces of the simulator make at their window barriers.

use crate::metrics::AsyncMetrics;
use crate::soa::{NodeTable, NO_CRASH};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-round churn probabilities.
///
/// At every window boundary each alive node with no crash pending draws a
/// crash with probability [`ChurnModel::crash_prob`] (while the alive
/// population stays above [`ChurnModel::min_alive`]), at an instant
/// uniform *inside* the next window. The event-driven
/// [`ShardedDriver`](crate::ShardedDriver) queues that crash as an event,
/// ordered against message deliveries by its calendar queue; the
/// round-barrier [`ShardedTransport`](crate::ShardedTransport) records the
/// instant, drops at send time every delivery that would arrive after it,
/// and applies the crash at the next barrier. Dead nodes (initial crashes
/// and churned nodes alike) rejoin with probability
/// [`ChurnModel::rejoin_prob`], taking effect at the boundary itself. A
/// disabled model (`ChurnModel::none`) draws **no** randomness, keeping
/// the RNG stream aligned with the synchronous `Network`.
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

/// What a barrier's churn draw did to one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Churn {
    /// It crashes at this instant, inside the window.
    Crash(u64),
    /// It is alive again from the boundary on.
    Rejoin,
}

/// One barrier's churn draw, shared by both faces: each hands it its
/// tables in node-id order, takes the nodes that churned from
/// [`ChurnDraw::next`], and says what a crash or a rejoin does for it.
pub(crate) struct ChurnDraw<'a> {
    model: ChurnModel,
    rng: &'a mut SmallRng,
    metrics: &'a mut AsyncMetrics,
    /// Crash instants fall in `(start, start + len]`.
    window: (u64, u64),
    /// Nodes alive with no crash pending, in every table: what the
    /// `min_alive` floor holds.
    survivors: usize,
    /// The current table's next node.
    cursor: usize,
}

impl<'a> ChurnDraw<'a> {
    /// The draw for `window` over the population of `tables`, counting
    /// rejoins into `metrics`.
    pub(crate) fn new<'t>(
        model: ChurnModel,
        rng: &'a mut SmallRng,
        metrics: &'a mut AsyncMetrics,
        window: (u64, u64),
        tables: impl IntoIterator<Item = &'t NodeTable>,
    ) -> Self {
        ChurnDraw {
            model,
            rng,
            metrics,
            window,
            survivors: tables
                .into_iter()
                .map(|t| t.alive_count - t.pending_crashes)
                .sum(),
            cursor: 0,
        }
    }

    /// Draw `table`'s nodes in index order up to the next one that churns,
    /// apply its verdict to the table and return it; `None` once the table
    /// is done. An alive node above the floor with no crash pending flips
    /// a crash coin and, on heads, draws a uniform instant in the window; a
    /// dead node flips a rejoin coin. A node whose crash is still pending
    /// flips nothing and counts as lost against the floor. A disabled model
    /// draws nothing, and skips the walk.
    #[inline]
    pub(crate) fn next(&mut self, table: &mut NodeTable) -> Option<(usize, Churn)> {
        let model = self.model;
        while model.is_enabled() && self.cursor < table.alive.len() {
            let i = self.cursor;
            self.cursor += 1;
            if table.alive[i] {
                if self.survivors > model.min_alive
                    && model.crash_prob > 0.0
                    && table.crash_at[i] == NO_CRASH
                    && self.rng.gen_bool(model.crash_prob)
                {
                    let (start, len) = self.window;
                    let at_us = start + 1 + self.rng.gen_range(0..len.max(1));
                    table.crash_at[i] = at_us;
                    table.pending_crashes += 1;
                    self.survivors -= 1;
                    return Some((i, Churn::Crash(at_us)));
                }
            } else if model.rejoin_prob > 0.0 && self.rng.gen_bool(model.rejoin_prob) {
                table.alive[i] = true;
                table.alive_count += 1;
                self.metrics.churn_rejoins += 1;
                self.survivors += 1;
                return Some((i, Churn::Rejoin));
            }
        }
        self.cursor = 0;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AsyncConfig;
    use gossip_net::SimConfig;
    use rand::SeedableRng;

    #[test]
    fn a_pending_crash_flips_no_coin_and_counts_against_the_floor() {
        let model = ChurnModel::per_round(0.9, 0.5).with_min_alive(1);
        let config = AsyncConfig::new(SimConfig::new(4)).with_churn(model);
        // Node 0's crash, drawn a window ago, lands on this boundary and
        // is still pending when the barrier draws.
        let mut table = NodeTable::new(vec![true, true, true, false], &config);
        table.crash_at[0] = 10;
        table.pending_crashes = 1;

        let seed = (0..)
            .find(|&s| SmallRng::seed_from_u64(s).gen_bool(0.9))
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut metrics = AsyncMetrics::default();
        let mut draw = ChurnDraw::new(model, &mut rng, &mut metrics, (10, 4), [&table]);
        let churned: Vec<_> = std::iter::from_fn(|| draw.next(&mut table)).collect();

        // Two survivors: three alive, one of them doomed. Node 0 flips
        // nothing, so the stream's first coin is node 1's: it crashes,
        // which leaves one survivor — the floor — so node 2 flips nothing
        // either, and the next coin is node 3's rejoin.
        let mut replay = SmallRng::seed_from_u64(seed);
        assert!(replay.gen_bool(0.9));
        let crash = Churn::Crash(11 + replay.gen_range(0..4u64));
        let rejoin = replay.gen_bool(0.5);
        let mut expected = vec![(1, crash)];
        expected.extend(rejoin.then_some((3, Churn::Rejoin)));
        assert_eq!(churned, expected);
        assert_eq!(rng, replay, "no other draw");
        assert_eq!(table.crash_at[0], 10, "the pending crash stands");
        assert_eq!(table.pending_crashes, 2);
        assert_eq!(table.alive_count, 3 + usize::from(rejoin));
    }

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
