//! Rejoin-recovery measurement: how many anti-entropy ticks a rejoiner
//! needs before its estimate is usable again.
//!
//! A rejoiner restarts with an empty store, so its estimate starts as its
//! own value alone and converges as reconciliation pulls state back in.
//! [`RecoveryTracker`] watches a driver at a fixed sampling cadence (one
//! call to [`RecoveryTracker::observe`] per anti-entropy tick) and records,
//! for every rejoin the churn model produced, the tick count until the
//! node's estimate came within a relative threshold of the **reference
//! estimate** — the mean a fully-synced replica holds (the union of all
//! alive stores). Recovery is judged against the reference rather than the
//! moving ground truth because membership detection is not anti-entropy's
//! job: without a failure detector *no* replica can track who is alive, but
//! every replica can and must converge to what the network collectively
//! knows. Ground-truth staleness is reported separately by the E17
//! experiment.

use crate::protocol::AeNode;
use crate::store::Store;
use gossip_net::NodeId;
use gossip_runtime::ShardedDriver;

/// The claimed rejoin-recovery bound, in anti-entropy ticks: the E17
/// acceptance criterion asserts every measurable rejoin re-enters the
/// threshold band within this many ticks, and the experiment counts a
/// rejoin still unresolved after this many observed ticks against the
/// protocol. One constant so the asserted bound and the published
/// "recovered" denominator cannot drift apart. Empirically recovery takes
/// ~2.5 ticks; the headroom absorbs unlucky peer choices and message loss.
pub const RECOVERY_BOUND_TICKS: u64 = 25;

/// What became of one tracked rejoin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The estimate entered the threshold band after this many observed
    /// ticks.
    Recovered {
        /// Ticks from the rejoin to the first in-band sample.
        ticks: u64,
    },
    /// The node crashed again before recovering (unmeasurable).
    CrashedAgain {
        /// Ticks observed before the crash.
        after_ticks: u64,
    },
    /// The run ended first (unmeasurable if short, damning if long).
    Unresolved {
        /// Ticks observed until the end of the run.
        ticks_observed: u64,
    },
}

/// One rejoin and its outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryRecord {
    /// The node that rejoined.
    pub node: NodeId,
    /// The boundary instant of the rejoin (µs).
    pub rejoined_at_us: u64,
    /// How the recovery went.
    pub outcome: RecoveryOutcome,
}

/// The fully-synced reference: the union (CRDT join) of every alive
/// node's store. One `O(n)` slot scan per alive node — `O(n · alive)` per
/// call, which is the inherent cost of an exact union; the tracker only
/// pays it on ticks with a recovery in flight.
pub fn reference_store(driver: &ShardedDriver<AeNode>) -> Store {
    let mut reference = Store::new(driver.n());
    for v in driver.alive_nodes() {
        reference.merge_from(driver.handler(v).store());
    }
    reference
}

/// Watches rejoins across sampling points. See the module docs.
#[derive(Clone, Debug)]
pub struct RecoveryTracker {
    threshold: f64,
    expiry_us: u64,
    /// Rejoins consumed from the driver's log so far.
    seen_rejoins: usize,
    /// In-flight recoveries: `(node, rejoined_at, ticks_observed)`.
    pending: Vec<(NodeId, u64, u64)>,
    records: Vec<RecoveryRecord>,
}

impl RecoveryTracker {
    /// Track recoveries to within `threshold` relative error of the
    /// reference estimate, using `expiry_us` freshness (match the
    /// protocol's [`AeConfig::expiry_us`](crate::AeConfig::expiry_us)).
    pub fn new(threshold: f64, expiry_us: u64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        RecoveryTracker {
            threshold,
            expiry_us,
            seen_rejoins: 0,
            pending: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Take one sample; call at every anti-entropy tick. Consumes new
    /// rejoins from the driver's log, ages the pending ones, and settles
    /// those that recovered or crashed again.
    pub fn observe(&mut self, driver: &ShardedDriver<AeNode>) {
        let now = driver.now_us();
        // Borrowed: `metrics()` would clone the whole log and fold all n
        // node hashes on every tick.
        let log = driver.rejoin_log();
        while self.seen_rejoins < log.len() {
            let (at, node) = log[self.seen_rejoins];
            self.seen_rejoins += 1;
            // A re-rejoin of a node we were tracking: the earlier attempt
            // ended in a crash (settle it), and tracking restarts.
            if let Some(i) = self.pending.iter().position(|&(v, _, _)| v == node) {
                let (_, rejoined_at, ticks) = self.pending.swap_remove(i);
                self.records.push(RecoveryRecord {
                    node,
                    rejoined_at_us: rejoined_at,
                    outcome: RecoveryOutcome::CrashedAgain { after_ticks: ticks },
                });
            }
            self.pending.push((node, at, 0));
        }
        if self.pending.is_empty() {
            return;
        }
        let reference = reference_store(driver).mean_fresh(now, self.expiry_us);
        let mut i = 0;
        while i < self.pending.len() {
            let (node, rejoined_at, ref mut ticks) = self.pending[i];
            if !driver.is_alive(node) {
                let after_ticks = *ticks;
                self.pending.swap_remove(i);
                self.records.push(RecoveryRecord {
                    node,
                    rejoined_at_us: rejoined_at,
                    outcome: RecoveryOutcome::CrashedAgain { after_ticks },
                });
                continue;
            }
            *ticks += 1;
            let recovered = match (driver.handler(node).estimate(now), reference) {
                (Some(est), Some(truth)) if truth != 0.0 => {
                    ((est - truth) / truth).abs() <= self.threshold
                }
                (Some(est), Some(truth)) => (est - truth).abs() <= self.threshold,
                _ => false,
            };
            if recovered {
                let ticks = *ticks;
                self.pending.swap_remove(i);
                self.records.push(RecoveryRecord {
                    node,
                    rejoined_at_us: rejoined_at,
                    outcome: RecoveryOutcome::Recovered { ticks },
                });
                continue;
            }
            i += 1;
        }
    }

    /// End the observation: unresolved rejoins are settled as such, and the
    /// full record list is returned in settlement order.
    pub fn finish(mut self) -> Vec<RecoveryRecord> {
        for (node, rejoined_at, ticks) in self.pending.drain(..) {
            self.records.push(RecoveryRecord {
                node,
                rejoined_at_us: rejoined_at,
                outcome: RecoveryOutcome::Unresolved {
                    ticks_observed: ticks,
                },
            });
        }
        self.records
    }

    /// Records settled so far (recovered or crashed again).
    pub fn records(&self) -> &[RecoveryRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ae_driver, AeConfig};
    use gossip_net::SimConfig;
    use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel};

    #[test]
    fn tracker_settles_every_rejoin_exactly_once() {
        let config = AsyncConfig::new(SimConfig::new(48).with_seed(13).with_loss_prob(0.02))
            .with_latency(LatencyModel::Uniform {
                lo_us: 200,
                hi_us: 1_200,
            })
            .with_churn(ChurnModel::per_round(0.02, 0.25).with_min_alive(24));
        let ae = AeConfig::default();
        let mut driver = ae_driver(config, ae, 1);
        let mut tracker = RecoveryTracker::new(0.01, ae.expiry_us);
        for k in 1..=80 {
            driver.run_until(k * ae.tick_us);
            tracker.observe(&driver);
        }
        let total_rejoins = driver.rejoin_log().len();
        assert!(total_rejoins > 0, "churn produced rejoins");
        let records = tracker.finish();
        assert_eq!(records.len(), total_rejoins, "every rejoin settled once");
        let recovered: Vec<u64> = records
            .iter()
            .filter_map(|r| match r.outcome {
                RecoveryOutcome::Recovered { ticks } => Some(ticks),
                _ => None,
            })
            .collect();
        assert!(!recovered.is_empty(), "some rejoiners had time to recover");
        assert!(
            recovered.iter().all(|&t| t >= 1),
            "recovery takes at least one observed tick"
        );
    }

    #[test]
    fn reference_store_is_the_union_of_alive_stores() {
        let config = AsyncConfig::new(SimConfig::new(16).with_seed(3));
        // Freeze the signal so the state can quiesce: with updates on, the
        // newest stamps are always still in flight somewhere and no store
        // ever exactly equals the union.
        let ae = AeConfig::default().with_update_us(0);
        let mut driver = ae_driver(config, ae, 1);
        driver.run_until(60_000);
        let reference = reference_store(&driver);
        // Fully reconciled network: every alive store equals the union.
        for v in driver.alive_nodes() {
            assert_eq!(driver.handler(v).store(), &reference);
        }
        assert_eq!(reference.known(), 16);
    }
}
