//! The composite DRR-gossip protocols (Algorithms 7 and 8).
//!
//! * [`drr_gossip_max`] — Algorithm 7: DRR → Convergecast-max → root-address
//!   broadcast → Gossip-max → final broadcast of the maximum to all tree
//!   members.
//! * [`drr_gossip_ave`] — Algorithm 8: DRR → Convergecast-sum → root-address
//!   broadcast → Gossip-max *on tree sizes* (so every root learns whether it
//!   owns the largest tree) → Gossip-ave → Data-spread of the largest-tree
//!   root's estimate → final broadcast to all tree members.
//!
//! Both take `O(log n)` rounds; the message complexity is dominated by the
//! DRR phase, `O(n log log n)` (Section 3.5).

use crate::broadcast::broadcast_down;
use crate::convergecast::{convergecast_max, convergecast_sum, ReceptionModel};
use crate::data_spread::data_spread_multi;
use crate::drr::{run_drr, DrrConfig};
use crate::forest::ForestStats;
use crate::gossip_ave::{gossip_ave, GossipAveConfig};
use crate::gossip_max::{gossip_max, GossipMaxConfig};
use gossip_aggregate::relative_error;
use gossip_net::{Metrics, NodeId, Phase, Transport};
use serde::{Deserialize, Serialize};

/// Configuration of the full DRR-gossip protocols.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DrrGossipConfig {
    /// Phase I parameters.
    pub drr: DrrConfig,
    /// Phase III (Gossip-max / Data-spread) parameters.
    pub gossip_max: GossipMaxConfig,
    /// Phase III (Gossip-ave) parameters.
    pub gossip_ave: GossipAveConfig,
    /// Reception model for the tree phases (the clique phone-call model uses
    /// one call per round; the sparse message-passing model allows all
    /// neighbours at once).
    pub reception: ReceptionModel,
}

impl DrrGossipConfig {
    /// The paper's parameter choices on the complete-graph model.
    pub fn paper() -> Self {
        DrrGossipConfig {
            drr: DrrConfig::paper(),
            gossip_max: GossipMaxConfig::default(),
            gossip_ave: GossipAveConfig::default(),
            reception: ReceptionModel::OneCallPerRound,
        }
    }
}

/// Rounds and messages consumed by one named phase of a protocol run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Phase name ("drr", "convergecast", ...).
    pub name: &'static str,
    /// Rounds used by the phase.
    pub rounds: u64,
    /// Messages sent during the phase.
    pub messages: u64,
}

/// Why a node does — or does not — hold an estimate at the end of a
/// one-shot run. Distinguishes the two very different kinds of "no data":
/// a crashed node (expected: it is gone) and a **stale** node (alive at the
/// end, typically churned away mid-run and rejoined, so the one-shot
/// protocol never reached it — the gap the anti-entropy layer exists to
/// close). Experiment tables report these explicitly instead of burying
/// both as NaN.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeStatus {
    /// Alive with a finite estimate.
    Informed,
    /// Alive but holding no estimate (rejoiner / unreached node).
    Stale,
    /// Dead at the end of the run.
    Crashed,
}

impl NodeStatus {
    /// Classify one node from its liveness and estimate.
    pub fn of(alive: bool, estimate: f64) -> Self {
        match (alive, estimate.is_finite()) {
            (false, _) => NodeStatus::Crashed,
            (true, true) => NodeStatus::Informed,
            (true, false) => NodeStatus::Stale,
        }
    }
}

/// The result of a full DRR-gossip run.
#[derive(Clone, Debug)]
pub struct DrrGossipReport {
    /// Per-node estimate of the aggregate (NaN at crashed nodes).
    pub estimates: Vec<f64>,
    /// Per-node classification of that estimate (see [`NodeStatus`]).
    pub statuses: Vec<NodeStatus>,
    /// The exact aggregate over the alive nodes' values.
    pub exact: f64,
    /// Which nodes participated (were alive).
    pub alive: Vec<bool>,
    /// Shape statistics of the DRR forest.
    pub forest_stats: ForestStats,
    /// Per-phase cost breakdown.
    pub phases: Vec<PhaseCost>,
    /// Total rounds.
    pub total_rounds: u64,
    /// Total messages.
    pub total_messages: u64,
    /// Full metrics (per-phase message/bit/drop counters, round trace).
    pub metrics: Metrics,
}

impl DrrGossipReport {
    /// Largest relative error of any alive node's estimate.
    pub fn max_relative_error(&self) -> f64 {
        self.estimates
            .iter()
            .zip(&self.alive)
            .filter(|(_, &alive)| alive)
            .map(|(&e, _)| relative_error(e, self.exact))
            .fold(0.0, f64::max)
    }

    /// Fraction of alive nodes whose estimate equals the exact aggregate.
    pub fn fraction_exact(&self) -> f64 {
        let alive: Vec<f64> = self
            .estimates
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(&e, _)| e)
            .collect();
        gossip_aggregate::fraction_exact(&alive, self.exact)
    }

    /// The cost recorded for a named phase, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseCost> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Fraction of the final **alive** population that is [`NodeStatus::Stale`]
    /// — alive but left without an estimate by the one-shot run (0 when
    /// nobody is alive).
    pub fn fraction_stale(&self) -> f64 {
        let alive = self.statuses.iter().filter(|s| **s != NodeStatus::Crashed);
        let (stale, total) = alive.fold((0usize, 0usize), |(stale, total), s| {
            (stale + usize::from(*s == NodeStatus::Stale), total + 1)
        });
        if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
        }
    }
}

/// Classify every node of a finished run (see [`NodeStatus`]).
pub(crate) fn statuses_of(estimates: &[f64], alive: &[bool]) -> Vec<NodeStatus> {
    estimates
        .iter()
        .zip(alive)
        .map(|(&e, &a)| NodeStatus::of(a, e))
        .collect()
}

struct PhaseTracker {
    rounds: u64,
    messages: u64,
    phases: Vec<PhaseCost>,
}

impl PhaseTracker {
    fn new<T: Transport>(net: &T) -> Self {
        PhaseTracker {
            rounds: net.round(),
            messages: net.metrics().total_messages(),
            phases: Vec::new(),
        }
    }

    fn record<T: Transport>(&mut self, net: &T, name: &'static str) {
        let rounds = net.round();
        let messages = net.metrics().total_messages();
        self.phases.push(PhaseCost {
            name,
            rounds: rounds - self.rounds,
            messages: messages - self.messages,
        });
        self.rounds = rounds;
        self.messages = messages;
    }
}

fn broadcast_payload_bits<T: Transport>(net: &T) -> u32 {
    net.config().id_bits() + net.config().value_bits()
}

/// Algorithm 7: compute the global maximum at every node.
pub fn drr_gossip_max<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &DrrGossipConfig,
) -> DrrGossipReport {
    assert_eq!(values.len(), net.n(), "one value per node required");
    let start_rounds = net.round();
    let start_messages = net.metrics().total_messages();
    let mut tracker = PhaseTracker::new(net);

    // Phase I: DRR.
    let drr = run_drr(net, &config.drr);
    tracker.record(net, "drr");

    // Phase II: convergecast of the maximum, then the root-address broadcast.
    let cc = convergecast_max(net, &drr.forest, values, config.reception);
    tracker.record(net, "convergecast");
    let _ = broadcast_down(
        net,
        &drr.forest,
        config.reception,
        Phase::Broadcast,
        net.config().id_bits(),
    );
    tracker.record(net, "broadcast-root");

    // Phase III: Gossip-max among the roots.
    let gossip = gossip_max(net, &drr.forest, &cc.state, &config.gossip_max);
    tracker.record(net, "gossip-max");

    // Final dissemination of the maximum to every tree member.
    let _ = broadcast_down(
        net,
        &drr.forest,
        config.reception,
        Phase::Dissemination,
        broadcast_payload_bits(net),
    );
    tracker.record(net, "disseminate");

    let alive: Vec<bool> = net.nodes().map(|v| net.is_alive(v)).collect();
    let exact = net
        .alive_nodes()
        .map(|v| values[v.index()])
        .fold(f64::NEG_INFINITY, f64::max);
    let estimates: Vec<f64> = net
        .nodes()
        .map(|v| {
            if net.is_alive(v) {
                gossip.value_at(drr.forest.root_of(v)).unwrap_or(f64::NAN)
            } else {
                f64::NAN
            }
        })
        .collect();

    DrrGossipReport {
        statuses: statuses_of(&estimates, &alive),
        estimates,
        exact,
        alive,
        forest_stats: drr.forest.stats(),
        phases: tracker.phases,
        total_rounds: net.round() - start_rounds,
        total_messages: net.metrics().total_messages() - start_messages,
        metrics: net.metrics().clone(),
    }
}

/// Algorithm 8: compute the global average at every node.
pub fn drr_gossip_ave<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &DrrGossipConfig,
) -> DrrGossipReport {
    assert_eq!(values.len(), net.n(), "one value per node required");
    let start_rounds = net.round();
    let start_messages = net.metrics().total_messages();
    let mut tracker = PhaseTracker::new(net);

    // Phase I: DRR.
    let drr = run_drr(net, &config.drr);
    tracker.record(net, "drr");

    // Phase II: convergecast of (local sum, tree size), then root-address broadcast.
    let cc = convergecast_sum(net, &drr.forest, values, config.reception);
    tracker.record(net, "convergecast");
    let _ = broadcast_down(
        net,
        &drr.forest,
        config.reception,
        Phase::Broadcast,
        net.config().id_bits(),
    );
    tracker.record(net, "broadcast-root");

    // Phase III(a): Gossip-max on tree sizes so each root learns the largest
    // tree size and can tell whether it is the largest-tree root.
    let sizes: Vec<Option<f64>> = cc
        .state
        .iter()
        .map(|s| s.as_ref().map(|s| s.count))
        .collect();
    let size_election = gossip_max(net, &drr.forest, &sizes, &config.gossip_max);
    tracker.record(net, "size-election");

    // Phase III(b): Gossip-ave (push-sum among roots).
    let ave = gossip_ave(net, &drr.forest, &cc.state, &config.gossip_ave);
    tracker.record(net, "gossip-ave");

    // Phase III(c): the root(s) that recognise themselves as largest spread
    // the estimate of the (canonical) largest-tree root.
    let max_size = size_election.true_max;
    let spreaders: Vec<NodeId> = drr
        .forest
        .roots()
        .iter()
        .copied()
        .filter(|&r| {
            net.is_alive(r)
                && size_election.value_at(r) == Some(max_size)
                && drr.forest.tree_size(r) as f64 == max_size
        })
        .collect();
    let spread_value = ave.largest_root_estimate;
    let spreaders = if spreaders.is_empty() {
        vec![ave.largest_root]
    } else {
        spreaders
    };
    let spread = data_spread_multi(
        net,
        &drr.forest,
        &spreaders,
        spread_value,
        &config.gossip_max,
    );
    tracker.record(net, "data-spread");

    // Final dissemination of the average to every tree member.
    let _ = broadcast_down(
        net,
        &drr.forest,
        config.reception,
        Phase::Dissemination,
        broadcast_payload_bits(net),
    );
    tracker.record(net, "disseminate");

    let alive: Vec<bool> = net.nodes().map(|v| net.is_alive(v)).collect();
    let alive_values: Vec<f64> = net.alive_nodes().map(|v| values[v.index()]).collect();
    let exact = if alive_values.is_empty() {
        0.0
    } else {
        alive_values.iter().sum::<f64>() / alive_values.len() as f64
    };
    let estimates: Vec<f64> = net
        .nodes()
        .map(|v| {
            if net.is_alive(v) {
                let root = drr.forest.root_of(v);
                match spread.value_at(root) {
                    Some(x) if x.is_finite() => x,
                    // A root the spread missed falls back to its own estimate.
                    _ => ave.estimates[root.index()].unwrap_or(f64::NAN),
                }
            } else {
                f64::NAN
            }
        })
        .collect();

    DrrGossipReport {
        statuses: statuses_of(&estimates, &alive),
        estimates,
        exact,
        alive,
        forest_stats: drr.forest.stats(),
        phases: tracker.phases,
        total_rounds: net.round() - start_rounds,
        total_messages: net.metrics().total_messages() - start_messages,
        metrics: net.metrics().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{Network, SimConfig};

    fn uniform_values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % 1009) as f64).collect()
    }

    #[test]
    fn gossip_max_reaches_every_node_exactly() {
        let n = 4000;
        let mut net = Network::new(SimConfig::new(n).with_seed(3));
        let values = uniform_values(n);
        let report = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
        assert_eq!(report.fraction_exact(), 1.0);
        assert_eq!(report.exact, 1008.0);
    }

    #[test]
    fn gossip_ave_is_accurate_everywhere() {
        let n = 4000;
        let mut net = Network::new(SimConfig::new(n).with_seed(5));
        let values = uniform_values(n);
        let report = drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper());
        assert!(
            report.max_relative_error() < 1e-2,
            "max relative error = {}",
            report.max_relative_error()
        );
    }

    #[test]
    fn total_rounds_are_logarithmic() {
        let n = 1 << 13;
        let mut net = Network::new(SimConfig::new(n).with_seed(7));
        let values = uniform_values(n);
        let report = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
        let log_n = (n as f64).log2();
        assert!(
            (report.total_rounds as f64) < 40.0 * log_n,
            "rounds = {}",
            report.total_rounds
        );
    }

    #[test]
    fn message_complexity_dominated_by_drr_phase(/* Section 3.5 */) {
        // Asymptotically Phase I is Θ(n log log n) while every other phase is
        // Θ(n); with concrete constants at a single n we check (a) DRR beats
        // each of the O(n) tree phases outright and (b) the whole-protocol
        // total stays within a constant multiple of the DRR cost.
        let n = 1 << 13;
        let mut net = Network::new(SimConfig::new(n).with_seed(9));
        let values = uniform_values(n);
        let report = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
        let drr_messages = report.phase("drr").unwrap().messages;
        for name in ["convergecast", "broadcast-root", "disseminate"] {
            let phase = report.phase(name).unwrap();
            assert!(
                phase.messages <= drr_messages,
                "phase {} used {} messages, more than DRR's {}",
                phase.name,
                phase.messages,
                drr_messages
            );
        }
        assert!(
            report.total_messages < 4 * drr_messages,
            "total {} vs drr {}",
            report.total_messages,
            drr_messages
        );
    }

    #[test]
    fn message_complexity_scale_n_log_log_n() {
        let n = 1 << 14;
        let mut net = Network::new(SimConfig::new(n).with_seed(11));
        let values = uniform_values(n);
        let report = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
        let n_f = n as f64;
        let bound = 12.0 * n_f * n_f.log2().log2();
        assert!(
            (report.total_messages as f64) < bound,
            "messages = {} exceeds {bound}",
            report.total_messages
        );
    }

    #[test]
    fn survives_crashes_and_loss() {
        let n = 3000;
        let mut net = Network::new(
            SimConfig::new(n)
                .with_seed(13)
                .with_loss_prob(0.08)
                .with_initial_crash_prob(0.1),
        );
        let values = uniform_values(n);
        let report = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
        assert!(
            report.fraction_exact() > 0.98,
            "fraction exact = {}",
            report.fraction_exact()
        );
        let mut net = Network::new(
            SimConfig::new(n)
                .with_seed(13)
                .with_loss_prob(0.08)
                .with_initial_crash_prob(0.1),
        );
        let report = drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper());
        assert!(
            report.max_relative_error() < 0.1,
            "max relative error = {}",
            report.max_relative_error()
        );
    }

    #[test]
    fn report_phase_lookup_and_totals_consistent() {
        let n = 1000;
        let mut net = Network::new(SimConfig::new(n).with_seed(15));
        let values = uniform_values(n);
        let report = drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper());
        let phase_sum: u64 = report.phases.iter().map(|p| p.messages).sum();
        assert_eq!(phase_sum, report.total_messages);
        let round_sum: u64 = report.phases.iter().map(|p| p.rounds).sum();
        assert_eq!(round_sum, report.total_rounds);
        assert!(report.phase("drr").is_some());
        assert!(report.phase("gossip-ave").is_some());
        assert!(report.phase("nonexistent").is_none());
    }

    #[test]
    fn estimates_marked_nan_for_crashed_nodes() {
        let n = 800;
        let mut net = Network::new(SimConfig::new(n).with_seed(17).with_initial_crash_prob(0.3));
        let values = uniform_values(n);
        let report = drr_gossip_max(&mut net, &values, &DrrGossipConfig::paper());
        for v in net.nodes() {
            if !net.is_alive(v) {
                assert!(report.estimates[v.index()].is_nan());
                assert_eq!(report.statuses[v.index()], NodeStatus::Crashed);
            } else {
                assert!(report.estimates[v.index()].is_finite());
                assert_eq!(report.statuses[v.index()], NodeStatus::Informed);
            }
        }
        // No churn mid-run on the synchronous backend → nobody is stale.
        assert_eq!(report.fraction_stale(), 0.0);
    }

    #[test]
    fn statuses_separate_stale_rejoiners_from_crashes() {
        // Unit-level: the classification itself.
        assert_eq!(NodeStatus::of(false, f64::NAN), NodeStatus::Crashed);
        assert_eq!(NodeStatus::of(false, 3.0), NodeStatus::Crashed);
        assert_eq!(NodeStatus::of(true, 3.0), NodeStatus::Informed);
        assert_eq!(NodeStatus::of(true, f64::NAN), NodeStatus::Stale);

        // End-to-end: under ongoing churn, rejoiners finish alive but
        // uninformed — the report must say `Stale`, not bury them as NaN.
        use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedTransport};
        let n = 1500;
        let values = uniform_values(n);
        let config = AsyncConfig::new(SimConfig::new(n).with_seed(23).with_loss_prob(0.05))
            .with_latency(LatencyModel::LogNormal {
                median_us: 1_000.0,
                sigma: 0.7,
            })
            .with_churn(ChurnModel::per_round(0.01, 0.15).with_min_alive(n / 2));
        let mut engine = ShardedTransport::new(config, 2);
        let report = drr_gossip_max(&mut engine, &values, &DrrGossipConfig::paper());
        let stale = report
            .statuses
            .iter()
            .filter(|&&s| s == NodeStatus::Stale)
            .count();
        assert!(stale > 0, "churn strands some rejoiners without estimates");
        assert!(report.fraction_stale() > 0.0);
        for (i, &status) in report.statuses.iter().enumerate() {
            assert_eq!(
                status,
                NodeStatus::of(report.alive[i], report.estimates[i]),
                "status/estimate mismatch at node {i}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 1200;
        let values = uniform_values(n);
        let run = || {
            let mut net = Network::new(SimConfig::new(n).with_seed(99).with_loss_prob(0.05));
            drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper())
        };
        let (a, b) = (run(), run());
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(a.total_messages, b.total_messages);
        assert_eq!(a.total_rounds, b.total_rounds);
    }

    #[test]
    fn message_sizes_respect_model_budget() {
        let n = 4096;
        let mut net = Network::new(SimConfig::new(n).with_seed(21));
        let values = uniform_values(n);
        let _ = drr_gossip_ave(&mut net, &values, &DrrGossipConfig::paper());
        assert!(net.metrics().max_message_bits() <= net.config().message_bit_budget());
    }
}
