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
//!
//! Each algorithm is written once, as `max_chain` and `averaging_chain`,
//! over any [`Transport`] and either root overlay: the complete graph here
//! (`Uniform`) and a sparse graph with routed samples (`Routed`, in
//! [`crate::sparse`]). `Uniform` forms the forest by DRR, forwards a push
//! that lands on a non-root to its root and elects the largest tree by a
//! Gossip-max on tree sizes; `Routed` forms it by Local-DRR, charges each
//! routed sample a super-round and takes the canonical largest-tree root
//! with no election. The Sum, Count and Rank protocols of
//! [`crate::aggregates`] are the averaging chain with unit weight at the
//! largest root. A `PhaseLedger` records each phase's rounds and
//! messages, and `crates/drr/tests/chain_goldens.rs` pins every
//! composite's report bit for bit.

use crate::broadcast::broadcast_down;
use crate::convergecast::{convergecast_max, convergecast_sum, ReceptionModel};
use crate::drr::{run_drr, DrrConfig};
use crate::forest::{Forest, ForestStats};
use crate::gossip_ave::{gossip_ave_from, GossipAveConfig};
use crate::gossip_max::{gossip_max_from, GossipMaxConfig, GossipMaxOutcome};
use gossip_aggregate::{relative_error, AverageState};
pub use gossip_net::PhaseCost;
use gossip_net::{Metrics, NodeId, Phase, PhaseLedger, Transport};
use serde::{Deserialize, Serialize};

/// Configuration of the full DRR-gossip protocols.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
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
    /// Close a run: classify every node and take the costs from `ledger`.
    fn assemble<T: Transport>(
        net: &T,
        ledger: PhaseLedger,
        forest: &Forest,
        estimates: Vec<f64>,
        exact: f64,
    ) -> Self {
        let alive: Vec<bool> = net.nodes().map(|v| net.is_alive(v)).collect();
        let (phases, total_rounds, total_messages) = ledger.finish(net);
        DrrGossipReport {
            statuses: estimates
                .iter()
                .zip(&alive)
                .map(|(&e, &a)| NodeStatus::of(a, e))
                .collect(),
            estimates,
            exact,
            alive,
            forest_stats: forest.stats(),
            phases,
            total_rounds,
            total_messages,
            metrics: net.metrics().clone(),
        }
    }

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

/// How the roots of a ranking forest reach a random root, and how one
/// learns that it owns the largest tree: the part of the chain the complete
/// graph (Section 3) and a sparse graph (Section 4) do differently. The two
/// gossips return per-node values, `Some` at alive roots.
///
/// `forest`, `push_sum` and `elect` are phases of their own and record
/// themselves in the ledger; `gossip_max` serves two phases, which the
/// chain names.
pub(crate) trait RootOverlay {
    /// The name of Algorithm 7's root-gossip phase.
    const GOSSIP_MAX: &'static str;

    /// The reception model of the tree phases.
    fn reception(&self) -> ReceptionModel;

    /// Phase I: partition the nodes into a ranking forest.
    fn forest<T: Transport>(&self, net: &mut T, ledger: &mut PhaseLedger) -> Forest;

    /// Gossip-max among the roots, each alive root starting at
    /// `initial(root)`.
    fn gossip_max<T: Transport>(
        &self,
        net: &mut T,
        forest: &Forest,
        initial: impl Fn(NodeId) -> f64,
    ) -> Vec<Option<f64>>;

    /// Push-sum among the roots, each alive root starting at
    /// `initial(root)`: the `s/g` estimates.
    fn push_sum<T: Transport>(
        &self,
        net: &mut T,
        forest: &Forest,
        initial: impl Fn(NodeId) -> AverageState,
        mass: Mass,
        ledger: &mut PhaseLedger,
    ) -> Vec<Option<f64>>;

    /// The size election, if the overlay holds one: Gossip-max on tree
    /// sizes before push-sum, so that afterwards a root can tell it owns
    /// the largest tree. `tree` is the convergecast state. Without an
    /// election the canonical largest-tree root spreads alone.
    fn elect<T: Transport>(
        &self,
        net: &mut T,
        forest: &Forest,
        tree: &[Option<AverageState>],
        ledger: &mut PhaseLedger,
    ) -> Option<GossipMaxOutcome>;
}

/// What the averaging chain's push-sum converges to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mass {
    /// Every root starts at `(tree sum, tree size)`, so `s/g` tends to the
    /// average (Algorithm 8).
    Average,
    /// Every root starts at `(tree sum, 0)` except the largest-tree root at
    /// `(tree sum, 1)`, so `s/w` there tends to the sum (the push-sum trick
    /// of Kempe et al. on the root overlay). The concentrated weight mixes
    /// more slowly, so push-sum runs twice the rounds.
    Sum,
}

impl Mass {
    /// The exact aggregate over the alive nodes' values.
    fn exact<T: Transport>(self, net: &T, values: &[f64]) -> f64 {
        let sum: f64 = net.alive_nodes().map(|v| values[v.index()]).sum();
        match self {
            Mass::Sum => sum,
            Mass::Average => match net.alive_nodes().count() {
                0 => 0.0,
                alive => sum / alive as f64,
            },
        }
    }
}

/// The complete-graph overlay of Section 3: DRR, uniform samples forwarded
/// by a non-root to its root, and a Gossip-max election on tree sizes.
pub(crate) struct Uniform<'a>(pub(crate) &'a DrrGossipConfig);

impl RootOverlay for Uniform<'_> {
    const GOSSIP_MAX: &'static str = "gossip-max";

    fn reception(&self) -> ReceptionModel {
        self.0.reception
    }

    fn forest<T: Transport>(&self, net: &mut T, ledger: &mut PhaseLedger) -> Forest {
        let forest = run_drr(net, &self.0.drr).forest;
        ledger.record(net, "drr");
        forest
    }

    fn gossip_max<T: Transport>(
        &self,
        net: &mut T,
        forest: &Forest,
        initial: impl Fn(NodeId) -> f64,
    ) -> Vec<Option<f64>> {
        gossip_max_from(net, forest, initial, &self.0.gossip_max).root_values
    }

    fn push_sum<T: Transport>(
        &self,
        net: &mut T,
        forest: &Forest,
        initial: impl Fn(NodeId) -> AverageState,
        mass: Mass,
        ledger: &mut PhaseLedger,
    ) -> Vec<Option<f64>> {
        let (config, name) = match mass {
            Mass::Average => (self.0.gossip_ave, "gossip-ave"),
            Mass::Sum => {
                let config = GossipAveConfig {
                    rounds_factor: self.0.gossip_ave.rounds_factor * 2.0,
                    ..self.0.gossip_ave
                };
                (config, "gossip-sum")
            }
        };
        let estimates = gossip_ave_from(net, forest, initial, &config).estimates;
        ledger.record(net, name);
        estimates
    }

    fn elect<T: Transport>(
        &self,
        net: &mut T,
        forest: &Forest,
        tree: &[Option<AverageState>],
        ledger: &mut PhaseLedger,
    ) -> Option<GossipMaxOutcome> {
        let sizes = |root: NodeId| tree[root.index()].map_or(f64::NEG_INFINITY, |s| s.count);
        let election = gossip_max_from(net, forest, sizes, &self.0.gossip_max);
        ledger.record(net, "size-election");
        Some(election)
    }
}

/// The alive roots that learned the largest tree size in `election` and own
/// a tree of that size.
fn election_winners<T: Transport>(
    net: &T,
    forest: &Forest,
    election: &GossipMaxOutcome,
) -> Vec<NodeId> {
    let max_size = election.true_max;
    forest
        .roots()
        .iter()
        .copied()
        .filter(|&r| {
            net.is_alive(r)
                && election.value_at(r) == Some(max_size)
                && forest.tree_size(r) as f64 == max_size
        })
        .collect()
}

/// Phase II's second half: every root broadcasts its address down its tree.
fn broadcast_root<T: Transport>(
    net: &mut T,
    forest: &Forest,
    reception: ReceptionModel,
    ledger: &mut PhaseLedger,
) {
    let bits = net.config().id_bits();
    let _ = broadcast_down(net, forest, reception, Phase::Broadcast, bits);
    ledger.record(net, "broadcast-root");
}

/// The last phase: every root sends the aggregate down its tree.
fn disseminate<T: Transport>(
    net: &mut T,
    forest: &Forest,
    reception: ReceptionModel,
    ledger: &mut PhaseLedger,
) {
    let bits = net.config().id_bits() + net.config().value_bits();
    let _ = broadcast_down(net, forest, reception, Phase::Dissemination, bits);
    ledger.record(net, "disseminate");
}

/// Algorithm 7 on any overlay: every alive node ends with the maximum its
/// root agreed on.
pub(crate) fn max_chain<T: Transport, O: RootOverlay>(
    net: &mut T,
    overlay: &O,
    values: &[f64],
) -> DrrGossipReport {
    assert_eq!(values.len(), net.n(), "one value per node required");
    let mut ledger = PhaseLedger::new(net);
    let forest = overlay.forest(net, &mut ledger);

    // Phase II: convergecast of the maximum, then the root-address broadcast.
    let tree = convergecast_max(net, &forest, values, overlay.reception()).state;
    ledger.record(net, "convergecast");
    broadcast_root(net, &forest, overlay.reception(), &mut ledger);

    // Phase III: Gossip-max among the roots, then down every tree.
    let at_roots = overlay.gossip_max(net, &forest, |root| {
        tree[root.index()].unwrap_or(f64::NEG_INFINITY)
    });
    ledger.record(net, O::GOSSIP_MAX);
    disseminate(net, &forest, overlay.reception(), &mut ledger);

    let exact = net
        .alive_nodes()
        .map(|v| values[v.index()])
        .fold(f64::NEG_INFINITY, f64::max);
    let estimates = net
        .nodes()
        .map(|v| {
            if net.is_alive(v) {
                at_roots[forest.root_of(v).index()].unwrap_or(f64::NAN)
            } else {
                f64::NAN
            }
        })
        .collect();
    DrrGossipReport::assemble(net, ledger, &forest, estimates, exact)
}

/// Algorithm 8 on any overlay, for the average or (with [`Mass::Sum`]) the
/// sum: push-sum among the roots, then the largest tree's estimate spread
/// to every root and down every tree.
pub(crate) fn averaging_chain<T: Transport, O: RootOverlay>(
    net: &mut T,
    overlay: &O,
    values: &[f64],
    mass: Mass,
) -> DrrGossipReport {
    assert_eq!(values.len(), net.n(), "one value per node required");
    let mut ledger = PhaseLedger::new(net);
    let forest = overlay.forest(net, &mut ledger);

    // Phase II: convergecast of (local sum, tree size), then root-address broadcast.
    let tree = convergecast_sum(net, &forest, values, overlay.reception()).state;
    ledger.record(net, "convergecast");
    broadcast_root(net, &forest, overlay.reception(), &mut ledger);

    // Phase III: push-sum among the roots, the largest tree's estimate
    // spread to every root (Data-spread), then down every tree.
    let election = overlay.elect(net, &forest, &tree, &mut ledger);
    let largest = forest.largest_tree_root();
    let initial = |root: NodeId| {
        let state = tree[root.index()].unwrap_or_default();
        match mass {
            Mass::Average => state,
            Mass::Sum => AverageState {
                sum: state.sum,
                count: if root == largest { 1.0 } else { 0.0 },
            },
        }
    };
    let at_roots = overlay.push_sum(net, &forest, initial, mass, &mut ledger);
    let value = at_roots[largest.index()].unwrap_or(0.0);
    let mut spreaders = election.map_or_else(Vec::new, |e| election_winners(net, &forest, &e));
    if spreaders.is_empty() {
        spreaders.push(largest);
    }
    let spread = overlay.gossip_max(net, &forest, |root| {
        if spreaders.contains(&root) {
            value
        } else {
            f64::NEG_INFINITY
        }
    });
    ledger.record(net, "data-spread");
    disseminate(net, &forest, overlay.reception(), &mut ledger);

    let exact = mass.exact(net, values);
    let estimates = net
        .nodes()
        .map(|v| {
            if !net.is_alive(v) {
                return f64::NAN;
            }
            let root = forest.root_of(v).index();
            match spread[root] {
                Some(x) if x.is_finite() => x,
                // A root the spread missed falls back to its own estimate.
                _ => at_roots[root].unwrap_or(f64::NAN),
            }
        })
        .collect();
    DrrGossipReport::assemble(net, ledger, &forest, estimates, exact)
}

/// Algorithm 7: compute the global maximum at every node.
pub fn drr_gossip_max<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &DrrGossipConfig,
) -> DrrGossipReport {
    max_chain(net, &Uniform(config), values)
}

/// Algorithm 8: compute the global average at every node.
pub fn drr_gossip_ave<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &DrrGossipConfig,
) -> DrrGossipReport {
    averaging_chain(net, &Uniform(config), values, Mass::Average)
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
