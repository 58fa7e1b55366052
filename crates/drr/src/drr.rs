//! Phase I: Distributed Random Ranking (Algorithm 1).
//!
//! Every node chooses a uniform random rank and then samples up to
//! `log n − 1` random nodes, one per round, until it finds a node of strictly
//! higher rank, which it connects to (sending it a connection message). A
//! node that never finds a higher-ranked node becomes a **root**. Because
//! every non-root connects to a strictly higher-ranked node, the result is a
//! forest of disjoint trees.
//!
//! Cost (Theorem 4): `O(log n)` rounds and `O(n log log n)` messages whp —
//! the expected number of probes per node is `O(log log n)` because a node
//! stops as soon as it samples someone above itself.

use crate::forest::Forest;
use crate::rank::Ranks;
use gossip_net::{NodeId, Phase, Transport};
use serde::{Deserialize, Serialize};

/// How many random nodes each node may probe before giving up and becoming a
/// root.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ProbeBudget {
    /// The paper's choice: `log₂ n − 1` probes.
    LogNMinusOne,
    /// A fixed number of probes (used by the probe-budget ablation, E13).
    Fixed(u32),
    /// `⌈factor · log₂ n⌉` probes.
    ScaledLogN(f64),
}

impl ProbeBudget {
    /// The concrete number of probes allowed in an `n`-node network.
    pub fn probes(&self, n: usize) -> u32 {
        let log_n = gossip_net::id_bits(n);
        match *self {
            ProbeBudget::LogNMinusOne => log_n.saturating_sub(1).max(1),
            ProbeBudget::Fixed(k) => k.max(1),
            ProbeBudget::ScaledLogN(factor) => ((f64::from(log_n) * factor).ceil() as u32).max(1),
        }
    }
}

/// Attempts at the connection message, in DRR and in Local-DRR: a lost
/// connection message would otherwise silently orphan a child.
pub(crate) const CONNECT_RETRIES: u32 = 8;

/// Configuration of the DRR phase.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DrrConfig {
    /// Probe budget per node.
    pub probe_budget: ProbeBudget,
}

impl DrrConfig {
    /// The paper's parameters.
    pub fn paper() -> Self {
        DrrConfig {
            probe_budget: ProbeBudget::LogNMinusOne,
        }
    }
}

/// The outcome of the DRR phase.
#[derive(Clone, Debug)]
pub struct DrrOutcome {
    /// The ranking forest.
    pub forest: Forest,
    /// The ranks drawn by the nodes.
    pub ranks: Ranks,
    /// Number of probes issued by each node.
    pub probes_per_node: Vec<u32>,
    /// Rounds consumed by this phase.
    pub rounds: u64,
    /// Messages sent during this phase (probes + replies + connections).
    pub messages: u64,
}

/// Run Algorithm 1 on the network.
///
/// Crashed nodes do not participate: they never probe, are never valid
/// parents (probes addressed to them go unanswered) and end up as singleton
/// roots in the returned forest.
pub fn run_drr<T: Transport>(net: &mut T, config: &DrrConfig) -> DrrOutcome {
    let n = net.n();
    let rounds_before = net.round();
    let messages_before = net.metrics().total_messages();
    let ranks = Ranks::assign(net);
    let budget = config.probe_budget.probes(n);
    let probe_bits = net.config().id_bits();
    // A rank reply carries the rank; drawing from [1, n³] needs 3·log n bits.
    let reply_bits = 3 * net.config().id_bits();
    let connect_bits = net.config().id_bits();

    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut found = vec![false; n];
    let mut probes_per_node = vec![0u32; n];

    // Probe rounds: one probe per still-searching node per round.
    for _round in 0..budget {
        let mut progressed = false;
        for i in 0..n {
            let me = NodeId::new(i);
            if !net.is_alive(me) || found[i] || probes_per_node[i] >= budget {
                continue;
            }
            progressed = true;
            probes_per_node[i] += 1;
            let candidate = net.sample_other_than(me);
            // The probe and, if it arrives, the rank reply.
            let probe_delivered = net.send(me, candidate, Phase::DrrProbe, probe_bits);
            if !probe_delivered {
                continue;
            }
            let reply_delivered = net.send(candidate, me, Phase::DrrReply, reply_bits);
            if !reply_delivered {
                continue;
            }
            if ranks.higher(candidate, me) {
                parent[i] = Some(candidate);
                found[i] = true;
            }
        }
        net.advance_round();
        if !progressed {
            break;
        }
    }

    // Connection round(s): every node that found a parent sends it a
    // connection message carrying its identifier. Lost connection messages
    // are retried; if the parent remains unreachable the node falls back to
    // being a root (keeping the forest consistent on both end points).
    for i in 0..n {
        let me = NodeId::new(i);
        if let Some(p) = parent[i] {
            let (_attempts, ok) =
                net.send_with_retries(me, p, Phase::DrrConnect, connect_bits, CONNECT_RETRIES);
            if !ok {
                parent[i] = None;
                found[i] = false;
            }
        }
    }
    net.advance_round();

    let forest = Forest::from_parents(parent)
        .expect("DRR parents point to strictly higher-ranked nodes, so no cycles are possible");

    DrrOutcome {
        forest,
        ranks,
        probes_per_node,
        rounds: net.round() - rounds_before,
        messages: net.metrics().total_messages() - messages_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{Network, SimConfig};

    fn run(n: usize, seed: u64, loss: f64) -> (DrrOutcome, Network) {
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let outcome = run_drr(&mut net, &DrrConfig::paper());
        (outcome, net)
    }

    #[test]
    fn probe_budget_values() {
        assert_eq!(ProbeBudget::LogNMinusOne.probes(1024), 9);
        assert_eq!(ProbeBudget::LogNMinusOne.probes(2), 1);
        assert_eq!(ProbeBudget::Fixed(5).probes(1024), 5);
        assert_eq!(ProbeBudget::Fixed(0).probes(1024), 1);
        assert_eq!(ProbeBudget::ScaledLogN(2.0).probes(1024), 20);
        assert_eq!(ProbeBudget::ScaledLogN(0.5).probes(1024), 5);
    }

    #[test]
    fn forest_covers_all_nodes_and_parents_have_higher_rank() {
        let (outcome, _net) = run(2000, 11, 0.0);
        let forest = &outcome.forest;
        assert_eq!(forest.n(), 2000);
        let total: usize = forest.tree_sizes().map(|(_, s)| s).sum();
        assert_eq!(total, 2000);
        for i in 0..2000 {
            let v = NodeId::new(i);
            if let Some(p) = forest.parent(v) {
                assert!(outcome.ranks.higher(p, v), "parent must outrank child");
            }
        }
    }

    #[test]
    fn highest_ranked_node_is_always_a_root() {
        for seed in 0..5 {
            let (outcome, _net) = run(500, seed, 0.0);
            let top = outcome.ranks.highest();
            assert!(outcome.forest.is_root(top));
        }
    }

    #[test]
    fn rounds_are_at_most_log_n_plus_one() {
        let n = 1 << 12;
        let (outcome, _net) = run(n, 3, 0.0);
        let budget = ProbeBudget::LogNMinusOne.probes(n) as u64;
        assert!(outcome.rounds <= budget + 1, "rounds = {}", outcome.rounds);
    }

    #[test]
    fn number_of_trees_is_well_below_n(/* Theorem 2 sanity */) {
        let n = 1 << 13;
        let (outcome, _net) = run(n, 5, 0.0);
        let trees = outcome.forest.num_trees();
        // Θ(n / log n) with a small constant; allow a generous band.
        let log_n = (n as f64).log2();
        assert!(
            (trees as f64) < 4.0 * n as f64 / log_n,
            "too many trees: {trees}"
        );
        assert!(
            (trees as f64) > n as f64 / (4.0 * log_n),
            "too few trees: {trees}"
        );
    }

    #[test]
    fn max_tree_size_is_logarithmic(/* Theorem 3 sanity */) {
        let n = 1 << 13;
        let (outcome, _net) = run(n, 7, 0.0);
        let max_size = outcome.forest.max_tree_size();
        let log_n = (n as f64).log2();
        assert!(
            (max_size as f64) < 12.0 * log_n,
            "largest tree too big: {max_size}"
        );
    }

    #[test]
    fn message_complexity_is_n_log_log_n_scale(/* Theorem 4 sanity */) {
        let n = 1 << 13;
        let (outcome, _net) = run(n, 9, 0.0);
        let msgs = outcome.messages as f64;
        let n_f = n as f64;
        let log_log_n = n_f.log2().log2();
        // probes+replies+connections ≈ 2·n·E[probes] + n; E[probes] = Θ(log log n).
        assert!(msgs < 8.0 * n_f * log_log_n, "messages = {msgs}");
        assert!(msgs > n_f, "messages = {msgs}");
    }

    #[test]
    fn average_probes_per_node_is_small() {
        let n = 1 << 12;
        let (outcome, _net) = run(n, 13, 0.0);
        let avg = outcome
            .probes_per_node
            .iter()
            .map(|&p| p as f64)
            .sum::<f64>()
            / n as f64;
        let log_log_n = (n as f64).log2().log2();
        assert!(avg < 3.0 * log_log_n, "average probes = {avg}");
        assert!(avg >= 1.0);
    }

    /// A `Network` that tallies each node's `DrrConnect` sends.
    struct ConnectTally {
        net: Network,
        connects: Vec<u32>,
    }

    impl Transport for ConnectTally {
        fn config(&self) -> &gossip_net::SimConfig {
            self.net.config()
        }
        fn metrics(&self) -> &gossip_net::Metrics {
            self.net.metrics()
        }
        fn is_alive(&self, node: NodeId) -> bool {
            self.net.is_alive(node)
        }
        fn alive_count(&self) -> usize {
            self.net.alive_count()
        }
        fn rng_mut(&mut self) -> &mut rand::rngs::SmallRng {
            self.net.rng_mut()
        }
        fn send(&mut self, from: NodeId, to: NodeId, phase: Phase, bits: u32) -> bool {
            if phase == Phase::DrrConnect {
                self.connects[from.index()] += 1;
            }
            self.net.send(from, to, phase, bits)
        }
        fn advance_round(&mut self) {
            self.net.advance_round();
        }
    }

    #[test]
    fn works_under_message_loss() {
        let net = Network::new(SimConfig::new(1000).with_seed(17).with_loss_prob(0.1));
        let mut tally = ConnectTally {
            net,
            connects: vec![0; 1000],
        };
        let outcome = run_drr(&mut tally, &DrrConfig::paper());
        // Forest still valid, still covers all nodes.
        assert_eq!(outcome.forest.n(), 1000);
        let total: usize = outcome.forest.tree_sizes().map(|(_, s)| s).sum();
        assert_eq!(total, 1000);
        // Each child stops at CONNECT_RETRIES attempts, and at 10 % loss
        // some child needs the retry path.
        assert!(tally.connects.iter().all(|&c| c <= CONNECT_RETRIES));
        assert!(tally.connects.iter().any(|&c| c > 1));
    }

    #[test]
    fn crashed_nodes_become_singleton_roots() {
        let mut net = Network::new(
            SimConfig::new(800)
                .with_seed(23)
                .with_initial_crash_prob(0.3),
        );
        let outcome = run_drr(&mut net, &DrrConfig::paper());
        for v in net.nodes() {
            if !net.is_alive(v) {
                assert!(outcome.forest.is_root(v));
                assert_eq!(outcome.forest.tree_size(v), 1);
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (a, _) = run(300, 99, 0.05);
        let (b, _) = run(300, 99, 0.05);
        assert_eq!(a.forest, b.forest);
        assert_eq!(a.probes_per_node, b.probes_per_node);
    }

    #[test]
    fn messages_respect_size_budget() {
        let mut net = Network::new(SimConfig::new(4096).with_seed(1));
        let _ = run_drr(&mut net, &DrrConfig::paper());
        assert!(net.metrics().max_message_bits() <= net.config().message_bit_budget());
    }

    #[test]
    fn smaller_probe_budget_gives_more_trees() {
        let run_with = |budget| {
            let mut net = Network::new(SimConfig::new(4096).with_seed(31));
            let cfg = DrrConfig {
                probe_budget: budget,
            };
            run_drr(&mut net, &cfg).forest.num_trees()
        };
        let few_probes = run_with(ProbeBudget::Fixed(1));
        let many_probes = run_with(ProbeBudget::ScaledLogN(2.0));
        assert!(few_probes > many_probes);
    }
}
