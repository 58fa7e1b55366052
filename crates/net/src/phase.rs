//! Protocol phase labels used to break down message counts.
//!
//! Every message sent through [`Transport::send`](crate::Transport::send)
//! is tagged with the phase of the protocol that produced it. The
//! experiment harness uses the breakdown to reproduce the paper's claim
//! that the message complexity of DRR-gossip is dominated by Phase I (the
//! DRR algorithm, Section 3.5).

use serde::{Deserialize, Serialize};

/// Phases of the gossip protocols implemented in this workspace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Phase {
    /// DRR Phase I: probing a random node for its rank.
    DrrProbe,
    /// DRR Phase I: the probed node's rank reply.
    DrrReply,
    /// DRR Phase I: connection message from a node to its chosen parent.
    DrrConnect,
    /// Phase II: convergecast of local aggregates up each tree.
    Convergecast,
    /// Phase II: broadcast of the root address (and later the result) down each tree.
    Broadcast,
    /// Phase III: root-to-root gossip (possibly forwarded through a non-root).
    RootGossip,
    /// Phase III: the forwarding hop from a non-root node to its root.
    RootForward,
    /// Phase III: the sampling (consensus confirmation) procedure of Gossip-max.
    RootSampling,
    /// Data-spread of a single value from one root to all roots.
    DataSpread,
    /// Baseline uniform gossip (Kempe et al. push-sum / push-max).
    UniformGossip,
    /// Baseline efficient gossip (Kashyap et al.): group formation.
    Grouping,
    /// Baseline efficient gossip: gossip among group leaders.
    LeaderGossip,
    /// Baseline: dissemination of the final result to group/tree members.
    Dissemination,
    /// Baseline rumor spreading (Karp et al. push / push-pull).
    Rumor,
    /// Messages spent routing through an overlay (Chord lookups, random walks).
    Routing,
    /// Continuous anti-entropy: digest exchange and delta repair (gossip-ae).
    AntiEntropy,
    /// Membership control plane: SWIM probes, acks, joins and piggybacked
    /// liveness updates (gossip-member).
    Membership,
    /// Anything else.
    Other,
}

impl Phase {
    /// All phases, exactly once each, in declaration order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::DrrProbe,
        Phase::DrrReply,
        Phase::DrrConnect,
        Phase::Convergecast,
        Phase::Broadcast,
        Phase::RootGossip,
        Phase::RootForward,
        Phase::RootSampling,
        Phase::DataSpread,
        Phase::UniformGossip,
        Phase::Grouping,
        Phase::LeaderGossip,
        Phase::Dissemination,
        Phase::Rumor,
        Phase::Routing,
        Phase::AntiEntropy,
        Phase::Membership,
        Phase::Other,
    ];

    /// Number of distinct phases.
    pub(crate) const COUNT: usize = 18;

    /// Dense index for per-phase counters.
    #[inline]
    pub(crate) fn as_index(self) -> usize {
        match self {
            Phase::DrrProbe => 0,
            Phase::DrrReply => 1,
            Phase::DrrConnect => 2,
            Phase::Convergecast => 3,
            Phase::Broadcast => 4,
            Phase::RootGossip => 5,
            Phase::RootForward => 6,
            Phase::RootSampling => 7,
            Phase::DataSpread => 8,
            Phase::UniformGossip => 9,
            Phase::Grouping => 10,
            Phase::LeaderGossip => 11,
            Phase::Dissemination => 12,
            Phase::Rumor => 13,
            Phase::Routing => 14,
            Phase::AntiEntropy => 15,
            Phase::Membership => 16,
            Phase::Other => 17,
        }
    }

    /// Human-readable name used in tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::DrrProbe => "drr-probe",
            Phase::DrrReply => "drr-reply",
            Phase::DrrConnect => "drr-connect",
            Phase::Convergecast => "convergecast",
            Phase::Broadcast => "broadcast",
            Phase::RootGossip => "root-gossip",
            Phase::RootForward => "root-forward",
            Phase::RootSampling => "root-sampling",
            Phase::DataSpread => "data-spread",
            Phase::UniformGossip => "uniform-gossip",
            Phase::Grouping => "grouping",
            Phase::LeaderGossip => "leader-gossip",
            Phase::Dissemination => "dissemination",
            Phase::Rumor => "rumor",
            Phase::Routing => "routing",
            Phase::AntiEntropy => "anti-entropy",
            Phase::Membership => "membership",
            Phase::Other => "other",
        }
    }

    /// Iterate over every distinct phase exactly once.
    pub fn iter() -> impl Iterator<Item = Phase> {
        Phase::ALL.into_iter()
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn indices_are_dense_and_unique() {
        let indices: HashSet<usize> = Phase::iter().map(Phase::as_index).collect();
        assert_eq!(indices.len(), Phase::COUNT);
        assert!(indices.iter().all(|&i| i < Phase::COUNT));
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<&str> = Phase::iter().map(Phase::as_str).collect();
        assert_eq!(names.len(), Phase::COUNT);
    }

    #[test]
    fn iter_yields_each_phase_once() {
        let phases: Vec<Phase> = Phase::iter().collect();
        assert_eq!(phases.len(), Phase::COUNT);
        let set: HashSet<Phase> = phases.into_iter().collect();
        assert_eq!(set.len(), Phase::COUNT);
    }

    #[test]
    fn display_matches_as_str() {
        for p in Phase::iter() {
            assert_eq!(format!("{p}"), p.as_str());
        }
    }
}
