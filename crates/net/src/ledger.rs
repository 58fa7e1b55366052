//! Per-phase cost accounting for multi-phase protocols.
//!
//! A protocol run is a chain of named phases (DRR, convergecast, root
//! gossip, ...). A [`PhaseLedger`] opened before the first phase records,
//! at the end of each, the rounds and messages the transport counted since
//! the previous mark, and at the end the totals since it was opened.

use crate::transport::Transport;
use serde::{Deserialize, Serialize};

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

/// The phases of one run, as deltas of a transport's round and message
/// counters.
#[derive(Clone, Debug)]
pub struct PhaseLedger {
    start: (u64, u64),
    last: (u64, u64),
    phases: Vec<PhaseCost>,
}

fn counters<T: Transport>(net: &T) -> (u64, u64) {
    (net.round(), net.metrics().total_messages())
}

impl PhaseLedger {
    /// Open a ledger at the transport's current counters.
    pub fn new<T: Transport>(net: &T) -> Self {
        let now = counters(net);
        PhaseLedger {
            start: now,
            last: now,
            phases: Vec::new(),
        }
    }

    /// Close the phase `name`: what the transport counted since the last
    /// mark.
    pub fn record<T: Transport>(&mut self, net: &T, name: &'static str) {
        let now = counters(net);
        self.phases.push(PhaseCost {
            name,
            rounds: now.0 - self.last.0,
            messages: now.1 - self.last.1,
        });
        self.last = now;
    }

    /// The recorded phases, then the rounds and the messages since the
    /// ledger was opened.
    pub fn finish<T: Transport>(self, net: &T) -> (Vec<PhaseCost>, u64, u64) {
        let now = counters(net);
        (self.phases, now.0 - self.start.0, now.1 - self.start.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NodeId, Phase, SimConfig};

    #[test]
    fn phases_are_deltas_and_totals_span_the_ledger() {
        let mut net = Network::new(SimConfig::new(4).with_seed(1));
        net.send(NodeId::new(0), NodeId::new(1), Phase::RootGossip, 8);
        let mut ledger = PhaseLedger::new(&net);
        net.send(NodeId::new(1), NodeId::new(2), Phase::RootGossip, 8);
        net.advance_round();
        ledger.record(&net, "a");
        net.advance_round();
        net.advance_round();
        ledger.record(&net, "b");
        net.send(NodeId::new(2), NodeId::new(3), Phase::RootGossip, 8);
        let (phases, rounds, messages) = ledger.finish(&net);
        let costs: Vec<_> = phases
            .iter()
            .map(|p| (p.name, p.rounds, p.messages))
            .collect();
        assert_eq!(costs, [("a", 1, 1), ("b", 2, 0)]);
        assert_eq!((rounds, messages), (3, 2));
    }
}
