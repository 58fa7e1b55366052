//! Message and round accounting.
//!
//! The paper's evaluation metrics are **message complexity** (total number of
//! messages sent, counting lost messages) and **time complexity** (number of
//! synchronous rounds). `Metrics` tracks both, plus per-phase breakdowns,
//! dropped-message counts, total bits and the widest message observed (for
//! asserting the `O(log n + log s)` size bound of the model).

use crate::phase::Phase;
use serde::{Deserialize, Serialize};

/// Per-phase slice of the metrics, convenient for table rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// The phase label.
    pub phase: Phase,
    /// Messages sent (including lost ones) in this phase.
    pub messages: u64,
    /// Messages that were dropped (link loss or dead endpoint).
    pub dropped: u64,
    /// Total bits sent in this phase.
    pub bits: u64,
}

/// Accumulated simulation metrics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    messages: [u64; Phase::COUNT],
    dropped: [u64; Phase::COUNT],
    bits: [u64; Phase::COUNT],
    rounds: u64,
    per_round_messages: Vec<u64>,
    current_round_messages: u64,
    max_message_bits: u32,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record one message attempt (called by every backend's
    /// [`Transport::send`](crate::Transport::send)).
    #[inline]
    pub fn record_send(&mut self, phase: Phase, bits: u32, delivered: bool) {
        let i = phase.as_index();
        self.messages[i] += 1;
        self.bits[i] += u64::from(bits);
        if !delivered {
            self.dropped[i] += 1;
        }
        self.current_round_messages += 1;
        self.max_message_bits = self.max_message_bits.max(bits);
    }

    /// Count one message already recorded as delivered in `phase` as
    /// dropped after all: a host that hands its frames to the kernel in
    /// batches learns of a refusal only when the batch is flushed.
    pub fn record_refused(&mut self, phase: Phase) {
        self.dropped[phase.as_index()] += 1;
    }

    /// Close the current round: increments the round counter and starts a new
    /// per-round message bucket.
    pub fn advance_round(&mut self) {
        self.rounds += 1;
        self.per_round_messages.push(self.current_round_messages);
        self.current_round_messages = 0;
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total messages sent, over all phases, including lost messages.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum::<u64>()
    }

    /// Total messages dropped (lost in transit or sent to a crashed node).
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Total bits sent over all phases.
    pub fn total_bits(&self) -> u64 {
        self.bits.iter().sum()
    }

    /// Messages sent in a particular phase.
    pub(crate) fn messages_in(&self, phase: Phase) -> u64 {
        self.messages[phase.as_index()]
    }

    /// Dropped messages in a particular phase.
    pub(crate) fn dropped_in(&self, phase: Phase) -> u64 {
        self.dropped[phase.as_index()]
    }

    /// Bits sent in a particular phase.
    pub(crate) fn bits_in(&self, phase: Phase) -> u64 {
        self.bits[phase.as_index()]
    }

    /// The widest message (in bits) sent so far. Tests compare this against
    /// [`crate::SimConfig::message_bit_budget`] to check the model's
    /// `O(log n + log s)` bound.
    pub fn max_message_bits(&self) -> u32 {
        self.max_message_bits
    }

    /// Messages sent per completed round.
    pub fn per_round_messages(&self) -> &[u64] {
        &self.per_round_messages
    }

    /// Per-phase breakdown of all non-empty phases, in declaration order.
    pub fn breakdown(&self) -> Vec<PhaseBreakdown> {
        Phase::iter()
            .filter_map(|phase| {
                let messages = self.messages_in(phase);
                if messages == 0 {
                    None
                } else {
                    Some(PhaseBreakdown {
                        phase,
                        messages,
                        dropped: self.dropped_in(phase),
                        bits: self.bits_in(phase),
                    })
                }
            })
            .collect()
    }

    /// Merge another metrics object into this one (message counts and bits
    /// add; rounds add; per-round traces concatenate). Useful when a protocol
    /// is composed of sub-protocols that each ran on their own `Network`.
    pub fn merge(&mut self, other: &Metrics) {
        for i in 0..Phase::COUNT {
            self.messages[i] += other.messages[i];
            self.dropped[i] += other.dropped[i];
            self.bits[i] += other.bits[i];
        }
        self.rounds += other.rounds;
        self.per_round_messages
            .extend_from_slice(&other.per_round_messages);
        self.current_round_messages += other.current_round_messages;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
    }

    /// Route these counters into an observability registry as the
    /// `gossip_*` families (per-phase label, non-empty phases only).
    /// Purely a read — calling it never perturbs the metrics themselves.
    pub fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        for row in self.breakdown() {
            let phase = row.phase.as_str();
            let labels = [("phase", phase)];
            registry.add_counter(
                "gossip_messages_total",
                "Messages sent per phase, lost ones included",
                &labels,
                row.messages,
            );
            registry.add_counter(
                "gossip_dropped_total",
                "Messages dropped per phase (loss, churn, bandwidth, deadline)",
                &labels,
                row.dropped,
            );
            registry.add_counter(
                "gossip_bits_total",
                "Modelled wire bits sent per phase",
                &labels,
                row.bits,
            );
        }
        registry.add_counter(
            "gossip_rounds_total",
            "Completed synchronous rounds",
            &[],
            self.rounds,
        );
        registry.set_gauge(
            "gossip_max_message_bits",
            "Widest message observed (bits)",
            &[],
            f64::from(self.max_message_bits),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let m = Metrics::new();
        assert_eq!(m.total_messages(), 0);
        assert_eq!(m.total_dropped(), 0);
        assert_eq!(m.rounds(), 0);
        assert_eq!(m.max_message_bits(), 0);
        assert!(m.breakdown().is_empty());
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(Metrics::default(), Metrics::new());
        let mut recorded = Metrics::default();
        recorded.record_send(Phase::Rumor, 8, true);
        let mut expected = Metrics::new();
        expected.record_send(Phase::Rumor, 8, true);
        assert_eq!(recorded, expected);
    }

    #[test]
    fn record_send_updates_counts() {
        let mut m = Metrics::new();
        m.record_send(Phase::DrrProbe, 16, true);
        m.record_send(Phase::DrrProbe, 24, false);
        m.record_send(Phase::RootGossip, 40, true);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_dropped(), 1);
        assert_eq!(m.messages_in(Phase::DrrProbe), 2);
        assert_eq!(m.dropped_in(Phase::DrrProbe), 1);
        assert_eq!(m.bits_in(Phase::DrrProbe), 40);
        assert_eq!(m.messages_in(Phase::RootGossip), 1);
        assert_eq!(m.max_message_bits(), 40);
        assert_eq!(m.total_bits(), 80);
    }

    #[test]
    fn a_refusal_books_what_an_undelivered_send_does() {
        let mut refused = Metrics::new();
        refused.record_send(Phase::Rumor, 24, true);
        refused.record_refused(Phase::Rumor);
        let mut undelivered = Metrics::new();
        undelivered.record_send(Phase::Rumor, 24, false);
        assert_eq!(refused, undelivered);
    }

    #[test]
    fn rounds_and_per_round_trace() {
        let mut m = Metrics::new();
        m.record_send(Phase::Rumor, 8, true);
        m.record_send(Phase::Rumor, 8, true);
        m.advance_round();
        m.record_send(Phase::Rumor, 8, true);
        m.advance_round();
        m.advance_round(); // empty round
        assert_eq!(m.rounds(), 3);
        assert_eq!(m.per_round_messages(), &[2, 1, 0]);
        assert_eq!(m.current_round_messages, 0);
    }

    #[test]
    fn breakdown_lists_only_used_phases() {
        let mut m = Metrics::new();
        m.record_send(Phase::Convergecast, 32, true);
        m.record_send(Phase::Broadcast, 16, false);
        let b = m.breakdown();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].phase, Phase::Convergecast);
        assert_eq!(b[0].messages, 1);
        assert_eq!(b[1].phase, Phase::Broadcast);
        assert_eq!(b[1].dropped, 1);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Metrics::new();
        a.record_send(Phase::DrrProbe, 10, true);
        a.advance_round();
        let mut b = Metrics::new();
        b.record_send(Phase::DrrProbe, 20, false);
        b.record_send(Phase::Broadcast, 30, true);
        b.advance_round();
        b.advance_round();
        a.merge(&b);
        assert_eq!(a.total_messages(), 3);
        assert_eq!(a.total_dropped(), 1);
        assert_eq!(a.rounds(), 3);
        assert_eq!(a.messages_in(Phase::DrrProbe), 2);
        assert_eq!(a.messages_in(Phase::Broadcast), 1);
        assert_eq!(a.max_message_bits(), 30);
        assert_eq!(a.per_round_messages().len(), 3);
    }
}
