//! The push-sum round of Kempe, Dobra & Gehrke (FOCS 2003), written once.
//!
//! Every participant holds a pair `(s, w)`, and its estimate of the average
//! is `s/w`. In every round each participant keeps half of its pair and
//! pushes the other half on; what a round delivers is added when the round
//! ends. The baselines' uniform and routed push-sum, Kashyap et al.'s
//! leader gossip and DRR-gossip's Gossip-ave (Algorithm 6, on either root
//! overlay) differ only in who takes part, how a push travels and who may
//! take it. [`PushSum::run`] takes the first as a set of slots and the
//! other two as its `reach` closure.

use crate::transport::Transport;

/// Rounds for a gossip among `n` participants: `⌈factor · log₂ n⌉`, at
/// least one ([`push_sum_rounds`] at `ε = 1`, whose precision term is 0).
pub fn log_rounds(factor: f64, n: usize) -> u64 {
    push_sum_rounds(factor, n, 1.0)
}

/// Rounds for a push-sum among `m` participants to reach relative error
/// `epsilon`: `⌈factor · (log₂ m + log₂(1/ε))⌉`, at least one.
pub fn push_sum_rounds(factor: f64, m: usize, epsilon: f64) -> u64 {
    let log_m = f64::from(crate::id_bits(m.max(2)));
    let log_eps = (1.0 / epsilon).log2().max(0.0);
    ((factor * (log_m + log_eps)).ceil() as u64).max(1)
}

/// One `(s, w)` pair per slot. The slots that push — the `pushers` every
/// method takes — are the caller's: node indices for uniform gossip, group
/// leaders or tree roots for the protocols that gossip among
/// representatives.
#[derive(Debug)]
pub struct PushSum {
    sum: Vec<f64>,
    weight: Vec<f64>,
}

impl PushSum {
    /// A pair per slot of `pushers`: `initial(slot)` at every pusher, asked
    /// in slot order, and `(0, 0)` elsewhere.
    pub fn new(pushers: &[bool], mut initial: impl FnMut(usize) -> (f64, f64)) -> Self {
        let mut pairs = PushSum {
            sum: vec![0.0; pushers.len()],
            weight: vec![0.0; pushers.len()],
        };
        for slot in (0..pushers.len()).filter(|&slot| pushers[slot]) {
            (pairs.sum[slot], pairs.weight[slot]) = initial(slot);
        }
        pairs
    }

    /// `Σs / Σw` over `pushers`, summed in slot order (0 without weight):
    /// before a run, the average the run converges to.
    pub fn average(&self, pushers: &[bool]) -> f64 {
        let (mut sum, mut weight) = (0.0, 0.0);
        for slot in (0..pushers.len()).filter(|&slot| pushers[slot]) {
            sum += self.sum[slot];
            weight += self.weight[slot];
        }
        if weight > 0.0 {
            sum / weight
        } else {
            0.0
        }
    }

    /// The estimate `s/w` at `slot` (0 without weight).
    pub fn estimate(&self, slot: usize) -> f64 {
        if self.weight[slot] > 0.0 {
            self.sum[slot] / self.weight[slot]
        } else {
            0.0
        }
    }

    /// Run `rounds` rounds. In each, every pusher, in slot order, halves its
    /// pair and hands the half to the slot `reach(net, pusher)` returns
    /// (`None`: lost on the way, or refused). The loop credits whatever slot
    /// `reach` names, so who may take a push is `reach`'s rule. What a
    /// round delivers is added when it ends, and `end_round` then closes
    /// it. The two buffers of deliveries are allocated once per run.
    pub fn run<T: Transport>(
        &mut self,
        net: &mut T,
        pushers: &[bool],
        rounds: u64,
        mut reach: impl FnMut(&mut T, usize) -> Option<usize>,
        mut end_round: impl FnMut(&mut T, &Self),
    ) {
        let slots = self.sum.len();
        let mut incoming_sum = vec![0.0; slots];
        let mut incoming_weight = vec![0.0; slots];
        for _ in 0..rounds {
            incoming_sum.fill(0.0);
            incoming_weight.fill(0.0);
            for slot in (0..slots).filter(|&slot| pushers[slot]) {
                let half_sum = self.sum[slot] / 2.0;
                let half_weight = self.weight[slot] / 2.0;
                self.sum[slot] = half_sum;
                self.weight[slot] = half_weight;
                if let Some(receiver) = reach(net, slot) {
                    incoming_sum[receiver] += half_sum;
                    incoming_weight[receiver] += half_weight;
                }
            }
            for slot in 0..slots {
                self.sum[slot] += incoming_sum[slot];
                self.weight[slot] += incoming_weight[slot];
            }
            end_round(net, self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NodeId, Phase, SimConfig};

    #[test]
    fn pushers_keep_the_mass_and_meet_at_its_average() {
        let n = 64;
        let mut net = Network::new(SimConfig::new(n).with_seed(3));
        let pushers: Vec<bool> = (0..n).map(|i| i % 4 != 3).collect();
        let mut pairs = PushSum::new(&pushers, |i| (i as f64, 1.0));
        let average = pairs.average(&pushers);
        let mut rounds_closed = 0;
        pairs.run(
            &mut net,
            &pushers,
            push_sum_rounds(1.0, n, 1e-6),
            |net, i| {
                // Push only to pushers, so no mass leaves them.
                let target = loop {
                    let target = net.sample_uniform();
                    if pushers[target.index()] {
                        break target;
                    }
                };
                net.send(NodeId::new(i), target, Phase::UniformGossip, 8)
                    .then_some(target.index())
            },
            |net, _| {
                net.advance_round();
                rounds_closed += 1;
            },
        );
        assert_eq!(rounds_closed, push_sum_rounds(1.0, n, 1e-6));
        assert!((pairs.average(&pushers) - average).abs() < 1e-9);
        for (i, &pushes) in pushers.iter().enumerate() {
            if pushes {
                assert!((pairs.estimate(i) - average).abs() < 1e-3 * average);
            } else {
                assert_eq!(pairs.estimate(i), 0.0);
            }
        }
    }

    #[test]
    fn rounds_grow_with_participants_and_precision() {
        assert_eq!(push_sum_rounds(1.0, 1, 1.0), 1);
        assert_eq!(log_rounds(1.5, 1), 2);
        assert_eq!(log_rounds(2.0, 1000), 20);
        assert!(push_sum_rounds(1.0, 1000, 1e-6) > push_sum_rounds(1.0, 1000, 0.1));
        assert!(push_sum_rounds(1.0, 100_000, 0.1) > push_sum_rounds(1.0, 100, 0.1));
    }
}
