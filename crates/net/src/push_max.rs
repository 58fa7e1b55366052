//! The push-max round, written once.
//!
//! Each slot holds a value or none. In a round every slot may push its
//! value to one slot and pull one back; deliveries are folded in with `max`
//! when the round ends, so every exchange reads round-start values.
//! Uniform push-max, Gossip-max's gossip and sampling procedures
//! (Algorithm 4) and the sparse root gossip differ only in that exchange,
//! which [`PushMax::run`] takes as a closure.

use crate::transport::Transport;
use std::ops::ControlFlow;

/// One `Option<f64>` per slot, plus the buffer a round's deliveries wait in
/// until it ends. Both are created once, in [`PushMax::new`], and reused by
/// every [`run`](PushMax::run).
#[derive(Debug)]
pub struct PushMax {
    values: Vec<Option<f64>>,
    deliveries: Vec<(usize, f64)>,
}

impl PushMax {
    /// A slot per item of `values`: `Some` where a participant starts with a
    /// value, `None` where a slot holds none and never takes one.
    pub fn new(values: impl IntoIterator<Item = Option<f64>>) -> Self {
        PushMax {
            values: values.into_iter().collect(),
            deliveries: Vec::new(),
        }
    }

    /// The value per slot.
    pub fn values(&self) -> &[Option<f64>] {
        &self.values
    }

    /// The share of the `counted` slots that hold `target` (0 when none is
    /// counted).
    pub fn fraction_holding(&self, counted: impl IntoIterator<Item = usize>, target: f64) -> f64 {
        let (mut slots, mut holding) = (0usize, 0usize);
        for slot in counted {
            slots += 1;
            holding += usize::from(self.values[slot] == Some(target));
        }
        holding as f64 / slots.max(1) as f64
    }

    /// Run up to `rounds` rounds and return how many ran. In each, every
    /// slot in slot order calls `exchange(net, slot, round-start values)`,
    /// which sends what its rule sends and returns `(pushed_to,
    /// pulled_from)`: the slot that took this slot's value and the slot
    /// whose value came back. Only values that exist are delivered, and
    /// only to slots that hold one. Then `end_round` closes the round, and
    /// `Break` stops the run.
    pub fn run<T: Transport>(
        &mut self,
        net: &mut T,
        rounds: u64,
        mut exchange: impl FnMut(&mut T, usize, &[Option<f64>]) -> (Option<usize>, Option<usize>),
        mut end_round: impl FnMut(&mut T, &Self) -> ControlFlow<()>,
    ) -> u64 {
        for round in 0..rounds {
            for slot in 0..self.values.len() {
                let (pushed_to, pulled_from) = exchange(net, slot, &self.values);
                if let (Some(receiver), Some(value)) = (pushed_to, self.values[slot]) {
                    self.deliveries.push((receiver, value));
                }
                if let Some(value) = pulled_from.and_then(|queried| self.values[queried]) {
                    self.deliveries.push((slot, value));
                }
            }
            for (slot, value) in self.deliveries.drain(..) {
                if let Some(current) = &mut self.values[slot] {
                    *current = current.max(value);
                }
            }
            if end_round(net, self).is_break() {
                return round + 1;
            }
        }
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, SimConfig};

    /// Slot `i` pushes to slot `i + 1` every round, without the network.
    fn chain(values: Vec<Option<f64>>, rounds: u64) -> Vec<Vec<Option<f64>>> {
        let mut net = Network::new(SimConfig::new(values.len()).with_seed(1));
        let slots = values.len();
        let mut max = PushMax::new(values);
        let mut after = Vec::new();
        max.run(
            &mut net,
            rounds,
            |_, slot, _| ((slot + 1 < slots).then_some(slot + 1), None),
            |_, max| {
                after.push(max.values().to_vec());
                ControlFlow::Continue(())
            },
        );
        after
    }

    #[test]
    fn a_value_is_pushed_on_the_round_after_it_arrives() {
        let after = chain(vec![Some(9.0), Some(0.0), Some(0.0), Some(0.0)], 3);
        // One hop per round: what slot 1 takes in round 1 reaches slot 2 in
        // round 2, not within round 1.
        assert_eq!(after[0], [Some(9.0), Some(9.0), Some(0.0), Some(0.0)]);
        assert_eq!(after[1], [Some(9.0), Some(9.0), Some(9.0), Some(0.0)]);
        assert_eq!(after[2], [Some(9.0); 4]);
    }

    #[test]
    fn a_slot_without_a_value_never_takes_one() {
        // Slot 1 is pushed to every round, and has nothing to push on.
        let after = chain(vec![Some(9.0), None, Some(1.0)], 2);
        assert_eq!(after[1], [Some(9.0), None, Some(1.0)]);

        // Each slot pushes to the slot before it and pulls from the one
        // after: slot 1 has nothing to push, what is pushed to it or pulled
        // by it is dropped, and slot 2 takes 9 from slot 0 both ways.
        let mut net = Network::new(SimConfig::new(3).with_seed(1));
        let mut max = PushMax::new([Some(9.0), None, Some(1.0)]);
        let ran = max.run(
            &mut net,
            5,
            |_, slot, _| (Some((slot + 2) % 3), Some((slot + 1) % 3)),
            |_, _| ControlFlow::Break(()),
        );
        assert_eq!(ran, 1, "Break closes the run after its round");
        assert_eq!(max.values(), [Some(9.0), None, Some(9.0)]);
        assert_eq!(max.fraction_holding([0, 2], 9.0), 1.0);
        assert_eq!(max.fraction_holding(0..3, 9.0), 2.0 / 3.0);
        assert_eq!(max.fraction_holding([], 9.0), 0.0);
    }
}
