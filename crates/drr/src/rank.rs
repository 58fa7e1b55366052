//! Random rank assignment (the "R" of DRR).
//!
//! Every node chooses a rank independently and uniformly at random from
//! `[0, 1]` (Algorithm 1). The paper notes that drawing from `[1, n³]` gives
//! the same asymptotics; drawing real-valued ranks makes ties a
//! probability-zero event, and we additionally break any residual tie (from
//! finite floating-point precision) by node id so that ranks are always a
//! strict total order — the property every DRR proof relies on.

use gossip_net::{NodeId, Transport};
use rand::Rng;

/// Per-node ranks forming a strict total order.
#[derive(Clone, Debug, PartialEq)]
pub struct Ranks {
    ranks: Vec<f64>,
}

impl Ranks {
    /// Draw a rank for every node of the network from the simulation RNG.
    pub(crate) fn assign<T: Transport>(net: &mut T) -> Self {
        let n = net.n();
        let rng = net.rng_mut();
        let ranks = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        Ranks { ranks }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.ranks.len()
    }

    /// The rank of a node.
    #[inline]
    pub fn rank(&self, v: NodeId) -> f64 {
        self.ranks[v.index()]
    }

    /// Strict "is ranked higher than" comparison with id tie-breaking.
    #[inline]
    pub fn higher(&self, a: NodeId, b: NodeId) -> bool {
        let (ra, rb) = (self.ranks[a.index()], self.ranks[b.index()]);
        ra > rb || (ra == rb && a.index() > b.index())
    }

    /// The node with the globally highest rank.
    pub fn highest(&self) -> NodeId {
        let mut best = NodeId::new(0);
        for i in 1..self.ranks.len() {
            let v = NodeId::new(i);
            if self.higher(v, best) {
                best = v;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{Network, SimConfig};

    #[test]
    fn assign_produces_ranks_in_unit_interval() {
        let mut net = Network::new(SimConfig::new(500).with_seed(1));
        let ranks = Ranks::assign(&mut net);
        assert_eq!(ranks.n(), 500);
        assert!(ranks.ranks.iter().all(|&r| (0.0..1.0).contains(&r)));
    }

    #[test]
    fn assign_is_deterministic_in_seed() {
        let ranks = |seed| {
            let mut net = Network::new(SimConfig::new(64).with_seed(seed));
            Ranks::assign(&mut net).ranks
        };
        assert_eq!(ranks(5), ranks(5));
        assert_ne!(ranks(5), ranks(6));
    }

    #[test]
    fn higher_is_a_strict_total_order_even_with_ties() {
        let ranks = Ranks {
            ranks: vec![0.5, 0.5, 0.2],
        };
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        // tie broken by id
        assert!(ranks.higher(b, a));
        assert!(!ranks.higher(a, b));
        assert!(ranks.higher(a, c));
        // irreflexive
        assert!(!ranks.higher(a, a));
    }

    #[test]
    fn highest_finds_maximum() {
        let ranks = Ranks {
            ranks: vec![0.1, 0.9, 0.3, 0.9],
        };
        // tie between 1 and 3 broken towards the larger id
        assert_eq!(ranks.highest(), NodeId::new(3));
    }
}
