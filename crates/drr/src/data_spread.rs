//! Data-spread (Algorithm 5): one root, or several holding the same value,
//! spread a value to all roots.
//!
//! A root that wants to disseminate a value (in DRR-gossip-ave, the
//! largest-tree root spreading its average estimate) sets its initial value
//! to that value while every other root starts at `−∞`, and then the roots
//! simply run Gossip-max. After the gossip + sampling procedures every root
//! holds the spread value whp, at the same `O(log n)` rounds / `O(n)`
//! messages cost as Gossip-max.

use crate::forest::Forest;
use crate::gossip_max::{gossip_max_from, GossipMaxConfig, GossipMaxOutcome};
use gossip_net::{NodeId, Transport};

/// Spread `value` from `sources` to all roots. Every source must be a root
/// and the value finite; several sources hold the same value when the
/// largest-tree election ends in a tie.
pub fn data_spread_multi<T: Transport>(
    net: &mut T,
    forest: &Forest,
    sources: &[NodeId],
    value: f64,
    config: &GossipMaxConfig,
) -> GossipMaxOutcome {
    assert!(!sources.is_empty(), "need at least one spreading root");
    let all_roots = sources.iter().all(|&source| forest.is_root(source));
    assert!(all_roots, "data-spread source must be a root");
    assert!(
        value.is_finite(),
        "data-spread requires a finite value (|x_ru| < ∞)"
    );
    let initial = |root| {
        if sources.contains(&root) {
            value
        } else {
            f64::NEG_INFINITY
        }
    };
    gossip_max_from(net, forest, initial, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drr::{run_drr, DrrConfig};
    use gossip_net::{Network, SimConfig};

    fn setup(n: usize, seed: u64, loss: f64) -> (Forest, Network) {
        let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_loss_prob(loss));
        let drr = run_drr(&mut net, &DrrConfig::paper());
        (drr.forest, net)
    }

    #[test]
    fn spreads_value_to_all_roots() {
        let (forest, mut net) = setup(3000, 3, 0.0);
        let source = forest.largest_tree_root();
        let out = data_spread_multi(
            &mut net,
            &forest,
            &[source],
            123.456,
            &GossipMaxConfig::default(),
        );
        assert_eq!(out.true_max, 123.456);
        assert_eq!(out.fraction_after_sampling, 1.0);
        for &r in forest.roots() {
            assert_eq!(out.value_at(r), Some(123.456));
        }
    }

    #[test]
    fn spreads_under_loss() {
        let (forest, mut net) = setup(3000, 5, 0.1);
        let source = forest.largest_tree_root();
        let out = data_spread_multi(
            &mut net,
            &forest,
            &[source],
            -7.5,
            &GossipMaxConfig::default(),
        );
        assert!(
            out.fraction_after_sampling > 0.995,
            "fraction = {}",
            out.fraction_after_sampling
        );
    }

    #[test]
    fn negative_values_spread_correctly() {
        // The −∞ sentinel must not be confused with very negative payloads.
        let (forest, mut net) = setup(1000, 7, 0.0);
        let source = forest.roots()[0];
        let out = data_spread_multi(
            &mut net,
            &forest,
            &[source],
            -1e12,
            &GossipMaxConfig::default(),
        );
        assert_eq!(out.fraction_after_sampling, 1.0);
        assert_eq!(out.true_max, -1e12);
    }

    #[test]
    fn multi_source_spread_works() {
        let (forest, mut net) = setup(1500, 9, 0.0);
        let sources: Vec<NodeId> = forest.roots().iter().copied().take(3).collect();
        let out = data_spread_multi(
            &mut net,
            &forest,
            &sources,
            42.0,
            &GossipMaxConfig::default(),
        );
        assert_eq!(out.fraction_after_sampling, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be a root")]
    fn non_root_source_rejected() {
        let (forest, mut net) = setup(500, 11, 0.0);
        let non_root = (0..500)
            .map(NodeId::new)
            .find(|&v| !forest.is_root(v))
            .unwrap();
        let _ = data_spread_multi(
            &mut net,
            &forest,
            &[non_root],
            1.0,
            &GossipMaxConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "finite value")]
    fn infinite_value_rejected() {
        let (forest, mut net) = setup(100, 13, 0.0);
        let source = forest.roots()[0];
        let _ = data_spread_multi(
            &mut net,
            &forest,
            &[source],
            f64::INFINITY,
            &GossipMaxConfig::default(),
        );
    }
}
