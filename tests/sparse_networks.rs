//! Cross-crate integration tests for the sparse-network model (Section 4):
//! Local-DRR plus routed gossip on Chord, random regular graphs and tori,
//! against the routed uniform-gossip baseline.

use drr_gossip::aggregate::ValueDistribution;
use drr_gossip::baselines::{routed_push_sum_average, PushSumConfig};
use drr_gossip::drr::local_drr::run_local_drr;
use drr_gossip::drr::sparse::{sparse_drr_gossip_ave, sparse_drr_gossip_max, SparseGossipConfig};
use drr_gossip::net::{Network, SimConfig};
use drr_gossip::topology::{d_regular, grid2d, ChordOverlay, ChordSampler, RandomWalkSampler};

#[test]
fn chord_average_and_max_are_accurate() {
    let n = 2048;
    let overlay = ChordOverlay::new(n);
    let graph = overlay.graph();
    let sampler = ChordSampler::new(&overlay);
    let values = ValueDistribution::Zipf {
        max: 5000,
        exponent: 1.3,
    }
    .generate(n, 3);

    let mut net = Network::new(SimConfig::new(n).with_seed(3).with_value_range(5000.0));
    let ave = sparse_drr_gossip_ave(&mut net, &graph, &sampler, &values, &SparseGossipConfig);
    assert!(
        ave.max_relative_error() < 0.05,
        "error {}",
        ave.max_relative_error()
    );

    let mut net = Network::new(SimConfig::new(n).with_seed(4).with_value_range(5000.0));
    let max = sparse_drr_gossip_max(&mut net, &graph, &sampler, &values, &SparseGossipConfig);
    assert!(
        max.fraction_exact() > 0.99,
        "fraction {}",
        max.fraction_exact()
    );
}

#[test]
fn drr_gossip_beats_routed_uniform_gossip_on_chord_messages() {
    let n = 2048;
    let overlay = ChordOverlay::new(n);
    let graph = overlay.graph();
    let sampler = ChordSampler::new(&overlay);
    let values = ValueDistribution::Uniform { lo: 0.0, hi: 100.0 }.generate(n, 7);

    let mut net = Network::new(SimConfig::new(n).with_seed(7).with_value_range(100.0));
    let drr = sparse_drr_gossip_ave(&mut net, &graph, &sampler, &values, &SparseGossipConfig);

    let mut net = Network::new(SimConfig::new(n).with_seed(7).with_value_range(100.0));
    let uniform = routed_push_sum_average(&mut net, &sampler, &values, &PushSumConfig::default());

    assert!(
        drr.total_messages * 2 < uniform.messages,
        "DRR {} vs uniform {} messages (expected a ≈log n gap)",
        drr.total_messages,
        uniform.messages
    );
}

#[test]
fn local_drr_heights_stay_logarithmic_on_diverse_topologies() {
    let n = 4096;
    let log_n = (n as f64).log2();
    let topologies = vec![
        ("chord", ChordOverlay::new(n).graph()),
        ("4-regular", d_regular(n, 4, 5)),
        ("16-regular", d_regular(n, 16, 5)),
        ("torus", grid2d(64, 64, true)),
    ];
    for (name, graph) in topologies {
        let mut net = Network::new(SimConfig::new(graph.n()).with_seed(11));
        let outcome = run_local_drr(&mut net, &graph);
        let height = outcome.forest.stats().max_height as f64;
        assert!(
            height < 8.0 * log_n,
            "{name}: height {height} is not O(log n)"
        );
        // Tree edges are graph edges and parents outrank children.
        for v in graph.nodes() {
            if let Some(p) = outcome.forest.parent(v) {
                assert!(graph.has_edge(v, p), "{name}: non-edge in forest");
                assert!(outcome.ranks.higher(p, v), "{name}: rank inversion");
            }
        }
    }
}

#[test]
fn random_walk_sampler_supports_non_chord_overlays() {
    let n = 1024;
    let graph = d_regular(n, 8, 13);
    let walk_length = 2 * (n as f64).log2() as usize;
    let sampler = RandomWalkSampler::new(&graph, walk_length);
    let values = ValueDistribution::Uniform { lo: 0.0, hi: 10.0 }.generate(n, 13);
    let mut net = Network::new(SimConfig::new(n).with_seed(13).with_value_range(10.0));
    let report = sparse_drr_gossip_ave(&mut net, &graph, &sampler, &values, &SparseGossipConfig);
    assert!(
        report.max_relative_error() < 0.1,
        "error {}",
        report.max_relative_error()
    );
}

#[test]
fn local_drr_tree_count_follows_degree_formula() {
    let n = 4096;
    for d in [4usize, 8, 16] {
        let graph = d_regular(n, d, 17);
        let mut net = Network::new(SimConfig::new(n).with_seed(17));
        let outcome = run_local_drr(&mut net, &graph);
        let expected = graph.expected_local_drr_trees();
        let actual = outcome.forest.num_trees() as f64;
        assert!(
            (actual - expected).abs() < 0.4 * expected,
            "d={d}: expected ~{expected:.0} trees, got {actual}"
        );
    }
}
