//! Peer-to-peer scenario from the paper's introduction: "in a peer-to-peer
//! network, the average number of files stored at each node ... is an
//! important statistic", computed here over a **Chord** overlay — the
//! sparse-network setting of Section 4 (Theorem 14).
//!
//! Every peer can only talk to its Chord fingers; reaching a random peer
//! costs an O(log n)-hop lookup. DRR-gossip (Local-DRR + convergecast +
//! routed root gossip) is compared against routed uniform gossip.
//!
//! Run with:
//! ```text
//! cargo run --release --example p2p_chord
//! ```

use drr_gossip::aggregate::ValueDistribution;
use drr_gossip::baselines::{routed_push_sum_average, PushSumConfig};
use drr_gossip::drr::sparse::{sparse_drr_gossip_ave, SparseGossipConfig};
use drr_gossip::net::{Network, SimConfig};
use drr_gossip::topology::{ChordOverlay, ChordSampler};

fn main() {
    let n = 4_096;
    let seed = 11;

    // File counts per peer: heavy-tailed (a few peers host most content).
    let files = ValueDistribution::Zipf {
        max: 10_000,
        exponent: 1.3,
    }
    .generate(n, seed);
    let exact: f64 = files.iter().sum::<f64>() / n as f64;

    // The Chord overlay: n peers, each with Θ(log n) fingers.
    let overlay = ChordOverlay::new(n);
    let graph = overlay.graph();
    let sampler = ChordSampler::new(&overlay);
    println!("=== Chord overlay with {n} peers ===");
    println!(
        "degree: {}–{} fingers per peer, lookups take ≤ {} hops\n",
        graph.min_degree(),
        graph.max_degree(),
        overlay.max_lookup_hops()
    );

    // DRR-gossip on the overlay.
    let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_value_range(10_000.0));
    let drr = sparse_drr_gossip_ave(&mut net, &graph, &sampler, &files, &SparseGossipConfig);
    println!("DRR-gossip (Local-DRR + routed root gossip):");
    println!("  average files/peer (exact)  : {exact:.2}");
    println!(
        "  average files/peer (gossip) : {:.2}  (max rel. error {:.2e})",
        drr.estimates
            .iter()
            .cloned()
            .find(|e| e.is_finite())
            .unwrap(),
        drr.max_relative_error()
    );
    println!(
        "  forest: {} trees, tallest has height {}",
        drr.forest_stats.num_trees, drr.forest_stats.max_height
    );
    println!(
        "  cost: {} rounds, {} messages\n",
        drr.total_rounds, drr.total_messages
    );

    // Routed uniform gossip: every peer pushes every round, and every push
    // is an O(log n)-hop lookup.
    let mut net = Network::new(SimConfig::new(n).with_seed(seed).with_value_range(10_000.0));
    let uniform = routed_push_sum_average(&mut net, &sampler, &files, &PushSumConfig::default());
    println!("uniform gossip routed over Chord:");
    println!(
        "  average files/peer (gossip) : {:.2}  (max rel. error {:.2e})",
        uniform.estimates[0],
        uniform.max_relative_error()
    );
    println!(
        "  cost: {} gossip rounds (≈ {} underlying rounds, one lookup each), {} messages",
        uniform.rounds,
        uniform.rounds * overlay.max_lookup_hops() as u64,
        uniform.messages
    );
    println!(
        "\nDRR-gossip uses {:.1}x fewer messages on the same overlay (paper: Θ(log n) gap)",
        uniform.messages as f64 / drr.total_messages as f64
    );
}
