//! Forest anatomy: explore the ranking forests that DRR (Algorithm 1) and
//! Local-DRR (Section 4) build, and check the paper's structural theorems on
//! a live run:
//!
//! * Theorem 2 — the DRR forest has Θ(n / log n) trees;
//! * Theorem 3 (citation unresolved) — its largest tree is small: measured
//!   over n = 2⁸…2²⁰, its size fits log² n and its height log n;
//! * Theorem 11 — Local-DRR trees have height O(log n) on any graph;
//! * Theorem 13 — Local-DRR produces ≈ Σ 1/(dᵢ+1) trees.
//!
//! Run with:
//! ```text
//! cargo run --release --example forest_anatomy
//! ```

use drr_gossip::drr::drr::{run_drr, DrrConfig};
use drr_gossip::drr::local_drr::run_local_drr;
use drr_gossip::net::{Network, SimConfig};
use drr_gossip::topology::{d_regular, grid2d, ChordOverlay};

fn main() {
    let n = 1 << 14;
    let seed = 21;
    let log_n = (n as f64).log2();

    // ---- DRR on the complete-graph phone-call model ----
    let mut net = Network::new(SimConfig::new(n).with_seed(seed));
    let drr = run_drr(&mut net, &DrrConfig::paper());
    let stats = drr.forest.stats();
    println!("=== DRR forest on n = {n} nodes (complete-graph model) ===");
    println!(
        "trees: {}   (Theorem 2 scale n/log n = {:.0})",
        stats.num_trees,
        n as f64 / log_n
    );
    println!(
        "largest tree: {} nodes   (Theorem 3 scale log n = {:.0})",
        stats.max_tree_size, log_n
    );
    println!("mean tree size: {:.2}", stats.mean_tree_size);
    println!("tallest tree height: {}", stats.max_height);
    println!(
        "phase cost: {} rounds, {} messages ({:.2} per node; log log n = {:.2})",
        drr.rounds,
        drr.messages,
        drr.messages as f64 / n as f64,
        log_n.log2()
    );

    // Tree-size histogram (how many trees of size 1, 2–3, 4–7, ...).
    let mut histogram: Vec<usize> = Vec::new();
    for (_, size) in drr.forest.tree_sizes() {
        let bucket = (size as f64).log2().floor() as usize;
        if histogram.len() <= bucket {
            histogram.resize(bucket + 1, 0);
        }
        histogram[bucket] += 1;
    }
    println!("tree-size histogram (bucket = [2^k, 2^(k+1))):");
    for (k, count) in histogram.iter().enumerate() {
        println!(
            "  size {:>4}..{:<4}: {:>6} trees",
            1 << k,
            (1 << (k + 1)) - 1,
            count
        );
    }

    // ---- Local-DRR on three sparse topologies ----
    println!("\n=== Local-DRR forests (sparse-network model) ===");
    let side = (n as f64).sqrt() as usize;
    let topologies: Vec<(&str, drr_gossip::topology::Graph)> = vec![
        ("chord", ChordOverlay::new(n).graph()),
        ("8-regular", d_regular(n, 8, seed)),
        ("torus", grid2d(side, side, true)),
    ];
    for (name, graph) in topologies {
        let mut net = Network::new(SimConfig::new(graph.n()).with_seed(seed));
        let local = run_local_drr(&mut net, &graph);
        let stats = local.forest.stats();
        println!(
            "{name:>10}: {:>6} trees (Σ1/(d+1) = {:>8.1}), max height {:>3} (log n = {:.0}), max size {}",
            stats.num_trees,
            graph.expected_local_drr_trees(),
            stats.max_height,
            (graph.n() as f64).log2(),
            stats.max_tree_size,
        );
    }
}
