//! E2–E4 and E7–E8 — the shape and cost of the ranking forests.
//!
//! * E2 (Theorem 2): the DRR forest has `Θ(n / log n)` trees.
//! * E3 (cited as Theorem 3): the largest DRR tree's size. The code has
//!   cited `O(log n)` nodes, and the table's claim column still prints it;
//!   the citation is unresolved. Over n = 2⁸…2²⁰ the size fits `log² n`
//!   and the height `log n`, and without the paper's text the repo cannot
//!   tell which of the two (or the expected size) Theorem 3 bounds.
//! * E4 (Theorem 4): the DRR phase costs `O(n log log n)` messages and
//!   `O(log n)` rounds.
//! * E7 (Theorem 11): Local-DRR trees have height `O(log n)` on arbitrary
//!   graphs (measured on Chord, d-regular, torus and Erdős–Rényi graphs).
//! * E8 (Theorem 13): Local-DRR produces `≈ Σ 1/(dᵢ+1)` trees.

use super::ExperimentOptions;
use gossip_analysis::{best_fit, fmt_float, ComplexityModel, Sweep, Table};
use gossip_drr::drr::{run_drr, DrrConfig};
use gossip_drr::local_drr::run_local_drr;
use gossip_net::{Network, SimConfig};
use gossip_topology::{d_regular, erdos_renyi_logn, grid2d, ChordOverlay, Graph};

/// Run E2–E4 (complete-graph DRR).
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let sweep = Sweep::over(options.scaling_sizes(), options.trials());
    let result = sweep.run(|n, seed| {
        let mut net = Network::new(SimConfig::new(n).with_seed(seed));
        let outcome = run_drr(&mut net, &DrrConfig::paper());
        let stats = outcome.forest.stats();
        vec![
            ("num_trees".to_string(), stats.num_trees as f64),
            ("max_tree_size".to_string(), stats.max_tree_size as f64),
            ("mean_tree_size".to_string(), stats.mean_tree_size),
            ("max_height".to_string(), stats.max_height as f64),
            ("messages".to_string(), outcome.messages as f64),
            ("rounds".to_string(), outcome.rounds as f64),
            (
                "avg_probes".to_string(),
                outcome
                    .probes_per_node
                    .iter()
                    .map(|&p| p as f64)
                    .sum::<f64>()
                    / n as f64,
            ),
        ]
    });

    let mut per_n = Table::new(
        "E2–E4 — DRR forest shape and phase cost",
        &[
            "n",
            "trees",
            "n/log n",
            "max tree size",
            "log n",
            "avg probes",
            "messages",
            "rounds",
        ],
    );
    for p in &result.points {
        let n = p.n as f64;
        per_n.push_row(vec![
            p.n.to_string(),
            fmt_float(p.metrics["num_trees"].mean),
            fmt_float(n / n.log2()),
            fmt_float(p.metrics["max_tree_size"].mean),
            fmt_float(n.log2()),
            fmt_float(p.metrics["avg_probes"].mean),
            fmt_float(p.metrics["messages"].mean),
            fmt_float(p.metrics["rounds"].mean),
        ]);
    }

    let mut fits = Table::new(
        "E2–E4 — growth-model fits",
        &["quantity", "best fit", "coefficient", "r^2", "paper claim"],
    );
    let mut push_fit = |name: &str, metric: &str, candidates: &[ComplexityModel], claim: &str| {
        let fit = best_fit(&result.series(metric), candidates);
        fits.push_row(vec![
            name.to_string(),
            fit.model.to_string(),
            fmt_float(fit.coefficient),
            fmt_float(fit.r_squared),
            claim.to_string(),
        ]);
    };
    push_fit(
        "number of trees (Thm 2)",
        "num_trees",
        &[
            ComplexityModel::NOverLogN,
            ComplexityModel::N,
            ComplexityModel::SqrtN,
        ],
        "Θ(n / log n)",
    );
    push_fit(
        "max tree size (Thm 3)",
        "max_tree_size",
        &ComplexityModel::TIME_MODELS,
        "O(log n)",
    );
    push_fit(
        "DRR messages (Thm 4)",
        "messages",
        &ComplexityModel::MESSAGE_MODELS,
        "O(n log log n)",
    );
    push_fit(
        "DRR rounds (Thm 4)",
        "rounds",
        &ComplexityModel::TIME_MODELS,
        "O(log n)",
    );
    push_fit(
        "avg probes per node",
        "avg_probes",
        &[
            ComplexityModel::Constant,
            ComplexityModel::LogLogN,
            ComplexityModel::LogN,
        ],
        "O(log log n)",
    );

    vec![per_n, fits]
}

fn local_drr_stats(graph: &Graph, seed: u64) -> (f64, f64, f64) {
    let mut net = Network::new(SimConfig::new(graph.n()).with_seed(seed));
    let outcome = run_local_drr(&mut net, graph);
    let stats = outcome.forest.stats();
    (
        stats.num_trees as f64,
        stats.max_height as f64,
        graph.expected_local_drr_trees(),
    )
}

/// Run E7–E8 (Local-DRR on sparse graphs).
pub(crate) fn run_local(options: &ExperimentOptions) -> Vec<Table> {
    let sweep = Sweep::over(options.sparse_sizes(), options.trials());

    let result = sweep.run(|n, seed| {
        let mut obs = Vec::new();
        let chord = ChordOverlay::new(n).graph();
        let (trees, height, expected) = local_drr_stats(&chord, seed);
        obs.push(("chord_trees".to_string(), trees));
        obs.push(("chord_height".to_string(), height));
        obs.push(("chord_expected_trees".to_string(), expected));

        let reg = d_regular(n, 8, seed);
        let (trees, height, expected) = local_drr_stats(&reg, seed);
        obs.push(("reg8_trees".to_string(), trees));
        obs.push(("reg8_height".to_string(), height));
        obs.push(("reg8_expected_trees".to_string(), expected));

        let side = (n as f64).sqrt().round() as usize;
        let torus = grid2d(side.max(2), side.max(2), true);
        let (trees, height, expected) = local_drr_stats(&torus, seed);
        // Normalise the torus metrics to its actual node count.
        obs.push(("torus_trees".to_string(), trees));
        obs.push(("torus_height".to_string(), height));
        obs.push(("torus_expected_trees".to_string(), expected));

        let er = erdos_renyi_logn(n, 2.0, seed);
        let (trees, height, expected) = local_drr_stats(&er, seed);
        obs.push(("er_trees".to_string(), trees));
        obs.push(("er_height".to_string(), height));
        obs.push(("er_expected_trees".to_string(), expected));
        obs
    });

    let mut heights = Table::new(
        "E7 — Local-DRR maximum tree height (Theorem 11: O(log n) on any graph)",
        &["n", "log n", "chord", "8-regular", "torus", "erdos-renyi"],
    );
    for p in &result.points {
        heights.push_row(vec![
            p.n.to_string(),
            fmt_float((p.n as f64).log2()),
            fmt_float(p.metrics["chord_height"].mean),
            fmt_float(p.metrics["reg8_height"].mean),
            fmt_float(p.metrics["torus_height"].mean),
            fmt_float(p.metrics["er_height"].mean),
        ]);
    }
    let chord_fit = best_fit(
        &result.series("chord_height"),
        &ComplexityModel::TIME_MODELS,
    );
    heights.push_note(format!(
        "chord height best fit: {} (r^2 = {})",
        chord_fit.model,
        fmt_float(chord_fit.r_squared)
    ));

    let mut counts = Table::new(
        "E8 — Local-DRR tree counts vs Σ 1/(d_i+1) (Theorem 13)",
        &[
            "n",
            "chord trees",
            "chord Σ1/(d+1)",
            "8-reg trees",
            "8-reg Σ1/(d+1)",
            "torus trees",
            "torus Σ1/(d+1)",
            "ER trees",
            "ER Σ1/(d+1)",
        ],
    );
    for p in &result.points {
        counts.push_row(vec![
            p.n.to_string(),
            fmt_float(p.metrics["chord_trees"].mean),
            fmt_float(p.metrics["chord_expected_trees"].mean),
            fmt_float(p.metrics["reg8_trees"].mean),
            fmt_float(p.metrics["reg8_expected_trees"].mean),
            fmt_float(p.metrics["torus_trees"].mean),
            fmt_float(p.metrics["torus_expected_trees"].mean),
            fmt_float(p.metrics["er_trees"].mean),
            fmt_float(p.metrics["er_expected_trees"].mean),
        ]);
    }
    counts.push_note("for a d-regular graph Σ 1/(d_i+1) = n/(d+1)");

    vec![heights, counts]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentOptions {
        ExperimentOptions {
            quick: true,
            markdown: false,
        }
    }

    #[test]
    fn drr_phase_tables_have_fits() {
        let tables = run(&quick());
        assert_eq!(tables.len(), 2);
        let rendered = tables[1].render();
        assert!(rendered.contains("Thm 2"));
        assert!(rendered.contains("n log log n") || rendered.contains("claim"));
    }

    #[test]
    fn local_drr_tables_cover_four_topologies() {
        let tables = run_local(&quick());
        assert_eq!(tables.len(), 2);
        let rendered = tables[0].render();
        assert!(rendered.contains("chord"));
        assert!(rendered.contains("torus"));
    }
}
