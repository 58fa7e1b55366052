//! The self-check: two sets of passes of the same binary, interleaved
//! A B B A …, compared by the rule a later change is judged by.
//!
//! A pass is one untraced run of each workload. Both sets run the same
//! code at the same seed, so every difference between their medians is the
//! box's, and every exact count must be identical in all passes on the
//! simulators. It fails when a difference exceeds the metric's bound: the
//! benchmark would then reject a change that did nothing.

use crate::harness::{self, END_TO_END};
use crate::reference::Reference;
use crate::stats::{iqr_ratio, median};
use crate::workloads::{Workload, NAMES};

/// Run the self-check; `true` when every run was correct and every pair of
/// medians agrees within its bound.
pub fn run(seed: u64, seconds: f64, passes: usize, toy: bool) -> bool {
    // values[workload][set][metric] = one value per pass
    let mut values = vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; 2]; NAMES.len()];
    let mut simulator = vec![true; NAMES.len()];
    let mut ok = true;
    let reference = Reference::new(toy);
    for pass in 0..2 * passes {
        let set = usize::from(matches!(pass % 4, 1 | 2));
        for (w, name) in NAMES.iter().enumerate() {
            let workload = Workload::by_name(name, seed, toy).expect("a listed workload");
            simulator[w] = workload.is_simulator();
            let run = harness::run(&workload, seconds, &reference);
            println!(
                "pass {} (set {}), {name}: {} reps in {:.1} s{}",
                pass + 1,
                ["A", "B"][set],
                run.reps,
                run.wall_s,
                if run.correct { "" } else { ", INCORRECT" }
            );
            for problem in &run.problems {
                println!("  INCORRECT: {problem}");
            }
            ok &= run.correct;
            for (m, (_, value, _)) in run.metrics.iter().enumerate() {
                values[w][set][m].push(*value);
            }
        }
    }

    println!(
        "\n| workload | metric | unit | median A | median B | difference | spread A | spread B \
         | bound | verdict |\n| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |"
    );
    for (w, name) in NAMES.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[w][0][m], &values[w][1][m]);
            let (median_a, median_b) = (median(a), median(b));
            let difference = (median_b - median_a).abs() / median_a.abs();
            let all: Vec<f64> = a.iter().chain(b).copied().collect();
            let identical = all.iter().all(|v| v.to_bits() == all[0].to_bits());
            // Timings are held to the bound; so is every count over UDP.
            // On the simulators a count that moves at all is a failure.
            let timing = matches!(metric.name, "setup_s" | "work_per_s");
            let pass = if timing || !simulator[w] {
                difference <= metric.bound
            } else {
                identical
            };
            ok &= pass;
            println!(
                "| {name} | {} | {} | {median_a} | {median_b} | {:.2} % | {:.2} % | {:.2} % | \
                 {} % | {} |",
                metric.name,
                metric.unit,
                difference * 100.0,
                iqr_ratio(a) * 100.0,
                iqr_ratio(b) * 100.0,
                metric.bound * 100.0,
                match (pass, identical) {
                    (true, true) => "identical in all passes",
                    (true, false) => "within the bound",
                    (false, _) => "FAILED",
                }
            );
        }
    }
    println!(
        "\nself-check {}: {} passes per set at seed {seed}, {seconds} s measured per run",
        if ok { "passed" } else { "FAILED" },
        passes
    );
    ok
}
