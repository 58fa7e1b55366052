//! The untraced run: one workload, contiguous reps, medians and exact
//! counts.
//!
//! A run is a counting rep (which doubles as the warm-up), timed reps for
//! the asked number of seconds, and a second counting rep that must
//! reproduce the first. Timing metrics are medians over the timed reps of
//! the rep's time scaled by the reference kernel's reading taken just
//! before it (see `reference`); every other metric is an exact count from
//! the first counting rep, taken with the counting allocator on or read
//! from the program's own deterministic counters.

use crate::alloc;
use crate::reference::Reference;
use crate::spans::Tracer;
use crate::stats::{iqr_ratio, median, percentile};
use crate::workloads::{Rep, Workload};
use std::time::Instant;

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The eight end-to-end metrics, reported by every workload. Each bound is
/// at least three times the widest quartile distance ÷ median seen over
/// ten seeds on the box the benchmark was defined on, and the two timing
/// bounds sit at the contract's cap (README, noise table).
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "allocs_per_unit",
        unit: "count",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "msgs_per_node",
        unit: "count",
        better: "lower",
        bound: 0.03,
    },
    EndToEnd {
        name: "bytes_per_node",
        unit: "bytes",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "rounds",
        unit: "count",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "correct_fraction",
        unit: "ratio",
        better: "higher",
        bound: 0.005,
    },
];

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one untraced run found.
pub struct Run {
    pub workload: &'static str,
    /// Every check passed; `problems` says which did not.
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics, in [`END_TO_END`]'s order.
    pub metrics: Vec<Metric>,
    /// Timed reps, and the spread of their scaled measured sections (p80 ÷
    /// median and quartile distance ÷ median) and set-up sections.
    pub reps: usize,
    pub rep_p80_ratio: f64,
    pub rep_iqr_ratio: f64,
    pub setup_iqr_ratio: f64,
    /// The two timing metrics as the clock read them, unscaled, and the
    /// median reference reading ÷ its nominal value (above 1: the box was
    /// slower than nominal).
    pub raw_setup_s: f64,
    pub raw_work_per_s: f64,
    pub reference_factor: f64,
    pub wall_s: f64,
}

/// A rep with the counting allocator on.
fn counting_rep(workload: &Workload) -> Rep {
    alloc::start();
    let rep = workload.rep(true, &mut Tracer::off());
    alloc::stop();
    rep
}

/// Hold a rep's exact counts against the first counting rep's: units,
/// messages, bytes and the output fingerprint repeat in every rep of every
/// workload. `everything` asks for the heap figures, the operations tally
/// and `rounds` too, which repeat between counting reps of a simulator
/// (over UDP the heap figures move with poll timing).
pub fn same_counts(what: &str, first: &Rep, rep: &Rep, everything: bool, out: &mut Vec<String>) {
    let mut differ = |name: &str, a: u64, b: u64| {
        if a != b {
            out.push(format!("{what}: {name} is {b}, the counting rep's is {a}"));
        }
    };
    differ("units", first.units, rep.units);
    differ("msgs", first.msgs, rep.msgs);
    differ("bytes", first.bytes, rep.bytes);
    differ("fingerprint", first.fingerprint, rep.fingerprint);
    if everything {
        differ("allocs", first.allocs_work, rep.allocs_work);
        differ("peak heap", first.peak_heap_bytes, rep.peak_heap_bytes);
        differ("attempted", first.attempted, rep.attempted);
        differ("failed", first.failed, rep.failed);
        differ("rounds", first.rounds.to_bits(), rep.rounds.to_bits());
    }
}

/// The share of operations that may fail before the run counts as
/// incorrect: `correct_fraction`'s bound. A handful of failures is a
/// protocol's tail (a root the gossip missed); they are counted, reported
/// and lower `correct_fraction`. More than this is a broken program.
pub const FAILED_SHARE_MAX: f64 = 0.005;

pub fn too_many_failed(attempted: u64, failed: u64, out: &mut Vec<String>) {
    if failed as f64 > FAILED_SHARE_MAX * attempted as f64 {
        out.push(format!("{failed} of {attempted} operations failed"));
    }
}

/// Run `workload` untraced, measuring for `seconds`.
pub fn run(workload: &Workload, seconds: f64, reference: &Reference) -> Run {
    let wall = Instant::now();
    let mut problems = Vec::new();

    let first = counting_rep(workload);
    let (mut setup_s, mut work_s) = (Vec::new(), Vec::new());
    let (mut raw_setup_s, mut raw_work_s, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (first.attempted, first.failed);
    let timed = Instant::now();
    while work_s.len() < 3 || timed.elapsed().as_secs_f64() < seconds {
        let scale = reference.read(&mut Tracer::off()).scale();
        let rep = workload.rep(false, &mut Tracer::off());
        let what = format!("timed rep {}", work_s.len() + 1);
        same_counts(&what, &first, &rep, false, &mut problems);
        attempted += rep.attempted;
        failed += rep.failed;
        setup_s.push(rep.setup_s * scale);
        work_s.push(rep.work_s * scale);
        raw_setup_s.push(rep.setup_s);
        raw_work_s.push(rep.work_s);
        factors.push(1.0 / scale);
    }
    let last = counting_rep(workload);
    same_counts(
        "second counting rep",
        &first,
        &last,
        workload.is_simulator(),
        &mut problems,
    );

    too_many_failed(attempted, failed, &mut problems);
    let nodes = first.nodes as f64;
    let values = [
        median(&setup_s),
        first.units as f64 / median(&work_s),
        first.peak_heap_bytes as f64 / (1u64 << 20) as f64,
        first.allocs_work as f64 / first.units as f64,
        first.msgs as f64 / nodes,
        first.bytes as f64 / nodes,
        first.rounds,
        (first.attempted - first.failed.min(first.attempted)) as f64 / first.attempted as f64,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| (m.name, value, m.unit))
        .collect();
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("{name} is {value}"));
        }
    }
    Run {
        workload: workload.name(),
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics,
        reps: work_s.len(),
        rep_p80_ratio: percentile(&work_s, 80) / median(&work_s),
        rep_iqr_ratio: iqr_ratio(&work_s),
        setup_iqr_ratio: iqr_ratio(&setup_s),
        raw_setup_s: median(&raw_setup_s),
        raw_work_per_s: first.units as f64 / median(&raw_work_s),
        reference_factor: median(&factors),
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// The one JSON object a run ends with.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Print the result line and turn the verdict into the exit code.
pub fn finish(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> std::process::ExitCode {
    println!("{}", result_json(correct, attempted, failed, metrics));
    if correct {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

/// The lines a reader sees before the JSON: every metric by name with its
/// unit, and the noise next to the numbers.
pub fn print_run(run: &Run, unit_of_work: &str) {
    println!(
        "{}: {} timed reps, measured section p80/median {:.3}, quartile distance/median {:.3} \
         (set-up section {:.3}); unit of work: {}; run took {:.1} s",
        run.workload,
        run.reps,
        run.rep_p80_ratio,
        run.rep_iqr_ratio,
        run.setup_iqr_ratio,
        unit_of_work,
        run.wall_s
    );
    for (name, value, unit) in &run.metrics {
        println!("  {name} = {value} {unit}");
    }
    println!(
        "  as the clock read them, unscaled: setup_s = {} s, work_per_s = {} 1/s; reference \
         reading / nominal = {:.3}",
        run.raw_setup_s, run.raw_work_per_s, run.reference_factor
    );
    for problem in &run.problems {
        println!("  INCORRECT: {problem}");
    }
}
