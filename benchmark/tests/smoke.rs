//! Smoke test: all four workloads at toy size, untraced and traced, and
//! the checked-in `BENCHMARK.json` held against what the binary declares
//! and emits.

use std::path::Path;
use std::process::Command;

const BINARY: &str = env!("CARGO_BIN_EXE_gossip-benchmark");

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BINARY)
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

/// `(name, unit)` of every object in the array called `section`. The file
/// is the benchmark's own output format: one object per line.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let (_, rest) = json
        .split_once(&format!("\"{section}\": ["))
        .expect("the section exists");
    let (array, _) = rest.split_once(']').expect("the array ends");
    array
        .split("{\"name\": \"")
        .skip(1)
        .map(|object| {
            let (name, rest) = object.split_once('"').expect("the name ends");
            let unit = rest
                .split_once("\"unit\": \"")
                .and_then(|(_, r)| r.split_once('"'))
                .map_or(String::new(), |(unit, _)| unit.to_string());
            (name.to_string(), unit)
        })
        .collect()
}

/// `(name, value, unit)` of every metric in a result line.
fn emitted(line: &str) -> Vec<(String, f64, String)> {
    let (_, mut rest) = line
        .split_once("\"metrics\": {")
        .expect("the result has metrics");
    let mut out = Vec::new();
    while let Some((head, tail)) = rest.split_once("\": {\"value\": ") {
        let (_, name) = head.rsplit_once('"').expect("the name opens");
        let (value, tail) = tail.split_once(", \"unit\": \"").expect("a unit follows");
        let (unit, tail) = tail.split_once("\"}").expect("the unit ends");
        out.push((
            name.to_string(),
            value.parse().expect("a number"),
            unit.to_string(),
        ));
        rest = tail;
    }
    out
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every declared metric is emitted once, with its unit and a finite
/// value, and nothing else is.
fn same_metrics(declared: &[(String, String)], line: &str, what: &str) {
    let emitted = emitted(line);
    let names: Vec<&String> = emitted.iter().map(|(name, _, _)| name).collect();
    let want: Vec<&String> = declared.iter().map(|(name, _)| name).collect();
    assert_eq!(names, want, "{what}: the metrics emitted, in order");
    for ((name, value, unit), (_, declared_unit)) in emitted.iter().zip(declared) {
        assert!(well_formed(name), "{what}: name {name}");
        assert!(
            !unit.is_empty() && unit == declared_unit,
            "{what}: {name}'s unit {unit}"
        );
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
}

#[test]
fn benchmark_json_is_what_the_binary_declares() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let checked_in = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let (ok, described) = run(&["--describe"]);
    assert!(ok);
    assert_eq!(
        checked_in, described,
        "regenerate with `gossip-benchmark --describe > BENCHMARK.json`"
    );
    assert_eq!(declared(&described, "workloads").len(), 4);
    assert_eq!(declared(&described, "end_to_end").len(), 8);
    assert!(declared(&described, "end_to_end").contains(&("setup_s".into(), "s".into())));
    let layers = declared(&described, "per_layer");
    assert!(layers.len() <= 128);
    let mut names: Vec<&String> = layers.iter().map(|(name, _)| name).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), layers.len(), "a per-layer name is used once");
}

#[test]
fn every_workload_emits_every_metric_at_toy_size() {
    let (_, described) = run(&["--describe"]);
    let end_to_end = declared(&described, "end_to_end");
    let per_layer = declared(&described, "per_layer");
    let spans_dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (workload, _) in declared(&described, "workloads") {
        assert!(well_formed(&workload));
        for trace in ["0", "1"] {
            let spans = spans_dir.join(format!("spans-{workload}.jsonl"));
            let spans = spans.to_str().expect("a UTF-8 path");
            let (ok, out) = run(&[
                "--workload",
                &workload,
                "--seed",
                "11",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--toy",
                "--spans",
                spans,
            ]);
            let what = format!("{workload} --trace {trace}");
            assert!(ok, "{what} failed:\n{out}");
            let line = out.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ")
                    && line.contains(", \"failed\": 0, \"metrics\": {"),
                "{what}: {line}"
            );
            if trace == "0" {
                same_metrics(&end_to_end, line, &what);
                for (name, value, _) in emitted(line) {
                    assert!(value > 0.0, "{what}: {name} = {value}");
                }
            } else {
                same_metrics(&per_layer, line, &what);
                let written = std::fs::read_to_string(spans).expect("the spans were written");
                assert!(written.lines().count() > 10);
                assert!(written
                    .lines()
                    .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "paper-chain", "--trace", "2"][..],
        &[][..],
    ] {
        let (ok, out) = run(args);
        assert!(!ok && !out.contains("\"metrics\""), "{args:?}: {out}");
    }
}

#[test]
fn self_check_compares_every_metric_on_every_workload() {
    // Two runs of a few milliseconds say nothing about the box; only the
    // shape of the report and the exact counts are checked here.
    let (_, out) = run(&["--selfcheck", "--toy", "--seconds", "0.05", "--passes", "1"]);
    let rows = out.lines().filter(|l| l.starts_with("| ")).count();
    assert_eq!(rows, 2 + 4 * 8, "{out}");
    assert_eq!(
        out.matches("identical in all passes").count(),
        4 * 6,
        "{out}"
    );
}
