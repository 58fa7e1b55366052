//! `BENCHMARK.json`, generated from the tables the benchmark runs on, so
//! the file at the root of the repo cannot drift from the binary: the
//! smoke test holds them equal byte for byte.

use crate::harness::END_TO_END;
use crate::trace::{HIGHER_IS_BETTER, PER_LAYER};
use crate::workloads::{NAMES, WHYS};

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 25;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = NAMES
        .iter()
        .zip(WHYS)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let better = if HIGHER_IS_BETTER.contains(&name) {
                "higher"
            } else {
                "lower"
            };
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  \
         ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
