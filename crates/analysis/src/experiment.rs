//! Multi-trial experiment runner.
//!
//! Every experiment in the harness has the same shape: sweep the network
//! size `n` over a range, run `trials` independent simulations per size
//! (different seeds), measure one or more scalar quantities per run, and
//! summarise. [`Sweep`] drives that loop, fanning the independent trials
//! out over [`SweepRunner`] (so the output does not depend on the worker
//! count), and [`SweepResult`] holds the per-size summaries ready
//! for fitting ([`crate::fit`]) and rendering ([`crate::table`]).

use crate::stats::Summary;
use gossip_runtime::SweepRunner;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One measured sample: named scalar observations from a single trial.
pub type Observation = Vec<(String, f64)>;

/// A sweep over network sizes with repeated trials per size.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sweep {
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Trials (independent seeds) per size.
    pub trials: u64,
    /// Base seed; trial `t` at size index `i` uses seed
    /// `base_seed + 1000·i + t`.
    pub base_seed: u64,
}

impl Sweep {
    /// A sweep over powers of two `2^lo ..= 2^hi`.
    pub fn powers_of_two(lo: u32, hi: u32, trials: u64) -> Self {
        assert!(lo <= hi, "invalid exponent range");
        Sweep {
            sizes: (lo..=hi).map(|e| 1usize << e).collect(),
            trials: trials.max(1),
            base_seed: 0xD0_5EED,
        }
    }

    /// A sweep over an explicit list of sizes.
    pub fn over(sizes: Vec<usize>, trials: u64) -> Self {
        assert!(!sizes.is_empty(), "sweep needs at least one size");
        Sweep {
            sizes,
            trials: trials.max(1),
            base_seed: 0xD0_5EED,
        }
    }

    /// Use a different base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Run the sweep. `run_trial(n, seed)` performs one simulation and
    /// returns named measurements; trials run in parallel.
    pub fn run<F>(&self, run_trial: F) -> SweepResult
    where
        F: Fn(usize, u64) -> Observation + Sync,
    {
        let runner = SweepRunner::new();
        let mut points = Vec::with_capacity(self.sizes.len());
        for (i, &n) in self.sizes.iter().enumerate() {
            let seeds: Vec<u64> = (0..self.trials)
                .map(|t| self.base_seed + 1000 * i as u64 + t)
                .collect();
            let observations = runner.run(&seeds, |&seed| run_trial(n, seed));
            let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for obs in observations {
                for (name, value) in obs {
                    by_metric.entry(name).or_default().push(value);
                }
            }
            let metrics = by_metric
                .into_iter()
                .map(|(name, samples)| (name, Summary::of(&samples)))
                .collect();
            points.push(SweepPoint { n, metrics });
        }
        SweepResult { points }
    }
}

/// Per-size summaries of every measured metric.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Network size.
    pub n: usize,
    /// Summary per metric name.
    pub metrics: BTreeMap<String, Summary>,
}

/// The result of running a [`Sweep`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// One point per swept size, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The `(n, mean)` series of a metric, ready for model fitting.
    pub fn series(&self, metric: &str) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| p.metrics.get(metric).map(|s| (p.n as f64, s.mean)))
            .collect()
    }

    /// The summary of a metric at a given size, if measured.
    pub fn at(&self, n: usize, metric: &str) -> Option<&Summary> {
        self.points
            .iter()
            .find(|p| p.n == n)
            .and_then(|p| p.metrics.get(metric))
    }

    /// Names of all measured metrics (sorted).
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .points
            .iter()
            .flat_map(|p| p.metrics.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Serialise to pretty JSON (for EXPERIMENTS.md appendices and archival).
    ///
    /// The JSON is written by hand: the offline build's `serde` stand-in has
    /// no real serialisation backend, and the shape of a sweep result is
    /// fixed, so a direct writer is both dependency-free and stable.
    pub fn to_json(&self) -> String {
        fn num(x: f64) -> String {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::from("{\n  \"points\": [\n");
        for (pi, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"n\": {},\n      \"metrics\": {{\n",
                p.n
            ));
            for (mi, (name, s)) in p.metrics.iter().enumerate() {
                out.push_str(&format!(
                    "        {:?}: {{ \"count\": {}, \"mean\": {}, \"std_dev\": {}, \"min\": {}, \"max\": {}, \"median\": {}, \"p10\": {}, \"p90\": {} }}{}\n",
                    name,
                    s.count,
                    num(s.mean),
                    num(s.std_dev),
                    num(s.min),
                    num(s.max),
                    num(s.median),
                    num(s.p10),
                    num(s.p90),
                    if mi + 1 < p.metrics.len() { "," } else { "" },
                ));
            }
            out.push_str("      }\n    }");
            out.push_str(if pi + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_trial(n: usize, seed: u64) -> Observation {
        // messages ~ 3 n log2 n with small seed-dependent jitter; rounds ~ log2 n
        let n_f = n as f64;
        let jitter = 1.0 + ((seed % 7) as f64 - 3.0) * 0.01;
        vec![
            ("messages".to_string(), 3.0 * n_f * n_f.log2() * jitter),
            ("rounds".to_string(), n_f.log2()),
        ]
    }

    #[test]
    fn sweep_runs_all_sizes_and_metrics() {
        let sweep = Sweep::powers_of_two(6, 9, 5);
        let result = sweep.run(fake_trial);
        assert_eq!(result.points.len(), 4);
        assert_eq!(result.metric_names(), vec!["messages", "rounds"]);
        for p in &result.points {
            assert_eq!(p.metrics["messages"].count, 5);
        }
    }

    #[test]
    fn series_is_ordered_by_sweep_and_usable_for_fitting() {
        let sweep = Sweep::powers_of_two(6, 10, 3);
        let result = sweep.run(fake_trial);
        let series = result.series("messages");
        assert_eq!(series.len(), 5);
        assert!(series.windows(2).all(|w| w[0].0 < w[1].0));
        let best = crate::fit::best_fit(&series, &crate::fit::ComplexityModel::MESSAGE_MODELS);
        assert_eq!(best.model, crate::fit::ComplexityModel::NLogN);
    }

    #[test]
    fn at_finds_specific_points() {
        let sweep = Sweep::over(vec![100, 200], 2);
        let result = sweep.run(fake_trial);
        assert!(result.at(100, "rounds").is_some());
        assert!(result.at(100, "bogus").is_none());
        assert!(result.at(999, "rounds").is_none());
    }

    #[test]
    fn deterministic_given_base_seed() {
        let sweep = Sweep::powers_of_two(6, 8, 4).with_base_seed(7);
        let a = sweep.run(fake_trial);
        let b = sweep.run(fake_trial);
        assert_eq!(a, b);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let sweep = Sweep::over(vec![64], 2);
        let result = sweep.run(fake_trial);
        let json = result.to_json();
        // Structural checks in lieu of a parser: balanced delimiters, one
        // object per point, every metric name present.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"n\": 64"));
        for name in result.metric_names() {
            assert!(json.contains(&format!("{name:?}")), "missing {name}");
        }
        assert!(json.contains("\"mean\""));
        assert!(!json.contains("NaN"), "non-finite values must map to null");
    }

    #[test]
    #[should_panic(expected = "at least one size")]
    fn empty_sweep_rejected() {
        let _ = Sweep::over(vec![], 3);
    }
}
