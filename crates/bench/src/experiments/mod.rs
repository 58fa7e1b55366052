//! Experiment registry and shared options.
//!
//! Each submodule reproduces one table/figure/theorem of the paper or
//! measures one runtime layer; [`EXPERIMENTS`] is the index, which
//! `experiments --list` prints and `EXPERIMENTS.md` follows.

pub mod ablation_probe;
pub mod ablation_sampling;
pub mod anti_entropy;
pub mod chord;
pub mod churn_resilience;
pub mod digest_scaling;
pub mod drr_phase;
pub mod engine_scaling;
pub mod gossip_ave_exp;
pub mod gossip_max_exp;
pub mod latency_tail;
pub mod loopback_cluster;
pub mod lower_bound;
pub mod membership;
pub mod phase_breakdown;
pub mod rumor_exp;
pub mod soak;
pub mod table1;

use gossip_analysis::Table;

/// Options shared by every experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Use smaller sweeps and fewer trials (for smoke tests / CI).
    pub quick: bool,
    /// Emit Markdown tables instead of plain text.
    pub markdown: bool,
}

impl ExperimentOptions {
    /// Network sizes for message/round scaling sweeps.
    pub(crate) fn scaling_sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![1 << 8, 1 << 9, 1 << 10, 1 << 11]
        } else {
            vec![1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14]
        }
    }

    /// Network sizes for the more expensive sparse-network sweeps.
    pub(crate) fn sparse_sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![1 << 8, 1 << 9, 1 << 10]
        } else {
            vec![1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13]
        }
    }

    /// Trials per configuration.
    pub fn trials(&self) -> u64 {
        if self.quick {
            3
        } else {
            10
        }
    }

    /// A single "showcase" size used by non-sweep experiments.
    pub(crate) fn showcase_n(&self) -> usize {
        if self.quick {
            1 << 10
        } else {
            1 << 13
        }
    }
}

/// `(name, description, runner)` for every experiment.
pub(crate) type ExperimentEntry = (
    &'static str,
    &'static str,
    fn(&ExperimentOptions) -> Vec<Table>,
);

/// The experiment registry, in id order (E1–E22).
pub const EXPERIMENTS: &[ExperimentEntry] = &[
    (
        "table1",
        "E1: Table 1 — DRR-gossip vs uniform gossip vs efficient gossip (time & messages)",
        table1::run,
    ),
    (
        "drr-phase",
        "E2–E4: DRR forest shape (tree count, tree size) and DRR phase cost",
        drr_phase::run,
    ),
    (
        "gossip-max",
        "E5: Gossip-max coverage after the gossip and sampling procedures (Theorems 5–6)",
        gossip_max_exp::run,
    ),
    (
        "gossip-ave",
        "E6: Gossip-ave relative error at the largest-tree root (Theorem 7)",
        gossip_ave_exp::run,
    ),
    (
        "local-drr",
        "E7–E8: Local-DRR tree heights and tree counts on sparse graphs (Theorems 11, 13)",
        drr_phase::run_local,
    ),
    (
        "chord",
        "E9: DRR-gossip vs uniform gossip on Chord (Theorem 14)",
        chord::run,
    ),
    (
        "lower-bound",
        "E10: address-oblivious Ω(n log n) lower bound, empirically (Theorem 15)",
        lower_bound::run,
    ),
    (
        "rumor",
        "E11: rumor spreading vs aggregation message complexity (Karp et al. reference)",
        rumor_exp::run,
    ),
    (
        "phase-breakdown",
        "E12: per-phase message breakdown of DRR-gossip",
        phase_breakdown::run,
    ),
    (
        "probe-ablation",
        "E13: ablation of the DRR probe budget (log n − 1)",
        ablation_probe::run,
    ),
    (
        "sampling-ablation",
        "E14: ablation of the Gossip-max sampling procedure",
        ablation_sampling::run,
    ),
    (
        "churn_resilience",
        "E15: DRR-gossip & push-sum under ongoing churn + log-normal latency (async engine)",
        churn_resilience::run,
    ),
    (
        "latency_tail",
        "E16: virtual-time cost of latency tails under the round barrier (async engine)",
        latency_tail::run,
    ),
    (
        "anti_entropy",
        "E17: continuous anti-entropy aggregation — staleness & rejoin recovery vs churn \
         (event-driven runtime)",
        anti_entropy::run,
    ),
    (
        "engine_scaling",
        "E18: sharded event engine — events/sec, peak RSS and wall-clock vs n (up to 10^7) \
         and shard count, plus the DRR chain on the round-barrier facade",
        engine_scaling::run,
    ),
    (
        "loopback_cluster",
        "E19: real UDP loopback cluster vs the simulator's prediction — convergence time and \
         bytes on the wire (gossip-node)",
        loopback_cluster::run,
    ),
    (
        "digest_scaling",
        "E20: dense vs Merkle anti-entropy digests — per-exchange bytes vs n (up to 10^5) and \
         steady-state traffic + rejoin recovery under churn (gossip-ae)",
        digest_scaling::run,
    ),
    (
        "membership",
        "E21: SWIM failure detection — detection latency and false-positive rate vs probe \
         period × loss × n, sim vs socket (gossip-member)",
        membership::run,
    ),
    (
        "soak",
        "E22: drift-asserting soak — hours-equivalent churned run of SWIM + Merkle \
         anti-entropy with causal tracing; occupancy gauges, counter rates and peak RSS \
         asserted flat (sim + loopback)",
        soak::run,
    ),
];

/// Run one experiment by name; returns `None` for an unknown name.
pub fn run_experiment(name: &str, options: &ExperimentOptions) -> Option<Vec<Table>> {
    EXPERIMENTS
        .iter()
        .find(|(id, _, _)| *id == name)
        .map(|(_, _, runner)| runner(options))
}

/// Reset the process peak-RSS high-water mark (Linux: `/proc/self/clear_refs`),
/// so each measurement reports its own footprint rather than the largest
/// earlier one's. Best-effort — a no-op where procfs is absent.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current peak RSS (`VmHWM`) in MiB, `None` where procfs is absent.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let names: std::collections::HashSet<&str> =
            EXPERIMENTS.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("nope", &ExperimentOptions::default()).is_none());
    }

    #[test]
    fn quick_options_are_smaller() {
        let quick = ExperimentOptions {
            quick: true,
            markdown: false,
        };
        let full = ExperimentOptions::default();
        assert!(quick.scaling_sizes().len() < full.scaling_sizes().len());
        assert!(quick.trials() < full.trials());
        assert!(quick.showcase_n() < full.showcase_n());
    }
}
