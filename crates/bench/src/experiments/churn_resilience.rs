//! E15 — Churn resilience of DRR-gossip and push-sum.
//!
//! The paper's failure model stops at start-time crashes and i.i.d. message
//! loss. This experiment runs the full DRR-gossip-max / DRR-gossip-ave
//! pipelines and the push-sum baseline under **ongoing churn** (nodes crash
//! mid-run at per-round rates up to 2% and may rejoin) with log-normal
//! message latency, on both backends:
//!
//! * `sync` — the synchronous `Network`, whose closest analogue is folding
//!   the whole churn budget into start-time crashes;
//! * `async` — the discrete-event `ShardedTransport`, where crashes
//!   interleave with message deliveries in virtual time.
//!
//! Reported per configuration: the informed fraction (alive nodes holding a
//! finite estimate), the stale fraction (alive-but-uninformed rejoiners —
//! the gap E17's anti-entropy layer closes), the consensus among informed
//! nodes (plurality share for Max, deviation from the median estimate for
//! Ave/push-sum — see `judge`), rounds, messages, and the virtual completion time on the
//! asynchronous backend. Trials fan out over all cores via [`SweepRunner`].

use super::ExperimentOptions;
use gossip_analysis::{fmt_mean_or_dash, Table};
use gossip_baselines::{push_sum_average, PushSumConfig};
use gossip_drr::protocol::{drr_gossip_ave, drr_gossip_max, DrrGossipConfig, DrrGossipReport};
use gossip_net::{Network, SimConfig, Transport};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedTransport, SweepRunner};

/// Per-round crash rates swept by the experiment (rejoin rate is 10×).
const CHURN_RATES: [f64; 4] = [0.0, 0.005, 0.01, 0.02];

fn values(n: usize, seed: u64) -> Vec<f64> {
    gossip_aggregate::ValueDistribution::Uniform {
        lo: 0.0,
        hi: 10_000.0,
    }
    .generate(n, seed ^ 0xc0ffee)
}

fn async_config(n: usize, seed: u64, crash_rate: f64) -> AsyncConfig {
    AsyncConfig::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(0.02)
            .with_value_range(10_000.0),
    )
    .with_latency(LatencyModel::LogNormal {
        median_us: 1_000.0,
        sigma: 0.7,
    })
    .with_link_spread(0.2)
    .with_churn(ChurnModel::per_round(crash_rate, 0.1).with_min_alive(n / 2))
}

/// The synchronous stand-in for a churn rate: the expected total crash mass
/// over an `O(log n)`-round run, applied at start time.
fn sync_config(n: usize, seed: u64, crash_rate: f64) -> SimConfig {
    let expected_rounds = 4.0 * f64::from(gossip_net::id_bits(n));
    let total = (1.0 - (1.0 - crash_rate).powf(expected_rounds)).min(0.5);
    SimConfig::new(n)
        .with_seed(seed)
        .with_loss_prob(0.02)
        .with_initial_crash_prob(total)
        .with_value_range(10_000.0)
}

struct TrialOutcome {
    informed_fraction: f64,
    /// Alive-but-uninformed share of the final population ([`NodeStatus::Stale`]
    /// rejoiners the one-shot protocol left behind — what E17's anti-entropy
    /// layer re-syncs).
    stale_fraction: f64,
    consensus: f64,
    rounds: f64,
    messages: f64,
    virtual_ms: f64,
}

/// `(informed fraction, consensus)` over the final alive population.
///
/// Consensus is deliberately *not* "fraction equal to `report.exact`":
/// under churn the exact aggregate is a moving target (the unique
/// max-holder may crash mid-run, shifting the max over survivors), while
/// what convergence promises is that the informed nodes **agree**. For
/// exact protocols (Max) consensus is the plurality share of bit-identical
/// estimates; for approximate ones (Ave) it is the share of estimates
/// within 1% of the median informed estimate (a single garbage outlier —
/// e.g. a rejoined root with near-zero push-sum weight — must not zero the
/// whole metric).
fn judge(report: &DrrGossipReport, exact_protocol: bool) -> (f64, f64) {
    let informed: Vec<f64> = report
        .estimates
        .iter()
        .zip(&report.alive)
        .filter(|(e, &a)| a && e.is_finite())
        .map(|(&e, _)| e)
        .collect();
    let alive = report.alive.iter().filter(|&&a| a).count().max(1);
    let informed_fraction = informed.len() as f64 / alive as f64;
    let consensus = consensus_of(&informed, exact_protocol);
    (informed_fraction, consensus)
}

fn consensus_of(informed: &[f64], exact_protocol: bool) -> f64 {
    if informed.is_empty() {
        return 0.0;
    }
    if exact_protocol {
        let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for &e in informed {
            *counts.entry(e.to_bits()).or_default() += 1;
        }
        let plurality = counts.values().copied().max().unwrap_or(0);
        plurality as f64 / informed.len() as f64
    } else {
        let mut sorted = informed.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
        let median = sorted[sorted.len() / 2];
        let close = sorted
            .iter()
            .filter(|&&e| gossip_aggregate::relative_error(e, median) <= 0.01)
            .count();
        close as f64 / informed.len() as f64
    }
}

fn run_protocol<T: Transport>(
    net: &mut T,
    protocol: &str,
    vals: &[f64],
) -> (f64, f64, f64, f64, f64) {
    match protocol {
        "drr-max" => {
            let report = drr_gossip_max(net, vals, &DrrGossipConfig::paper());
            let (i, a) = judge(&report, true);
            (
                i,
                report.fraction_stale(),
                a,
                report.total_rounds as f64,
                report.total_messages as f64,
            )
        }
        "drr-ave" => {
            let report = drr_gossip_ave(net, vals, &DrrGossipConfig::paper());
            let (i, a) = judge(&report, false);
            (
                i,
                report.fraction_stale(),
                a,
                report.total_rounds as f64,
                report.total_messages as f64,
            )
        }
        "push-sum" => {
            let out = push_sum_average(net, vals, &PushSumConfig::default());
            let informed: Vec<f64> = out
                .estimates
                .iter()
                .filter(|e| e.is_finite())
                .copied()
                .collect();
            // Same denominator as judge(): the final alive population, so
            // the "informed frac" column is comparable across protocols.
            let alive = net.alive_count().max(1);
            let informed_fraction = informed.len() as f64 / alive as f64;
            (
                informed_fraction,
                // Stale frac is NOT comparable for push-sum: a rejoiner keeps
                // its finite pre-crash sum/weight (frozen, wrong — but never
                // NaN), so the liveness-based Stale classification cannot see
                // it. Reported as NaN and rendered "—" (see the table note);
                // the consensus column is where push-sum's frozen rejoiners
                // show up.
                f64::NAN,
                consensus_of(&informed, false),
                out.rounds as f64,
                out.messages as f64,
            )
        }
        other => unreachable!("unknown protocol {other}"),
    }
}

fn one_trial(backend: &str, protocol: &str, n: usize, seed: u64, crash_rate: f64) -> TrialOutcome {
    let vals = values(n, seed);
    match backend {
        "sync" => {
            let mut net = Network::new(sync_config(n, seed, crash_rate));
            let (informed_fraction, stale_fraction, consensus, rounds, messages) =
                run_protocol(&mut net, protocol, &vals);
            TrialOutcome {
                informed_fraction,
                stale_fraction,
                consensus,
                rounds,
                messages,
                virtual_ms: f64::NAN,
            }
        }
        "async" => {
            // One shard per trial: the sweep already fans trials out over
            // the cores.
            let mut engine = ShardedTransport::new(async_config(n, seed, crash_rate), 1);
            let (informed_fraction, stale_fraction, consensus, rounds, messages) =
                run_protocol(&mut engine, protocol, &vals);
            TrialOutcome {
                informed_fraction,
                stale_fraction,
                consensus,
                rounds,
                messages,
                virtual_ms: engine.now_us() as f64 / 1_000.0,
            }
        }
        other => unreachable!("unknown backend {other}"),
    }
}

/// Run E15.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let n = options.showcase_n();
    let seeds = SweepRunner::trial_seeds(0xC4_0A11, options.trials() as usize);
    let runner = SweepRunner::new();
    let mut tables = Vec::new();
    for protocol in ["drr-max", "drr-ave", "push-sum"] {
        let mut table = Table::new(
            format!("E15 — {protocol} under churn (n = {n}, log-normal latency, rejoin = 10×)"),
            &[
                "backend",
                "crash/round",
                "informed frac",
                "stale frac",
                "consensus",
                "rounds",
                "messages",
                "virtual ms",
            ],
        );
        for backend in ["sync", "async"] {
            let grid: Vec<f64> = CHURN_RATES.to_vec();
            let outcomes = runner.run_grid(&grid, &seeds, |&crash_rate, seed| {
                one_trial(backend, protocol, n, seed, crash_rate)
            });
            for (ci, &crash_rate) in grid.iter().enumerate() {
                let cell = &outcomes[ci * seeds.len()..(ci + 1) * seeds.len()];
                // NaN is the not-computable sentinel (push-sum's stale frac,
                // sync's virtual ms); fmt_mean_or_dash renders it "—".
                let mean = |f: &dyn Fn(&TrialOutcome) -> f64| fmt_mean_or_dash(cell.iter().map(f));
                table.push_row(vec![
                    backend.to_string(),
                    format!("{:.1}%", crash_rate * 100.0),
                    mean(&|t| t.informed_fraction),
                    mean(&|t| t.stale_fraction),
                    mean(&|t| t.consensus),
                    mean(&|t| t.rounds),
                    mean(&|t| t.messages),
                    mean(&|t| t.virtual_ms),
                ]);
            }
        }
        table.push_note(
            "sync folds the expected churn mass into start-time crashes; async applies it mid-run \
             (crashes interleave with deliveries in virtual time)",
        );
        table.push_note(
            "consensus: plurality share of bit-identical estimates for drr-max; share of \
             estimates within 1% of the median for drr-ave/push-sum (informed nodes only)",
        );
        table.push_note(
            "stale frac: alive-but-uninformed share of the final population (rejoiners the \
             one-shot run left behind) — the staleness E17's anti-entropy layer repairs; \
             not computable for push-sum, whose rejoiners keep frozen (finite but wrong) \
             pre-crash state that surfaces in the consensus column instead",
        );
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_table_per_protocol_with_all_rows() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.num_rows(), 2 * CHURN_RATES.len());
        }
        // The NaN sentinels flow end-to-end into a rendered "—", never a
        // "nan" cell or a fake measured zero: push-sum's stale frac (every
        // row) and the sync backend's virtual ms.
        let push_sum = tables[2].render();
        assert!(
            push_sum.contains('—'),
            "push-sum stale frac must render as a dash:\n{push_sum}"
        );
        assert!(
            !push_sum.contains("nan"),
            "no NaN may leak into a rendered cell:\n{push_sum}"
        );
    }

    #[test]
    fn async_backend_converges_at_one_percent_churn() {
        let out = one_trial("async", "drr-max", 1 << 10, 7, 0.01);
        assert!(
            out.informed_fraction > 0.6,
            "informed = {}",
            out.informed_fraction
        );
        assert!(out.consensus > 0.9, "consensus = {}", out.consensus);
        assert!(out.virtual_ms > 0.0);
    }
}
