//! E18 — Event-engine scaling: the sharded driver at n up to 10⁷, and the
//! round-barrier facade under the full DRR-gossip chain.
//!
//! The [`ShardedDriver`] partitions the node space into per-shard calendar
//! queues and payload arenas with struct-of-arrays node state and
//! per-node RNG streams (see `gossip_runtime::shard`). This experiment
//! measures it as raw event throughput and as peak memory: an
//! interval-gossip workload ([`MaxGossipHandler`], one push per node per
//! tick) under mid-run churn at S ∈ {1, 2, 8} shards, reporting
//! dispatched events, wall-clock time, events/second, peak RSS and the
//! dispatch-order hash. The hash column is an *assertion*, not
//! decoration: the run aborts if any shard count disagrees at any n — the
//! determinism contract checked at scale.
//!
//! A second table runs the paper's full Algorithm 7 chain
//! (`drr_gossip_max`: DRR → convergecast → broadcast → gossip → spread)
//! on [`ShardedTransport`] — the round-barrier face of the same network
//! model — and asserts the runs are bit-identical across the `shards`
//! argument (estimates, rounds, messages, liveness) while reporting what
//! the chain costs in wall-clock and memory. The facade queues nothing and
//! the argument partitions nothing, so the two rows of one n do the same
//! work; both stay so that the table keeps saying so.

use super::ExperimentOptions;
use gossip_analysis::{fmt_float, Table};
use gossip_drr::handler::{MaxGossipConfig, MaxGossipHandler};
use gossip_drr::protocol::{drr_gossip_max, DrrGossipConfig, DrrGossipReport};
use gossip_net::{NodeId, SimConfig};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver, ShardedTransport};
use std::time::Instant;

/// Shard counts swept.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Virtual horizon of one run (µs): 10 push intervals — enough ticks that
/// steady-state dispatch dominates setup.
const HORIZON_US: u64 = 10_000;

fn engine_config(n: usize, seed: u64) -> AsyncConfig {
    AsyncConfig::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(0.01)
            .with_value_range(100_000.0),
    )
    // A healthy latency floor gives the sharded driver a 500 µs
    // cross-shard lookahead (the bounded-lag epoch).
    .with_latency(LatencyModel::Uniform {
        lo_us: 500,
        hi_us: 1_500,
    })
    // Mid-run churn keeps the crash/rejoin machinery in the measured
    // path — the scaling claim covers the full engine, not a quiet one.
    .with_churn(ChurnModel::per_round(0.002, 0.05).with_min_alive(n / 2))
}

fn handler_config(n: usize) -> MaxGossipConfig {
    let sim = SimConfig::new(n);
    MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        ..MaxGossipConfig::default()
    }
}

fn own_value(me: NodeId) -> f64 {
    ((me.index() as u64).wrapping_mul(0x9E37_79B9) % 1_000_003) as f64
}

/// Reset the process peak-RSS high-water mark (Linux: `/proc/self/clear_refs`),
/// so each measurement reports its own footprint rather than the largest
/// earlier row's. Best-effort — a no-op where procfs is absent.
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

fn rss_cell(rss: Option<f64>) -> String {
    rss.map(fmt_float).unwrap_or_else(|| "n/a".to_string())
}

struct Measurement {
    events: u64,
    wall_s: f64,
    peak_rss_mib: Option<f64>,
    order_hash: u64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }
}

fn run_sharded(n: usize, seed: u64, shards: usize) -> Measurement {
    reset_peak_rss();
    let hc = handler_config(n);
    let mut driver = ShardedDriver::new(engine_config(n, seed), shards, move |me| {
        MaxGossipHandler::new(me, own_value(me), hc)
    });
    let started = Instant::now();
    driver.run_until(HORIZON_US);
    let wall_s = started.elapsed().as_secs_f64();
    Measurement {
        events: driver.events_dispatched(),
        wall_s,
        peak_rss_mib: peak_rss_mib(),
        order_hash: driver.order_hash(),
    }
}

/// One `drr_gossip_max` chain run: the protocol outcome plus its cost.
struct ChainRun {
    report: DrrGossipReport,
    wall_s: f64,
    peak_rss_mib: Option<f64>,
}

/// Everything the chain can diverge on, compared bit for bit.
fn chain_fingerprint(report: &DrrGossipReport) -> (Vec<u64>, u64, u64, Vec<bool>) {
    let bits = report.estimates.iter().map(|e| e.to_bits()).collect();
    (
        bits,
        report.total_rounds,
        report.total_messages,
        report.alive.clone(),
    )
}

fn run_chain_facade(n: usize, seed: u64, shards: usize) -> ChainRun {
    reset_peak_rss();
    let vals: Vec<f64> = (0..n).map(|i| own_value(NodeId::new(i))).collect();
    let mut facade = ShardedTransport::new(engine_config(n, seed), shards);
    let started = Instant::now();
    let report = drr_gossip_max(&mut facade, &vals, &DrrGossipConfig::paper());
    ChainRun {
        report,
        wall_s: started.elapsed().as_secs_f64(),
        peak_rss_mib: peak_rss_mib(),
    }
}

fn chain_row(n: usize, backend: &str, run: &ChainRun) -> Vec<String> {
    vec![
        n.to_string(),
        backend.to_string(),
        run.report.total_rounds.to_string(),
        run.report.total_messages.to_string(),
        fmt_float(run.report.fraction_exact()),
        fmt_float(run.wall_s * 1_000.0),
        rss_cell(run.peak_rss_mib),
    ]
}

/// Run E18.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let sizes: Vec<usize> = if options.quick {
        vec![10_000, 100_000]
    } else {
        vec![10_000, 100_000, 1_000_000, 10_000_000]
    };
    let seed = 0xE18;
    let mut table = Table::new(
        format!(
            "E18 — engine scaling under churn: events/sec vs n and shard count ({} virtual ms, \
             1 push/node/ms)",
            HORIZON_US / 1_000
        ),
        &[
            "n",
            "backend",
            "events",
            "wall ms",
            "events/s",
            "peak rss MiB",
            "order hash",
        ],
    );
    for &n in &sizes {
        let mut sharded_hash: Option<u64> = None;
        for &shards in &SHARD_COUNTS {
            let sharded = run_sharded(n, seed, shards);
            // The determinism contract, enforced at scale: every shard
            // count must walk the exact same dispatch schedule.
            let reference = *sharded_hash.get_or_insert(sharded.order_hash);
            assert_eq!(
                reference, sharded.order_hash,
                "order hash diverged across shard counts at n = {n}"
            );
            table.push_row(vec![
                n.to_string(),
                format!("shard={shards}"),
                sharded.events.to_string(),
                fmt_float(sharded.wall_s * 1_000.0),
                fmt_float(sharded.events_per_sec()),
                rss_cell(sharded.peak_rss_mib),
                format!("{:016x}", sharded.order_hash),
            ]);
        }
    }
    table.push_note(
        "shard=S = the sharded driver (per-shard calendar queues + payload arenas, \
         struct-of-arrays node state, per-node RNG streams, batched cross-shard exchange)",
    );
    table.push_note(
        "identical workload at every S (uniform gossip-max, 10 ticks, ~0.2% churn/round), \
         deterministic per seed — only wall-clock and RSS are noisy",
    );
    table.push_note(
        "order hash fingerprints the entire dispatch schedule; equality across the shard=S rows \
         of one n is asserted, not merely reported (peak rss = VmHWM since the row started)",
    );

    // Table 2: the full Algorithm 7 chain on the round-barrier facade,
    // bit-identical across shard counts by assertion.
    let chain_sizes: Vec<usize> = if options.quick {
        vec![100_000]
    } else {
        vec![100_000, 1_000_000]
    };
    let mut chain = Table::new(
        "E18b — full DRR-gossip chain (Algorithm 7) on the round-barrier facade".to_string(),
        &[
            "n",
            "backend",
            "rounds",
            "messages",
            "exact",
            "wall ms",
            "peak rss MiB",
        ],
    );
    for &n in &chain_sizes {
        let mut reference = None;
        for shards in [1usize, 8] {
            let facade = run_chain_facade(n, seed, shards);
            let fingerprint = chain_fingerprint(&facade.report);
            match &reference {
                Some(first) => assert_eq!(
                    first, &fingerprint,
                    "facade at {shards} shard(s) diverged at n = {n}"
                ),
                None => reference = Some(fingerprint),
            }
            chain.push_row(chain_row(n, &format!("facade={shards}"), &facade));
        }
    }
    chain.push_note(
        "facade=S = ShardedTransport built with shards = S; the facade rules on every message \
         at send time and queues nothing, so S partitions nothing and the rows of one n do the \
         same work. estimates, rounds, messages and liveness are asserted bit-identical between \
         all rows of one n",
    );
    chain.push_note(
        "exact = fraction of alive nodes holding the true maximum when the chain ends; the same \
         churny configuration as the scaling table. peak rss has a floor of allocator-retained \
         pages from earlier rows (a VmHWM reset cannot go below current RSS), so in a full run \
         the chain rows inherit the 10⁷ scaling rows' retained memory",
    );
    vec![table, chain]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_the_full_grid() {
        // The smallest meaningful instance: table shape and sane cells, not
        // timing claims (wall-clock asserts would flake on loaded CI).
        let sharded = run_sharded(2_000, 7, 4);
        assert!(sharded.events > 2_000 * 9, "10 ticks dispatch ≥ 9 per node");
        assert!(sharded.events_per_sec() > 0.0);
        assert_eq!(
            sharded.order_hash,
            run_sharded(2_000, 7, 2).order_hash,
            "shard counts must agree"
        );
    }

    #[test]
    fn peak_rss_probe_reports_on_linux() {
        // The CI smoke step greps the RSS column; on Linux the probe must
        // actually produce numbers, not silently fall back to n/a.
        reset_peak_rss();
        let rss = peak_rss_mib();
        if cfg!(target_os = "linux") {
            assert!(rss.is_some(), "VmHWM missing from /proc/self/status");
            assert!(rss.unwrap() > 0.0);
        }
    }

    #[test]
    fn drr_chain_is_bit_identical_across_shard_counts() {
        let one = run_chain_facade(3_000, 0xE18B, 1);
        let four = run_chain_facade(3_000, 0xE18B, 4);
        assert_eq!(
            chain_fingerprint(&one.report),
            chain_fingerprint(&four.report),
            "facade at 4 shards diverged from 1 shard"
        );
    }
}
