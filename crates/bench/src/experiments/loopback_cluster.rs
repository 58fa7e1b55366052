//! E19 — the socket host vs the simulator's prediction, on one machine.
//!
//! The same protocol configuration — event-driven uniform gossip-max, one
//! push per node per millisecond — run two ways:
//!
//! * **sim** — `ShardedDriver` (one shard) over the discrete-event engine with a
//!   loopback-shaped latency model (constant 100 µs, no loss), reporting
//!   *virtual* time to convergence and the modelled message/byte totals;
//! * **real** — `gossip-node`'s `Cluster`, round-robin on one thread: n
//!   UDP sockets on 127.0.0.1, real frames, real kernel, reporting
//!   *wall-clock* time to convergence and the bytes actually handed to the
//!   wire.
//!
//! Convergence = every node holds the exact global maximum. The
//! comparison this table is after: does the simulator's prediction of
//! time-to-convergence (in push intervals) and traffic (in messages)
//! match what the deployable node does on a real network stack? Byte
//! columns differ by design — the simulator charges the modelled
//! `id_bits + value_bits` per push, the wire carries a 12-byte frame
//! header plus an 8-byte float — so the table shows both.
//!
//! The real rows are the one place in the harness where wall-clock is the
//! *measured quantity* (everything else treats it as noise); expect a few
//! hundred µs of scheduler jitter per row. Runners that forbid loopback
//! binds get a note instead of rows — the experiment never fails.

use super::ExperimentOptions;
use gossip_analysis::{fmt_float, Table};
use gossip_drr::handler::{MaxGossipConfig, MaxGossipHandler};
use gossip_net::SimConfig;
use gossip_runtime::{AsyncConfig, LatencyModel, ShardedDriver};
use std::time::Duration;

/// One push interval (µs): real milliseconds on the wire, virtual
/// milliseconds in the engine.
const PUSH_INTERVAL_US: u64 = 1_000;

/// Convergence-poll granularity for the simulated run (µs).
const SIM_POLL_US: u64 = 250;

/// Give-up horizon, both clocks.
const HORIZON_US: u64 = 30_000_000;

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 1009) as f64).collect()
}

fn handler_config(n: usize) -> MaxGossipConfig {
    let sim = SimConfig::new(n);
    MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        push_interval_us: PUSH_INTERVAL_US,
    }
}

struct Outcome {
    converge_us: Option<u64>,
    messages: u64,
    bytes: u64,
}

fn run_sim(n: usize, seed: u64) -> Outcome {
    let vals = values(n);
    let exact = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let config = handler_config(n);
    let mut driver = ShardedDriver::new(
        AsyncConfig::new(SimConfig::new(n).with_seed(seed))
            .with_latency(LatencyModel::Constant(100)),
        1,
        move |me| MaxGossipHandler::new(me, vals[me.index()], config),
    );
    let mut converge_us = None;
    while driver.now_us() < HORIZON_US {
        driver.run_for(SIM_POLL_US);
        if driver
            .iter_handlers()
            .all(|(_, h)| h.current_max() == exact)
        {
            converge_us = Some(driver.now_us());
            break;
        }
    }
    let metrics = driver.net_metrics();
    Outcome {
        converge_us,
        messages: metrics.total_messages(),
        bytes: metrics.total_bits() / 8,
    }
}

fn run_real(n: usize, seed: u64) -> std::io::Result<Outcome> {
    let vals = values(n);
    let exact = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let config = handler_config(n);
    let mut cluster = gossip_node::Cluster::bind(n, seed, move |me| {
        MaxGossipHandler::new(me, vals[me.index()], config)
    })?;
    let elapsed = cluster.run_until(Duration::from_micros(HORIZON_US), move |h| {
        h.handler().current_max() == exact
    });
    let totals = cluster.total_stats();
    Ok(Outcome {
        converge_us: elapsed.map(|d| d.as_micros() as u64),
        messages: totals.datagrams_sent,
        bytes: totals.bytes_sent,
    })
}

fn push_outcome(table: &mut Table, n: usize, backend: &str, outcome: &Outcome) {
    table.push_row(vec![
        n.to_string(),
        backend.to_string(),
        outcome
            .converge_us
            .map_or_else(|| "—".to_string(), |us| fmt_float(us as f64 / 1_000.0)),
        outcome.messages.to_string(),
        outcome.bytes.to_string(),
    ]);
}

/// Run E19.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    let sizes: Vec<usize> = if options.quick {
        vec![8, 32]
    } else {
        vec![8, 32, 128]
    };
    let seed = 0xE19;
    let mut table = Table::new(
        format!(
            "E19 — loopback cluster vs simulator: uniform gossip-max to full convergence \
             (1 push/node/{} ms)",
            PUSH_INTERVAL_US / 1_000
        ),
        &["n", "backend", "converge ms", "messages", "bytes"],
    );
    let mut bind_failure = None;
    for &n in &sizes {
        push_outcome(&mut table, n, "sim", &run_sim(n, seed));
        match run_real(n, seed) {
            Ok(outcome) => push_outcome(&mut table, n, "real", &outcome),
            Err(e) => {
                bind_failure = Some(e);
                break;
            }
        }
    }
    table.push_note(
        "sim = ShardedDriver, constant 100 µs latency, virtual ms + modelled bytes \
         (id_bits + value_bits per push); real = gossip-node Cluster (round-robin) over \
         127.0.0.1 UDP, wall-clock ms + actual frame bytes (12-byte header + 8-byte payload per push)",
    );
    table.push_note(
        "convergence = every node holds the exact maximum; sim rows are deterministic per \
         seed, real rows carry wall-clock noise (scheduler, socket buffers)",
    );
    if let Some(e) = bind_failure {
        table.push_note(format!(
            "real rows unavailable on this runner: loopback UDP binding failed ({e})"
        ));
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_prediction_converges_and_counts_traffic() {
        let outcome = run_sim(16, 7);
        let converge = outcome.converge_us.expect("16 nodes converge");
        assert!(converge < 40 * PUSH_INTERVAL_US, "within 40 intervals");
        assert!(outcome.messages > 0);
        assert!(outcome.bytes > 0);
    }

    #[test]
    fn real_rows_match_the_predicted_shape_or_skip() {
        let Ok(outcome) = run_real(8, 7) else {
            eprintln!("skipping: no loopback sockets on this runner");
            return;
        };
        let converge = outcome.converge_us.expect("8 loopback nodes converge");
        // Same convergence yardstick as the simulator: a handful of push
        // intervals (generous bound — CI wall clocks are noisy).
        assert!(converge < 20 * 1_000_000, "converged within 20 s wall");
        assert!(outcome.messages > 0);
        assert!(outcome.bytes >= outcome.messages * 20, "frames have bytes");
        let sim = run_sim(8, 7);
        assert!(sim.converge_us.is_some());
    }

    #[test]
    fn quick_grid_renders() {
        // Exercise the full table path at the smallest size the options
        // allow (graceful even where sockets are forbidden).
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 1);
        assert!(!tables[0].render().is_empty());
    }
}
