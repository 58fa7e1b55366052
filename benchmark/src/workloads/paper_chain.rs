//! `paper-chain` — the paper end to end, dense and sparse.
//!
//! Algorithms 7 and 8 (`drr_gossip_max`, `drr_gossip_ave`) back to back on
//! one `ShardedTransport`, then the sparse variant
//! (`sparse_drr_gossip_ave`) on a Chord overlay over a `Network`, all under
//! the paper's own failure model: 2 % of the nodes crash before the start
//! and 1 % of the messages are lost; the transport adds 500–1500 µs of
//! latency. It is the result the paper is about: `drr::*`, the
//! round-barrier facade and `topology` do the work; `ae`, `member` and
//! `node` do none.
//!
//! There is no mid-run churn here. Under E18b's per-round churn the
//! one-shot protocols leave rejoiners without an estimate and push-sum
//! loses mass with every crashed root (at some seeds half the nodes end
//! more than 1 % off the average), so operations would fail by design;
//! churn is `events-churn`'s and `ae-swim-churn`'s job, and what it costs
//! the facade is the per-layer metric `runtime.facade.churn_ratio`.
//!
//! Unit of work: one protocol message. `rounds`: the three runs'
//! `total_rounds` summed. An operation is one alive node's final estimate
//! in one of the three runs; it is correct when it equals the exact
//! maximum, or lies within 1 % of the exact average.

use super::{Fnv, Rep};
use crate::alloc;
use crate::spans::Tracer;
use crate::stats::mix;
use gossip_drr::{
    broadcast_down, convergecast_max, convergecast_sum, data_spread_multi, drr_gossip_ave,
    drr_gossip_max, gossip_ave, gossip_max, run_drr, sparse_drr_gossip_ave, DrrGossipConfig,
    DrrGossipReport, NodeStatus, SparseGossipConfig,
};
use gossip_net::{Network, NodeId, Phase, SimConfig, Transport};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedTransport};
use gossip_topology::{ChordOverlay, ChordSampler};
use std::time::Instant;

pub const NAME: &str = "paper-chain";
/// Why the workload exists, in `BENCHMARK.json`'s one line.
pub const WHY: &str =
    "Algorithms 7 and 8 on the facade and the sparse variant on Chord: drr, runtime::facade and topology do the work, ae, member and node none";

/// Largest relative error an average estimate may have and count as
/// correct.
const AVE_TOLERANCE: f64 = 0.01;

#[derive(Clone, Debug)]
pub struct PaperChain {
    pub n: usize,
    pub seed: u64,
    /// Shards of the facade, whether they drain on worker threads, and
    /// mid-run churn. The workload itself is one sequential shard without
    /// churn; the traced run's differential runs vary these.
    pub shards: usize,
    pub parallel: bool,
    pub churn: ChurnModel,
}

impl PaperChain {
    pub fn new(seed: u64, toy: bool) -> Self {
        PaperChain {
            n: if toy { 512 } else { 32_768 },
            seed,
            shards: 1,
            parallel: false,
            churn: ChurnModel::none(),
        }
    }

    /// E18b's churn, for the differential run that prices it.
    pub fn with_e18b_churn(mut self) -> Self {
        self.churn = ChurnModel::per_round(0.002, 0.05).with_min_alive(self.n / 2);
        self
    }

    /// Node values: three-decimal reals in [0, 100 000).
    pub fn values(&self) -> Vec<f64> {
        (0..self.n as u64)
            .map(|i| (mix(self.seed, i) % 100_000_000) as f64 / 1_000.0)
            .collect()
    }

    fn sim(&self) -> SimConfig {
        SimConfig::new(self.n)
            .with_seed(mix(self.seed, 1 << 32))
            .with_loss_prob(0.01)
            .with_initial_crash_prob(0.02)
            .with_value_range(100_000.0)
    }

    /// The lossy, laggy transport of the dense runs.
    pub fn transport(&self) -> ShardedTransport {
        let config = AsyncConfig::new(self.sim())
            .with_latency(LatencyModel::Uniform {
                lo_us: 500,
                hi_us: 1_500,
            })
            .with_churn(self.churn);
        ShardedTransport::new(config, self.shards).with_parallel(self.parallel)
    }

    /// The lossy round-synchronous network of the sparse run.
    pub fn network(&self) -> Network {
        Network::new(self.sim())
    }

    /// Algorithm 7 alone on a fresh transport, or on the plain `Network`:
    /// seconds taken and messages sent. The traced run's differential runs
    /// are ratios of these.
    pub fn max_chain(&self, on_network: bool) -> (f64, u64) {
        fn timed<T: Transport>(mut net: T, values: &[f64]) -> (f64, u64) {
            let started = Instant::now();
            let report = drr_gossip_max(&mut net, values, &DrrGossipConfig::paper());
            (started.elapsed().as_secs_f64(), report.total_messages)
        }
        let values = self.values();
        if on_network {
            timed(self.network(), &values)
        } else {
            timed(self.transport(), &values)
        }
    }

    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        let root = tr.enter("rep");
        let started = Instant::now();
        let setup = tr.enter("setup");
        let values = tr.span("bench.inputs", || self.values());
        let chord = tr.enter("topology.chord.build");
        let overlay = ChordOverlay::new(self.n);
        let graph = overlay.graph();
        let sampler = ChordSampler::new(&overlay);
        tr.exit(chord);
        let mut facade = tr.span("runtime.facade.construct", || self.transport());
        let mut net = tr.span("net.network.construct", || self.network());
        tr.exit(setup);
        let setup_s = started.elapsed().as_secs_f64();

        let allocs_before = alloc::snapshot().calls;
        let started = Instant::now();
        let work = tr.enter("work");
        let config = DrrGossipConfig::paper();
        let (max, ave) = if tr.is_on() {
            (
                composed_max(&mut facade, &values, &config, tr),
                composed_ave(&mut facade, &values, &config, tr),
            )
        } else {
            (
                drr_gossip_max(&mut facade, &values, &config),
                drr_gossip_ave(&mut facade, &values, &config),
            )
        };
        let dense_s = started.elapsed().as_secs_f64();
        let sparse = tr.span("drr.sparse.chord_ave", || {
            sparse_drr_gossip_ave(
                &mut net,
                &graph,
                &sampler,
                &values,
                &SparseGossipConfig::default(),
            )
        });
        tr.exit(work);
        let work_s = started.elapsed().as_secs_f64();
        let heap = alloc::snapshot();

        let mut fingerprint = Fnv::new();
        let (mut attempted, mut failed) = (0, 0);
        for (report, exact_match) in [(&max, true), (&ave, false), (&sparse, false)] {
            for phase in &report.phases {
                fingerprint.word(phase.rounds);
                fingerprint.word(phase.messages);
            }
            for (i, &estimate) in report.estimates.iter().enumerate() {
                fingerprint.word(estimate.to_bits() ^ u64::from(report.alive[i]));
                if !report.alive[i] {
                    continue;
                }
                // A NaN (an alive node left without an estimate) fails
                // both comparisons.
                let correct = if exact_match {
                    estimate == report.exact
                } else {
                    (estimate - report.exact).abs() <= AVE_TOLERANCE * report.exact.abs()
                };
                attempted += 1;
                failed += u64::from(!correct);
            }
        }

        let n = self.n as f64;
        let dense_msgs = max.total_messages + ave.total_messages;
        let phase = |names: &[&str]| {
            let sum: u64 = [&max, &ave]
                .iter()
                .flat_map(|r| r.phases.iter())
                .filter(|p| names.contains(&p.name))
                .map(|p| p.messages)
                .sum();
            sum as f64 / n
        };
        let layer = vec![
            ("drr.run_drr_msgs_per_node", phase(&["drr"])),
            ("drr.convergecast_msgs_per_node", phase(&["convergecast"])),
            ("drr.broadcast_msgs_per_node", phase(&["broadcast-root"])),
            (
                "drr.gossip_msgs_per_node",
                phase(&["gossip-max", "size-election", "gossip-ave", "data-spread"]),
            ),
            ("drr.disseminate_msgs_per_node", phase(&["disseminate"])),
            ("drr.sparse.msgs_per_node", sparse.total_messages as f64 / n),
            ("drr.rounds_max", max.total_rounds as f64),
            ("drr.rounds_ave", ave.total_rounds as f64),
            ("drr.sparse.rounds", sparse.total_rounds as f64),
            ("drr.forest_trees", max.forest_stats.num_trees as f64),
            ("drr.forest_max_height", max.forest_stats.max_height as f64),
            (
                "drr.forest_max_tree_size",
                max.forest_stats.max_tree_size as f64,
            ),
            (
                "runtime.facade.ns_per_msg",
                dense_s / dense_msgs as f64 * 1e9,
            ),
            (
                "runtime.facade.queue_capacity_events",
                facade.queue_capacity_events() as f64,
            ),
        ];
        let msgs = dense_msgs + sparse.total_messages;
        tr.exit(root);
        Rep {
            setup_s,
            work_s,
            units: msgs,
            msgs,
            bytes: (facade.metrics().total_bits() + net.metrics().total_bits()) / 8,
            nodes: self.n as u64,
            fingerprint: fingerprint.0,
            attempted,
            failed,
            rounds: (max.total_rounds + ave.total_rounds + sparse.total_rounds) as f64,
            allocs_work: heap.calls - allocs_before,
            peak_heap_bytes: heap.peak_live,
            layer,
        }
    }
}

/// Algorithm 7 phase by phase, with a span around each: the calls
/// `drr_gossip_max` makes, in its order, with its arguments. The caller's
/// fingerprint check holds the result equal to `drr_gossip_max`'s.
fn composed_max<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &DrrGossipConfig,
    tr: &mut Tracer,
) -> DrrGossipReport {
    let mut phases = PhaseMarks::new(net);
    let drr = tr.span("drr.run_drr", || run_drr(net, &config.drr));
    phases.mark(net, "drr");
    let cc = tr.span("drr.convergecast", || {
        convergecast_max(net, &drr.forest, values, config.reception)
    });
    phases.mark(net, "convergecast");
    let id_bits = net.config().id_bits();
    let payload_bits = id_bits + net.config().value_bits();
    tr.span("drr.broadcast", || {
        broadcast_down(
            net,
            &drr.forest,
            config.reception,
            Phase::Broadcast,
            id_bits,
        )
    });
    phases.mark(net, "broadcast-root");
    let gossip = tr.span("drr.gossip_max", || {
        gossip_max(net, &drr.forest, &cc.state, &config.gossip_max)
    });
    phases.mark(net, "gossip-max");
    tr.span("drr.disseminate", || {
        broadcast_down(
            net,
            &drr.forest,
            config.reception,
            Phase::Dissemination,
            payload_bits,
        )
    });
    phases.mark(net, "disseminate");

    let exact = net
        .alive_nodes()
        .map(|v| values[v.index()])
        .fold(f64::NEG_INFINITY, f64::max);
    let estimates = net
        .nodes()
        .map(|v| {
            if net.is_alive(v) {
                gossip.value_at(drr.forest.root_of(v)).unwrap_or(f64::NAN)
            } else {
                f64::NAN
            }
        })
        .collect();
    phases.report(net, estimates, exact, drr.forest.stats())
}

/// Algorithm 8 phase by phase, as [`composed_max`] does Algorithm 7.
fn composed_ave<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &DrrGossipConfig,
    tr: &mut Tracer,
) -> DrrGossipReport {
    let mut phases = PhaseMarks::new(net);
    let drr = tr.span("drr.run_drr", || run_drr(net, &config.drr));
    phases.mark(net, "drr");
    let cc = tr.span("drr.convergecast", || {
        convergecast_sum(net, &drr.forest, values, config.reception)
    });
    phases.mark(net, "convergecast");
    let id_bits = net.config().id_bits();
    let payload_bits = id_bits + net.config().value_bits();
    tr.span("drr.broadcast", || {
        broadcast_down(
            net,
            &drr.forest,
            config.reception,
            Phase::Broadcast,
            id_bits,
        )
    });
    phases.mark(net, "broadcast-root");
    let sizes: Vec<Option<f64>> = cc
        .state
        .iter()
        .map(|s| s.as_ref().map(|s| s.count))
        .collect();
    let election = tr.span("drr.gossip_max", || {
        gossip_max(net, &drr.forest, &sizes, &config.gossip_max)
    });
    phases.mark(net, "size-election");
    let ave = tr.span("drr.gossip_ave", || {
        gossip_ave(net, &drr.forest, &cc.state, &config.gossip_ave)
    });
    phases.mark(net, "gossip-ave");
    let mut spreaders: Vec<NodeId> = drr
        .forest
        .roots()
        .iter()
        .copied()
        .filter(|&r| {
            net.is_alive(r)
                && election.value_at(r) == Some(election.true_max)
                && drr.forest.tree_size(r) as f64 == election.true_max
        })
        .collect();
    if spreaders.is_empty() {
        spreaders.push(ave.largest_root);
    }
    let spread = tr.span("drr.data_spread", || {
        data_spread_multi(
            net,
            &drr.forest,
            &spreaders,
            ave.largest_root_estimate,
            &config.gossip_max,
        )
    });
    phases.mark(net, "data-spread");
    tr.span("drr.disseminate", || {
        broadcast_down(
            net,
            &drr.forest,
            config.reception,
            Phase::Dissemination,
            payload_bits,
        )
    });
    phases.mark(net, "disseminate");

    let alive_values: Vec<f64> = net.alive_nodes().map(|v| values[v.index()]).collect();
    let exact = if alive_values.is_empty() {
        0.0
    } else {
        alive_values.iter().sum::<f64>() / alive_values.len() as f64
    };
    let estimates = net
        .nodes()
        .map(|v| {
            if !net.is_alive(v) {
                return f64::NAN;
            }
            let root = drr.forest.root_of(v);
            match spread.value_at(root) {
                Some(x) if x.is_finite() => x,
                _ => ave.estimates[root.index()].unwrap_or(f64::NAN),
            }
        })
        .collect();
    phases.report(net, estimates, exact, drr.forest.stats())
}

/// The per-phase round and message deltas a `DrrGossipReport` carries.
struct PhaseMarks {
    start: (u64, u64),
    last: (u64, u64),
    phases: Vec<gossip_drr::PhaseCost>,
}

impl PhaseMarks {
    fn new<T: Transport>(net: &T) -> Self {
        let now = (net.round(), net.metrics().total_messages());
        PhaseMarks {
            start: now,
            last: now,
            phases: Vec::new(),
        }
    }

    fn mark<T: Transport>(&mut self, net: &T, name: &'static str) {
        let now = (net.round(), net.metrics().total_messages());
        self.phases.push(gossip_drr::PhaseCost {
            name,
            rounds: now.0 - self.last.0,
            messages: now.1 - self.last.1,
        });
        self.last = now;
    }

    fn report<T: Transport>(
        self,
        net: &T,
        estimates: Vec<f64>,
        exact: f64,
        forest_stats: gossip_drr::ForestStats,
    ) -> DrrGossipReport {
        let alive: Vec<bool> = net.nodes().map(|v| net.is_alive(v)).collect();
        DrrGossipReport {
            statuses: estimates
                .iter()
                .zip(&alive)
                .map(|(&e, &a)| NodeStatus::of(a, e))
                .collect(),
            estimates,
            exact,
            alive,
            forest_stats,
            phases: self.phases,
            total_rounds: net.round() - self.start.0,
            total_messages: net.metrics().total_messages() - self.start.1,
            metrics: net.metrics().clone(),
        }
    }
}
