//! The traced run: every per-layer metric, from spans, differential runs,
//! layer probes and the program's own counters.
//!
//! A traced run is never part of a timed pass. It runs the single-layer
//! probes once, then cycles: a cycle of a workload is the machine-speed
//! probes (the reference kernel), one untraced rep, one traced rep (a span around every call the
//! benchmark makes into a layer) and one rep of each differential variant,
//! in that fixed order, so that every ratio is taken between neighbours in
//! time. The workload the run was asked for gets up to five cycles, as
//! many as fit the asked seconds; each other workload gets one, so that
//! every per-layer metric is printed by every traced run.
//!
//! `ShardedDriver::run_until` is opaque from outside, so the
//! `runtime.shard.*` and `ae.protocol.handler_share` splits come from
//! differential runs, not from spans; spans inside the program are a later
//! change.

use crate::harness::{same_counts, too_many_failed, Metric};
use crate::layers;
use crate::reference::{Reference, NOMINAL_S};
use crate::spans::Tracer;
use crate::stats::{iqr_ratio, median, percentile};
use crate::workloads::events_churn::EventsChurn;
use crate::workloads::paper_chain::PaperChain;
use crate::workloads::udp_relay::UdpRelay;
use crate::workloads::{self, Rep, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Cycles of the selected workload, at most.
const MAX_CYCLES: usize = 5;

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.wire.encode_bare_ns", "ns"),
    ("net.wire.decode_bare_ns", "ns"),
    ("net.wire.encode_sealed_ns", "ns"),
    ("net.wire.decode_sealed_ns", "ns"),
    ("net.wire.allocs_per_encode", "count"),
    ("net.auth.tag_40b_ns", "ns"),
    ("net.auth.verify_40b_ns", "ns"),
    ("net.auth.tag_1k_ns", "ns"),
    ("node.core.on_datagram_sealed_ns", "ns"),
    ("node.core.on_datagram_bare_ns", "ns"),
    ("node.core.allocs_per_datagram", "count"),
    ("node.reactor.syscall_share", "ratio"),
    ("node.reactor.idle_poll_ratio", "ratio"),
    ("node.reactor.bare_datagrams_per_s", "1/s"),
    ("node.host.bind_start_us", "us"),
    ("topology.chord.build_ms", "ms"),
    ("drr.run_drr_s", "s"),
    ("drr.convergecast_s", "s"),
    ("drr.broadcast_s", "s"),
    ("drr.gossip_max_s", "s"),
    ("drr.gossip_ave_s", "s"),
    ("drr.data_spread_s", "s"),
    ("drr.disseminate_s", "s"),
    ("drr.sparse.chord_ave_s", "s"),
    ("drr.run_drr_msgs_per_node", "count"),
    ("drr.convergecast_msgs_per_node", "count"),
    ("drr.broadcast_msgs_per_node", "count"),
    ("drr.gossip_msgs_per_node", "count"),
    ("drr.disseminate_msgs_per_node", "count"),
    ("drr.sparse.msgs_per_node", "count"),
    ("drr.rounds_max", "count"),
    ("drr.rounds_ave", "count"),
    ("drr.sparse.rounds", "count"),
    ("drr.forest_trees", "count"),
    ("drr.forest_max_height", "count"),
    ("drr.forest_max_tree_size", "count"),
    ("runtime.facade.construct_us", "us"),
    ("runtime.facade.ns_per_msg", "ns"),
    ("runtime.facade.network_ratio", "ratio"),
    ("runtime.facade.queue_capacity_events", "count"),
    ("runtime.facade.s2_parallel_ratio", "ratio"),
    ("runtime.facade.churn_ratio", "ratio"),
    ("runtime.shard.construct_ms", "ms"),
    ("runtime.shard.ns_per_event", "ns"),
    ("runtime.shard.s1_ratio", "ratio"),
    ("runtime.shard.s2_parallel_ratio", "ratio"),
    ("runtime.shard.trace_on_ratio", "ratio"),
    ("runtime.shard.arena_reuse_ratio", "ratio"),
    ("runtime.shard.arena_capacity", "count"),
    ("runtime.shard.queue_capacity_events", "count"),
    ("runtime.shard.wasted_event_ratio", "ratio"),
    ("runtime.arena.insert_take_ns", "ns"),
    ("ae.store.merge_ns", "ns"),
    ("ae.merkle.refresh_ns", "ns"),
    ("ae.merkle.rebuild_us", "us"),
    ("ae.protocol.handler_share", "ratio"),
    ("ae.protocol.adopt_per_syn", "ratio"),
    ("ae.protocol.bytes_per_node_per_tick", "bytes"),
    ("ae.protocol.digest_mismatches", "count"),
    ("member.swim.probes_per_node_per_tick", "count"),
    ("member.swim.ping_req_ratio", "ratio"),
    ("member.swim.false_suspicions", "count"),
    ("member.swim.stale_update_ratio", "ratio"),
    ("obs.registry.render_us", "us"),
    ("obs.trace.record_ns", "ns"),
    ("obs.causal.reconstruct_us", "us"),
    ("bench.reps", "count"),
    ("bench.rep_p80_ratio", "ratio"),
    ("bench.rep_iqr_ratio", "ratio"),
    ("bench.ref_syscall_ms", "ms"),
    ("bench.ref_chase_ms", "ms"),
    ("bench.ref_alloc_ms", "ms"),
    ("bench.ref_factor", "ratio"),
    ("bench.ref_alu_ms", "ms"),
    ("bench.peak_rss_mib", "MiB"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.span_coverage", "ratio"),
];

/// The per-layer metrics of which more is better; of every other, less.
pub const HIGHER_IS_BETTER: &[&str] = &[
    "node.reactor.bare_datagrams_per_s",
    "runtime.shard.arena_reuse_ratio",
    "ae.protocol.adopt_per_syn",
    "bench.reps",
    "bench.span_coverage",
];

/// What a traced run found.
pub struct Traced {
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Every [`PER_LAYER`] metric, in its order.
    pub metrics: Vec<Metric>,
    pub cycles: usize,
    pub spans: usize,
    pub wall_s: f64,
}

/// Samples by metric name; the median is reported.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

/// The untraced and traced reps of one workload, cycle by cycle.
#[derive(Default)]
struct Reps {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
}

impl Reps {
    /// Median measured-section time of the untraced reps ÷ units, ns.
    fn ns_per_unit(&self) -> f64 {
        let work: Vec<f64> = self.plain.iter().map(|r| r.work_s).collect();
        median(&work) / self.plain[0].units as f64 * 1e9
    }
}

struct Run<'a> {
    tr: Tracer,
    samples: Samples,
    reps: BTreeMap<&'static str, Reps>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    reference: &'a Reference,
}

impl Run<'_> {
    /// One cycle of `workload`; `check` asks the untraced rep for the full
    /// operations tally.
    fn cycle(&mut self, workload: &Workload, cycle: usize, check: bool) {
        let name = workload.name();
        self.tr.set_rep("bench", cycle as u32);
        let reading = self.reference.read(&mut self.tr);
        let alu_ms = self.reference.alu_ms(&mut self.tr);
        self.samples
            .push("bench.ref_syscall_ms", reading.syscall_s * 1e3);
        self.samples
            .push("bench.ref_chase_ms", reading.chase_s * 1e3);
        self.samples
            .push("bench.ref_alloc_ms", reading.alloc_s * 1e3);
        self.samples
            .push("bench.ref_factor", reading.seconds() / NOMINAL_S);
        self.samples.push("bench.ref_alu_ms", alu_ms);

        let plain = workload.rep(check, &mut Tracer::off());
        self.tr.set_rep(name, cycle as u32);
        let traced = workload.rep(false, &mut self.tr);
        // The traced rep makes the same calls with spans between them (and
        // composes the paper's chains phase by phase): same outputs.
        let what = format!("{name}, traced rep {cycle}");
        same_counts(&what, &plain, &traced, false, &mut self.problems);
        for &(metric, value) in &traced.layer {
            self.samples.push(metric, value);
        }
        self.attempted += plain.attempted + traced.attempted;
        self.failed += plain.failed + traced.failed;

        match workload {
            Workload::PaperChain(w) => self.facade_variants(w),
            Workload::EventsChurn(w) => self.shard_variants(w, &plain),
            Workload::UdpRelay(w) => self.bare_relay(w),
            Workload::AeSwimChurn(_) => {}
        }
        let reps = self.reps.entry(name).or_default();
        if let Some(first) = reps.plain.first() {
            let what = format!("{name}, cycle {cycle}");
            same_counts(&what, first, &plain, false, &mut self.problems);
        }
        reps.plain.push(plain);
        reps.traced.push(traced);
    }

    /// Algorithm 7 alone: the facade against the plain `Network`, two
    /// parallel shards against one, E18b's churn against none.
    fn facade_variants(&mut self, w: &PaperChain) {
        let (base_s, base_msgs) = w.max_chain(false);
        let (network_s, _) = w.max_chain(true);
        let two = PaperChain {
            shards: 2,
            parallel: true,
            ..w.clone()
        };
        let (two_s, two_msgs) = two.max_chain(false);
        let (churn_s, _) = w.clone().with_e18b_churn().max_chain(false);
        if two_msgs != base_msgs {
            self.problems.push(format!(
                "paper-chain on two shards sent {two_msgs} messages, on one {base_msgs}"
            ));
        }
        self.samples
            .push("runtime.facade.network_ratio", base_s / network_s);
        self.samples
            .push("runtime.facade.s2_parallel_ratio", two_s / base_s);
        self.samples
            .push("runtime.facade.churn_ratio", churn_s / base_s);
    }

    /// `events-churn` on one shard, on two parallel shards and with the
    /// passive trace ring on, each against the workload's own two
    /// sequential shards. The dispatch order must not move.
    fn shard_variants(&mut self, w: &EventsChurn, plain: &Rep) {
        let variants = [
            (
                "runtime.shard.s1_ratio",
                EventsChurn {
                    shards: 1,
                    ..w.clone()
                },
            ),
            (
                "runtime.shard.s2_parallel_ratio",
                EventsChurn {
                    parallel: true,
                    ..w.clone()
                },
            ),
            (
                "runtime.shard.trace_on_ratio",
                EventsChurn {
                    trace: true,
                    ..w.clone()
                },
            ),
        ];
        for (metric, variant) in variants {
            let rep = variant.rep(false, &mut Tracer::off());
            if rep.fingerprint != plain.fingerprint {
                self.problems.push(format!(
                    "{metric}: order hash {:016x}, the workload's is {:016x}",
                    rep.fingerprint, plain.fingerprint
                ));
            }
            self.samples.push(metric, rep.work_s / plain.work_s);
        }
    }

    /// The same relay without a key.
    fn bare_relay(&mut self, w: &UdpRelay) {
        let bare = UdpRelay {
            keyed: false,
            ..w.clone()
        };
        let rep = bare.rep(&mut Tracer::off());
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.samples.push(
            "node.reactor.bare_datagrams_per_s",
            rep.units as f64 / rep.work_s,
        );
    }

    /// The per-layer metrics that are sums of spans, per traced rep.
    fn span_metrics(&mut self) {
        // `Rep::nodes` is the hosts over UDP.
        let hosts = self.reps[workloads::udp_relay::NAME].plain[0].nodes;
        let seconds = |by_name: &BTreeMap<&'static str, f64>, span: &str| {
            by_name.get(span).copied().unwrap_or(f64::NAN)
        };
        for by_name in &self.tr.seconds_by_name(workloads::paper_chain::NAME) {
            for (metric, span) in [
                ("drr.run_drr_s", "drr.run_drr"),
                ("drr.convergecast_s", "drr.convergecast"),
                ("drr.broadcast_s", "drr.broadcast"),
                ("drr.gossip_max_s", "drr.gossip_max"),
                ("drr.gossip_ave_s", "drr.gossip_ave"),
                ("drr.data_spread_s", "drr.data_spread"),
                ("drr.disseminate_s", "drr.disseminate"),
                ("drr.sparse.chord_ave_s", "drr.sparse.chord_ave"),
            ] {
                self.samples.push(metric, seconds(by_name, span));
            }
            self.samples.push(
                "topology.chord.build_ms",
                seconds(by_name, "topology.chord.build") * 1e3,
            );
            self.samples.push(
                "runtime.facade.construct_us",
                seconds(by_name, "runtime.facade.construct") * 1e6,
            );
        }
        for by_name in self.tr.seconds_by_name(workloads::events_churn::NAME) {
            self.samples.push(
                "runtime.shard.construct_ms",
                seconds(&by_name, "runtime.shard.construct") * 1e3,
            );
        }
        for by_name in self.tr.seconds_by_name(workloads::udp_relay::NAME) {
            self.samples.push(
                "node.host.bind_start_us",
                seconds(&by_name, "node.host.bind_start") / hosts as f64 * 1e6,
            );
        }
    }
}

/// Run traced for `selected`, every input derived from `seed`, and write
/// the spans to `spans_path`.
pub fn run(
    selected: &Workload,
    seed: u64,
    toy: bool,
    seconds: f64,
    spans_path: &std::path::Path,
) -> Traced {
    let wall = Instant::now();
    let reference = Reference::new(toy);
    let mut run = Run {
        tr: Tracer::on(),
        samples: Samples::default(),
        reps: BTreeMap::new(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        reference: &reference,
    };

    let sizes = layers::Sizes::new(toy);
    let mut probed = Vec::new();
    layers::net(&mut run.tr, &sizes, seed, &mut probed);
    layers::node_core(&mut run.tr, &sizes, seed, &mut probed);
    layers::stores(&mut run.tr, &sizes, seed, &mut probed);
    layers::obs(&mut run.tr, &sizes, seed, &mut probed);
    for (metric, value) in probed {
        run.samples.push(metric, value);
    }

    for name in workloads::NAMES {
        if name != selected.name() {
            let other = Workload::by_name(name, seed, toy).expect("a listed workload");
            run.cycle(&other, 0, false);
        }
    }
    let mut cycles = 0;
    loop {
        let started = Instant::now();
        run.cycle(selected, cycles, cycles == 0);
        cycles += 1;
        let next_ends = wall.elapsed().as_secs_f64() + started.elapsed().as_secs_f64();
        if cycles >= MAX_CYCLES || next_ends > seconds {
            break;
        }
    }

    run.span_metrics();
    let shard_ns = run.reps[workloads::events_churn::NAME].ns_per_unit();
    let ae_ns = run.reps[workloads::ae_swim_churn::NAME].ns_per_unit();
    let relay_ns = run.reps[workloads::udp_relay::NAME].ns_per_unit();
    let core_ns = run.samples.median("node.core.on_datagram_sealed_ns");
    run.samples.push("runtime.shard.ns_per_event", shard_ns);
    run.samples
        .push("ae.protocol.handler_share", 1.0 - shard_ns / ae_ns);
    run.samples
        .push("node.reactor.syscall_share", 1.0 - core_ns / relay_ns);

    let own = &run.reps[selected.name()];
    let work: Vec<f64> = own.plain.iter().map(|r| r.work_s).collect();
    let overhead: Vec<f64> = own
        .plain
        .iter()
        .zip(&own.traced)
        .map(|(p, t)| (t.setup_s + t.work_s) / (p.setup_s + p.work_s))
        .collect();
    run.samples.push("bench.reps", work.len() as f64);
    run.samples
        .push("bench.rep_p80_ratio", percentile(&work, 80) / median(&work));
    run.samples.push("bench.rep_iqr_ratio", iqr_ratio(&work));
    run.samples
        .push("bench.trace_overhead_ratio", median(&overhead));
    run.samples.push(
        "bench.span_coverage",
        median(&run.tr.coverage(selected.name())),
    );
    run.samples
        .push("bench.peak_rss_mib", layers::peak_rss_mib());

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, run.samples.median(name), unit))
        .collect();
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            run.problems.push(format!("{name} is {value}"));
        }
    }
    too_many_failed(run.attempted, run.failed, &mut run.problems);
    if let Err(e) = run.tr.write_jsonl(spans_path) {
        run.problems
            .push(format!("writing {}: {e}", spans_path.display()));
    }
    Traced {
        correct: run.problems.is_empty(),
        problems: run.problems,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        cycles,
        spans: run.tr.spans().len(),
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// The lines a reader sees before the JSON.
pub fn print_traced(traced: &Traced, selected: &str, spans_path: &std::path::Path) {
    println!(
        "traced run for {selected}: {} cycles, {} spans written to {}; run took {:.1} s",
        traced.cycles,
        traced.spans,
        spans_path.display(),
        traced.wall_s
    );
    for (name, value, unit) in &traced.metrics {
        println!("  {name} = {value} {unit}");
    }
    for problem in &traced.problems {
        println!("  INCORRECT: {problem}");
    }
}
