//! Determinism suite for the round-barrier facade: every one-shot,
//! `Transport`-generic protocol in the workspace must produce the **same
//! bits** on [`ShardedTransport`] at every shard count CI pins (the facade
//! queues nothing, so the count partitions nothing; the ladder stays because
//! the goldens were pinned across it). Outside the compatibility
//! configuration the reference is an absolute golden fingerprint (see
//! [`common::Golden`] for where the constants come from); inside it, the
//! reference is the synchronous [`Network`], live — the facade replays
//! `Network`'s RNG stream draw for draw, so whole protocol runs are
//! bit-identical, and these tests hold it to that.

use gossip_aggregate::AverageState;
use gossip_baselines::{push_sum_average, PushSumConfig};
use gossip_drr::convergecast::ReceptionModel;
use gossip_drr::gossip_ave::{gossip_ave, GossipAveConfig};
use gossip_drr::protocol::{drr_gossip_ave, drr_gossip_max, DrrGossipConfig, DrrGossipReport};
use gossip_drr::Forest;
use gossip_drr::{broadcast_down, convergecast_max, convergecast_sum, run_drr, DrrConfig};
use gossip_net::{Network, NodeId, Phase, SimConfig, Transport};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, RoundPolicy, ShardedTransport};

mod common;
use common::{assert_golden, shard_counts, Golden};

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 53) % 2003) as f64).collect()
}

/// A configuration that exercises every verdict path of the facade:
/// loss, spread uniform latency, mid-run churn with a liveness floor.
fn churny_config(n: usize, seed: u64) -> AsyncConfig {
    AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.05))
        .with_latency(LatencyModel::Uniform {
            lo_us: 400,
            hi_us: 2_000,
        })
        .with_link_spread(0.2)
        .with_churn(ChurnModel::per_round(0.02, 0.1).with_min_alive(n / 2))
}

/// Bandwidth budget + fixed deadline: the drop paths and the RTT-aware
/// retry cutoff.
fn deadline_config(n: usize, seed: u64) -> AsyncConfig {
    AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.02))
        .with_latency(LatencyModel::Uniform {
            lo_us: 500,
            hi_us: 1_500,
        })
        .with_churn(ChurnModel::per_round(0.01, 0.2).with_min_alive(n / 5))
        .with_bandwidth_bits_per_round(300)
        .with_round_policy(RoundPolicy::FixedDeadline(2_000))
}

fn fingerprint(report: &DrrGossipReport) -> (Vec<u64>, u64, u64, Vec<bool>) {
    let bits = report.estimates.iter().map(|e| e.to_bits()).collect();
    (
        bits,
        report.total_rounds,
        report.total_messages,
        report.alive.clone(),
    )
}

#[test]
fn drr_gossip_reproduces_its_goldens_at_every_shard_count() {
    // The headline contract: Algorithm 7 and Algorithm 8 on the facade,
    // unchanged, landing on the pinned bits — estimates, rounds, messages,
    // liveness, virtual time and the full engine metrics — at every shard
    // count CI pins.
    for (name, n, config, golden) in [
        (
            "gossip-max, churny",
            600,
            churny_config(600, 0xFACA),
            0x2049_7FFE_B1E1_81F1u64,
        ),
        (
            "gossip-max, deadline",
            400,
            deadline_config(400, 0xFACB),
            0x17B2_D9C8_3244_265Cu64,
        ),
    ] {
        let vals = values(n);
        assert_golden(name, &config, golden, |t| {
            Golden::new().report(&drr_gossip_max(t, &vals, &DrrGossipConfig::paper()))
        });
    }

    // Algorithm 8 (average) over the churny configuration.
    let vals = values(500);
    assert_golden(
        "gossip-ave, churny",
        &churny_config(500, 0xFACC),
        0x60C4_CE36_1811_09D8,
        |t| Golden::new().report(&drr_gossip_ave(t, &vals, &DrrGossipConfig::paper())),
    );
}

#[test]
fn push_sum_reproduces_its_golden_at_every_shard_count() {
    let vals = values(500);
    assert_golden(
        "push-sum, churny",
        &churny_config(500, 0x955),
        0x606A_1827_2038_EA3A,
        |t| {
            let out = push_sum_average(t, &vals, &PushSumConfig::default());
            Golden::new()
                .f64s(&out.estimates)
                .word(out.messages)
                .f64s(&out.max_error_trace)
        },
    );
}

#[test]
fn tree_phases_reproduce_their_golden_at_every_shard_count() {
    // The facade underneath the *individual* tree phases: the DRR forest,
    // both convergecast aggregates and the downward broadcast must all
    // land on the pinned run — forest topology included.
    let n = 500;
    let vals = values(n);
    let cc_bits = |state: &[Option<f64>]| {
        state
            .iter()
            .map(|s| s.map_or(u64::MAX, f64::to_bits))
            .collect::<Vec<u64>>()
    };
    assert_golden(
        "tree phases, churny",
        &churny_config(n, 0x7EE5),
        0xF7BD_679B_10B6_9B58,
        |t| {
            let drr = run_drr(t, &DrrConfig::paper());
            let max = convergecast_max(t, &drr.forest, &vals, ReceptionModel::OneCallPerRound);
            let sum = convergecast_sum(t, &drr.forest, &vals, ReceptionModel::OneCallPerRound);
            let sums: Vec<Option<f64>> = sum.state.iter().map(|s| s.map(|s| s.sum)).collect();
            let id_bits = t.config().id_bits();
            let bc = broadcast_down(
                t,
                &drr.forest,
                ReceptionModel::OneCallPerRound,
                Phase::Broadcast,
                id_bits,
            );
            let parents = (0..n).map(|v| {
                drr.forest
                    .parent(NodeId::new(v))
                    .map_or(u64::MAX, |p| p.index() as u64)
            });
            Golden::new()
                .words(parents)
                .words(drr.probes_per_node.iter().map(|&p| u64::from(p)))
                .word(drr.messages)
                .words(cc_bits(&max.state))
                .word(max.rounds)
                .word(max.messages)
                .words(cc_bits(&sums))
                .word(sum.rounds)
                .word(sum.messages)
                .bools(&bc.reached)
                .word(bc.rounds)
                .word(bc.messages)
        },
    );
}

#[test]
fn ad_hoc_traffic_reproduces_its_golden_at_every_shard_count() {
    // Below the protocols: a raw sample/send/advance pattern, with every
    // sampled endpoint, every send verdict and the clock and alive count
    // after every barrier folded in, and the protocol metrics at the end.
    assert_golden(
        "ad-hoc traffic, churny",
        &churny_config(128, 0xFACE),
        0xCDAD_3CFD_9470_10CA,
        |t| {
            let mut g = Golden::new();
            for _ in 0..40 {
                for _ in 0..64 {
                    let a = t.sample_uniform();
                    let b = t.sample_other_than(a);
                    let ok = t.send(a, b, Phase::Convergecast, 64);
                    g = g
                        .word(a.index() as u64)
                        .word(b.index() as u64)
                        .word(u64::from(ok));
                }
                t.advance_round();
                g = g.word(t.now_us()).word(t.alive_count() as u64);
            }
            g.net_metrics(Transport::metrics(t))
        },
    );
}

#[test]
fn deadline_capped_retries_reproduce_their_golden() {
    let config = AsyncConfig::new(SimConfig::new(8).with_seed(2).with_loss_prob(0.6))
        .with_round_policy(RoundPolicy::FixedDeadline(5_000));
    assert_golden(
        "retries under a deadline",
        &config,
        0x1C8E_45D0_2A2F_D75D,
        |t| {
            let mut g = Golden::new();
            for _ in 0..200 {
                let (attempts, ok) =
                    t.send_with_retries(NodeId::new(0), NodeId::new(1), Phase::Other, 8, 64);
                g = g.word(u64::from(attempts)).word(u64::from(ok));
                t.advance_round();
            }
            g
        },
    );
}

/// Nodes dead at the start that rejoin during the run, on every shard count.
fn rejoin_config(n: usize, seed: u64) -> AsyncConfig {
    AsyncConfig::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_initial_crash_prob(0.3),
    )
    .with_churn(ChurnModel::per_round(0.0, 0.3))
}

#[test]
fn push_sum_credits_rejoiners_and_gossip_ave_only_its_starting_roots() {
    // The one push-sum loop leaves who may take a push to each caller.
    // Uniform push-sum credits any node the transport delivered to, so a
    // node dead at the start that rejoins collects mass (and never pushes);
    // Gossip-ave credits only roots alive when it starts.
    let n = 400;
    let vals: Vec<f64> = values(n).iter().map(|v| v + 1.0).collect();
    for shards in shard_counts() {
        let mut t = ShardedTransport::new(rejoin_config(n, 0x4E7), shards);
        let dead_at_start: Vec<NodeId> = t.nodes().filter(|&v| !t.is_alive(v)).collect();
        let out = push_sum_average(&mut t, &vals, &PushSumConfig::default());
        let credited = dead_at_start
            .iter()
            .filter(|&&v| t.is_alive(v) && out.estimates[v.index()] > 0.0)
            .count();
        assert!(credited > 0, "no rejoiner took a push at {shards} shard(s)");

        // One big tree under a root dead at the start, plus singleton roots.
        let mut t = ShardedTransport::new(rejoin_config(n, 0x4E8), shards);
        let big = t
            .nodes()
            .find(|&v| !t.is_alive(v))
            .expect("a node starts dead");
        let parents = (0..n)
            .map(|i| (i != big.index() && i % 8 != 0).then_some(big))
            .collect();
        let forest = Forest::from_parents(parents).expect("a star and singletons");
        assert_eq!(forest.largest_tree_root(), big);
        let initial = vec![
            Some(AverageState {
                sum: 5.0,
                count: 1.0
            });
            n
        ];
        let out = gossip_ave(&mut t, &forest, &initial, &GossipAveConfig::default());
        assert!(t.is_alive(big), "the big root rejoined during the run");
        assert!(
            out.error_trace.iter().all(|&e| e == 1.0),
            "a root dead at the start took a push at {shards} shard(s): {:?}",
            out.error_trace
        );
    }
}

#[test]
fn compat_configuration_reproduces_the_synchronous_backend_exactly() {
    // In the compatibility configuration (constant latency, no churn, no
    // bandwidth cap) the facade consumes its RNG in the same order as the
    // synchronous Network, so whole protocol runs are bit-identical. This
    // stays a live comparison: Network is the independent reference for
    // the paper-model contract, at every shard count.
    let n = 800;
    let vals = values(n);
    let sim = SimConfig::new(n)
        .with_seed(0x5E7)
        .with_loss_prob(0.08)
        .with_initial_crash_prob(0.05);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

    let sync_ave = drr_gossip_ave(
        &mut Network::new(sim.clone()),
        &vals,
        &DrrGossipConfig::paper(),
    );
    let sync_max = drr_gossip_max(
        &mut Network::new(sim.clone()),
        &vals,
        &DrrGossipConfig::paper(),
    );
    let sync_push = push_sum_average(
        &mut Network::new(sim.clone()),
        &vals,
        &PushSumConfig::default(),
    );

    for shards in shard_counts() {
        let facade = || ShardedTransport::new(AsyncConfig::new(sim.clone()), shards);

        let mut t = facade();
        let ave = drr_gossip_ave(&mut t, &vals, &DrrGossipConfig::paper());
        assert_eq!(
            fingerprint(&sync_ave),
            fingerprint(&ave),
            "gossip-ave at {shards} shard(s) diverged from the synchronous Network"
        );
        assert_eq!(sync_ave.metrics, ave.metrics);
        assert_eq!(
            t.async_metrics().latency.count(),
            sync_ave.metrics.total_messages() - sync_ave.metrics.total_dropped(),
            "every delivered message is tallied"
        );

        let max = drr_gossip_max(&mut facade(), &vals, &DrrGossipConfig::paper());
        assert_eq!(
            fingerprint(&sync_max),
            fingerprint(&max),
            "gossip-max at {shards} shard(s) diverged from the synchronous Network"
        );
        assert_eq!(sync_max.metrics, max.metrics);

        // Push-sum too. (Estimates are compared by bit pattern: crashed
        // nodes hold NaN, and NaN != NaN under `==`.)
        let push = push_sum_average(&mut facade(), &vals, &PushSumConfig::default());
        assert_eq!(
            (
                bits(&sync_push.estimates),
                sync_push.messages,
                &sync_push.max_error_trace
            ),
            (bits(&push.estimates), push.messages, &push.max_error_trace),
            "push-sum at {shards} shard(s) diverged from the synchronous Network"
        );
    }
}

#[test]
fn with_parallel_and_reruns_do_not_move_an_event() {
    // `with_parallel` has no drain left to move to worker threads and must
    // change nothing, and a rerun must reproduce the run; a different seed
    // is the control that the fingerprint actually has teeth.
    let n = 400;
    let vals = values(n);
    let run = |seed: u64, parallel: bool| {
        let mut facade = ShardedTransport::new(churny_config(n, seed), 8).with_parallel(parallel);
        let report = drr_gossip_max(&mut facade, &vals, &DrrGossipConfig::paper());
        (
            fingerprint(&report),
            facade.now_us(),
            facade.async_metrics(),
        )
    };
    let reference = run(0xD4A1, false);
    assert_eq!(reference, run(0xD4A1, true), "with_parallel moved an event");
    assert_eq!(reference, run(0xD4A1, false), "rerun diverged");
    assert_ne!(
        reference.0,
        run(0xD4A2, false).0,
        "seed change must move the run"
    );
}
