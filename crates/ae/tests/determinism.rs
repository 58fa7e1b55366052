//! Determinism suite for the anti-entropy layer: Merkle-mode runs are a
//! pure function of the seed, bit-identical across shard counts, the
//! digest mode changes cost — never the dispatch schedule's integrity —
//! and rejoin-recovery measurement reads the same at every shard count.
//!
//! Honors `GOSSIP_TEST_SHARDS` (comma-separated shard counts) like the
//! runtime determinism suite, so CI's matrix re-runs this ladder with an
//! uneven count in the mix.

use gossip_ae::{
    ae_driver, AeConfig, AeNodeStats, DigestMode, RecoveryOutcome, RecoveryTracker, SignalModel,
};
use gossip_net::SimConfig;
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel};

/// The shard ladder: `GOSSIP_TEST_SHARDS` or {1, 2, 8}.
fn shard_counts() -> Vec<usize> {
    match std::env::var("GOSSIP_TEST_SHARDS") {
        Ok(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad GOSSIP_TEST_SHARDS entry {s:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

fn merkle_config() -> AeConfig {
    AeConfig::default()
        .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(1_000.0))
        .with_digest_mode(DigestMode::Merkle)
        .with_merkle_fallback_slots(8)
}

fn engine_config(seed: u64) -> AsyncConfig {
    AsyncConfig::new(
        SimConfig::new(96)
            .with_seed(seed)
            .with_loss_prob(0.02)
            .with_value_range(10_000.0),
    )
    .with_latency(LatencyModel::Uniform {
        lo_us: 200,
        hi_us: 1_200,
    })
    .with_churn(ChurnModel::per_round(0.01, 0.2))
}

/// One node's contribution to a fingerprint: index, protocol stats, store
/// stamps, estimate bit pattern.
type NodeRow = (usize, AeNodeStats, Vec<u64>, u64);
/// Everything a run exposes: the dispatch-order hash plus per-node rows.
type RunFingerprint = (u64, Vec<NodeRow>);

/// Everything a run exposes, fingerprinted: dispatch order, final store
/// contents (as bit patterns), estimates, and the per-node stats that the
/// descent's message pattern shapes.
fn fingerprint(
    order_hash: u64,
    handlers: impl Iterator<Item = (gossip_net::NodeId, AeNodeStats, Vec<u64>, u64)>,
) -> RunFingerprint {
    (
        order_hash,
        handlers
            .map(|(node, stats, stamps, est)| (node.index(), stats, stamps, est))
            .collect(),
    )
}

fn sharded_run(shards: usize, seed: u64) -> RunFingerprint {
    let mut d = ae_driver(engine_config(seed), merkle_config(), shards);
    d.run_until(180_000);
    let now = d.now_us();
    let rows: Vec<_> = d
        .iter_handlers()
        .map(|(node, h)| {
            (
                node,
                h.stats,
                h.store().digest(),
                h.estimate(now).unwrap_or(f64::NAN).to_bits(),
            )
        })
        .collect();
    fingerprint(d.order_hash(), rows.into_iter())
}

#[test]
fn merkle_mode_order_hash_is_shard_count_invariant() {
    let counts = shard_counts();
    let reference = sharded_run(counts[0], 17);
    for &shards in &counts[1..] {
        assert_eq!(
            reference,
            sharded_run(shards, 17),
            "merkle-mode run diverged at {shards} shards"
        );
    }
    // Descent traffic actually happened (the invariance is not vacuous):
    // entries were adopted and nothing hostile was counted.
    let adopted: u64 = reference
        .1
        .iter()
        .map(|(_, s, _, _)| s.entries_adopted)
        .sum();
    assert!(adopted > 0, "exchanges adopted entries");
    let mismatches: u64 = reference
        .1
        .iter()
        .map(|(_, s, _, _)| s.digest_mismatches)
        .sum();
    assert_eq!(mismatches, 0, "honest traffic is never dropped");
}

#[test]
fn merkle_mode_runs_reproduce_bit_for_bit_and_differ_across_seeds() {
    let run = |seed| {
        let mut d = ae_driver(engine_config(seed), merkle_config(), 1);
        d.run_until(150_000);
        let stores: Vec<Vec<u64>> = d.iter_handlers().map(|(_, h)| h.store().digest()).collect();
        (d.order_hash(), stores)
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9).0, run(10).0, "different seeds schedule differently");
}

#[test]
fn dense_and_merkle_modes_schedule_differently_but_converge_identically() {
    // Different digest modes send different message patterns — the order
    // hash must differ (the fingerprint is honest) — while a quiesced
    // static-signal run converges to the same stores either way.
    let run = |mode: DigestMode| {
        let config = AsyncConfig::new(
            SimConfig::new(64)
                .with_seed(5)
                .with_loss_prob(0.02)
                .with_value_range(10_000.0),
        )
        .with_latency(LatencyModel::Constant(500));
        let ae = AeConfig::default()
            .with_update_us(0)
            .with_digest_mode(mode)
            .with_merkle_fallback_slots(8);
        let mut d = ae_driver(config, ae, 1);
        d.run_until(200_000);
        let stores: Vec<Vec<u64>> = d.iter_handlers().map(|(_, h)| h.store().digest()).collect();
        (d.order_hash(), stores)
    };
    let (dense_hash, dense_stores) = run(DigestMode::Dense);
    let (merkle_hash, merkle_stores) = run(DigestMode::Merkle);
    assert_ne!(dense_hash, merkle_hash);
    assert_eq!(dense_stores, merkle_stores);
    for stamps in &merkle_stores {
        assert!(stamps.iter().all(|&s| s > 0), "fully reconciled");
    }
}

#[test]
fn recovery_records_are_shard_count_invariant_under_e17_churn() {
    // The E17 scenario (log-normal latency, spread links, 1%/tick crashes,
    // 25%/tick rejoins, drifting signal) observed tick by tick: the tracker
    // reads the driver's rejoin log, liveness and stores from outside, so
    // its records — which node, when, how many ticks — must not depend on
    // how the node space is sharded.
    let n = 96;
    let run = |shards: usize| {
        let engine = AsyncConfig::new(
            SimConfig::new(n)
                .with_seed(42)
                .with_loss_prob(0.02)
                .with_value_range(10_000.0),
        )
        .with_latency(LatencyModel::LogNormal {
            median_us: 800.0,
            sigma: 0.6,
        })
        .with_link_spread(0.2)
        .with_churn(ChurnModel::per_round(0.01, 0.25).with_min_alive(n / 2));
        let ae = AeConfig::default()
            .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(1_000.0));
        let mut driver = ae_driver(engine, ae, shards);
        let mut tracker = RecoveryTracker::new(0.01, ae.expiry_us);
        for k in 1..=100 {
            driver.run_until(k * ae.tick_us);
            tracker.observe(&driver);
        }
        (tracker.finish(), driver.order_hash())
    };
    let counts = shard_counts();
    let reference = run(counts[0]);
    assert!(
        reference
            .0
            .iter()
            .any(|r| matches!(r.outcome, RecoveryOutcome::Recovered { .. })),
        "the scenario must produce measured recoveries"
    );
    for &shards in &counts[1..] {
        assert_eq!(
            reference,
            run(shards),
            "recovery records diverged at {shards} shards"
        );
    }
}
