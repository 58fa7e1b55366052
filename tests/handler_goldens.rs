//! Absolute pins for the two timer-driven handlers the determinism suites
//! otherwise only hold equal across shard counts: `MaxGossipHandler` on
//! the `events-churn` benchmark workload's shape, and `AeNode` in dense
//! and in Merkle mode under E17-style churn. Each run is pinned by its
//! dispatch-order hash, its event count and an FNV-1a fold of every node's
//! final state, at every shard count of the ladder. A change to either
//! handler's tick loop that moves a send, an RNG draw or a byte of state
//! fails here even when it stays self-consistent across shard counts.
//!
//! Honors `GOSSIP_TEST_SHARDS` (comma-separated shard counts) like the
//! other determinism suites.

use drr_gossip::ae::{ae_driver, AeConfig, DigestMode, SignalModel};
use drr_gossip::drr::handler::{MaxGossipConfig, MaxGossipHandler};
use drr_gossip::net::{NodeId, SimConfig};
use drr_gossip::runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver};

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

/// FNV-1a over the little-endian bytes of a sequence of words.
fn fnv_fold(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// What a run is pinned by: order hash, events dispatched, state fold.
type Pin = (u64, u64, u64);

/// `events-churn`'s shape at n = 2 000: 1 % loss, 500–1 500 µs latency,
/// 0.2 % crashes and 5 % rejoins per interval above an n/2 floor, one push
/// per node per 1 ms interval; run for 40 intervals.
fn max_gossip_run(shards: usize) -> Pin {
    let n = 2_000;
    let sim = SimConfig::new(n)
        .with_seed(0xE7E_C4A2)
        .with_loss_prob(0.01)
        .with_value_range(100_000.0);
    let handler = MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        ..MaxGossipConfig::default()
    };
    let config = AsyncConfig::new(sim)
        .with_latency(LatencyModel::Uniform {
            lo_us: 500,
            hi_us: 1_500,
        })
        .with_churn(ChurnModel::per_round(0.002, 0.05).with_min_alive(n / 2));
    let mut driver = ShardedDriver::new(config, shards, move |me: NodeId| {
        let own = ((me.index() as u64).wrapping_mul(0x9E37_79B9) % 1_000_003) as f64;
        MaxGossipHandler::new(me, own, handler)
    });
    driver.run_until(40 * handler.push_interval_us);
    let state = driver
        .iter_handlers()
        .flat_map(|(node, h)| [node.index() as u64, h.current_max().to_bits()]);
    (
        driver.order_hash(),
        driver.events_dispatched(),
        fnv_fold(state),
    )
}

/// E17's scenario at n = 96 (log-normal latency, spread links, 1 %
/// crashes and 25 % rejoins per tick above an n/2 floor, a drifting
/// signal), 100 ticks, in the given digest mode. The state fold covers
/// every node's counters, store stamps and estimate.
fn ae_run(mode: DigestMode, shards: usize) -> Pin {
    let n = 96;
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
        .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(1_000.0))
        .with_digest_mode(mode)
        .with_merkle_fallback_slots(8);
    let mut driver = ae_driver(engine, ae, shards);
    driver.run_until(100 * ae.tick_us);
    let now = driver.now_us();
    let mut state = Vec::new();
    for (node, h) in driver.iter_handlers() {
        let s = &h.stats;
        state.extend([
            node.index() as u64,
            s.ticks,
            s.syn_sent,
            s.entries_adopted,
            s.self_updates,
            s.digest_mismatches,
        ]);
        state.extend(s.leg_messages);
        state.extend(s.leg_bits);
        state.extend(h.store().digest());
        state.push(h.estimate(now).unwrap_or(f64::NAN).to_bits());
    }
    (
        driver.order_hash(),
        driver.events_dispatched(),
        fnv_fold(state),
    )
}

#[test]
fn max_gossip_handler_is_pinned_on_the_events_churn_shape() {
    let golden: Pin = (0x3FEC_C6C8_2796_171B, 154_694, 0x3C42_5637_DB81_BED4);
    for shards in shard_counts() {
        assert_eq!(max_gossip_run(shards), golden, "at {shards} shard(s)");
    }
}

#[test]
fn dense_ae_node_is_pinned_under_e17_churn() {
    let golden: Pin = (0xD3B2_B9BB_9353_52C7, 38_342, 0xFC69_AEB3_0DC1_5A79);
    for shards in shard_counts() {
        assert_eq!(
            ae_run(DigestMode::Dense, shards),
            golden,
            "at {shards} shard(s)"
        );
    }
}

#[test]
fn merkle_ae_node_is_pinned_under_e17_churn() {
    let golden: Pin = (0x858B_79D2_E0B4_121E, 289_060, 0x9DEF_943C_F2DB_E09C);
    for shards in shard_counts() {
        assert_eq!(
            ae_run(DigestMode::Merkle, shards),
            golden,
            "at {shards} shard(s)"
        );
    }
}
