//! Absolute pins for the timer-driven handlers the determinism suites
//! otherwise only hold equal across shard counts: `MaxGossipHandler` on
//! the `events-churn` benchmark workload's shape, `AeNode` in dense and in
//! Merkle mode under E17-style churn, and `AeNode` wrapped in the SWIM
//! `Member` layer with join-via-seed bootstrap. Each run is pinned by its
//! dispatch-order hash, its event count and an FNV-1a fold of every node's
//! final state, at every shard count of the ladder. A change to any of
//! these handlers' tick loops that moves a send, an RNG draw or a byte of
//! state fails here even when it stays self-consistent across shard
//! counts.
//!
//! Honors `GOSSIP_TEST_SHARDS` (comma-separated shard counts) like the
//! other determinism suites.

use drr_gossip::ae::{ae_driver, AeConfig, AeNode, DigestMode, SignalModel};
use drr_gossip::drr::handler::{MaxGossipConfig, MaxGossipHandler};
use drr_gossip::member::{Member, MemberConfig, MemberStats};
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

/// Every counter of one node's membership layer.
fn member_stats_words(s: &MemberStats) -> [u64; 21] {
    [
        s.probes_sent,
        s.pings_rx,
        s.acks_rx,
        s.acks_relayed,
        s.ping_reqs_sent,
        s.ping_reqs_rx,
        s.suspicions_local,
        s.suspicions_learned,
        s.refutations,
        s.false_suspicions,
        s.deaths_declared,
        s.deaths_learned,
        s.joins_seen,
        s.joins_sent,
        s.joins_answered,
        s.leaves_rx,
        s.updates_piggybacked,
        s.updates_applied,
        s.stale_updates,
        s.forged_unknown_subject,
        s.forged_self_dead,
    ]
}

/// `Member<AeNode>` at n = 64: dense anti-entropy under the SWIM layer,
/// everyone joining through seeds 0 and 1, probing once per AE tick with
/// a quarter-tick RTT deadline that 300–2 500 µs latency often misses (so
/// ping-reqs, suspicions and refutations all happen), 2 % loss, and 1 %
/// crashes and 25 % rejoins per tick above an n/2 floor (so rejoiners
/// join again); 100 ticks. The wrapped node samples the live view, every
/// message carries budget-fitted rumors, and the state fold covers each
/// node's membership counters, incarnation and view next to the AE state,
/// then the run's total modelled bits.
fn member_ae_run(shards: usize) -> Pin {
    let n = 64;
    let sim = SimConfig::new(n)
        .with_seed(0x5_31F7)
        .with_loss_prob(0.02)
        .with_value_range(10_000.0);
    let (id_bits, value_bits) = (sim.id_bits(), sim.value_bits());
    let engine = AsyncConfig::new(sim)
        .with_latency(LatencyModel::Uniform {
            lo_us: 300,
            hi_us: 2_500,
        })
        .with_churn(ChurnModel::per_round(0.01, 0.25).with_min_alive(n / 2));
    let ae = AeConfig::default()
        .with_signal(SignalModel::uniform(0.0, 10_000.0).with_drift_per_s(1_000.0));
    let member = MemberConfig::with_seeds(vec![NodeId::new(0), NodeId::new(1)])
        .with_probe_interval_us(ae.tick_us);
    let mut driver = ShardedDriver::new(engine, shards, move |me: NodeId| {
        Member::new(member.clone(), AeNode::new(me, n, id_bits, value_bits, ae))
    })
    .with_window_us(ae.tick_us);
    driver.run_until(100 * ae.tick_us);
    let now = driver.now_us();
    let mut state = Vec::new();
    for (node, m) in driver.iter_handlers() {
        let (alive, suspect, dead, unknown) = m.view_counts();
        state.push(node.index() as u64);
        state.extend(member_stats_words(m.stats()));
        state.extend([
            m.incarnation(),
            u64::from(m.is_joined()),
            alive as u64,
            suspect as u64,
            dead as u64,
            unknown as u64,
        ]);
        state.extend(m.live_view().iter().map(|p| p.index() as u64));
        let h = m.inner();
        let s = &h.stats;
        state.extend([s.ticks, s.syn_sent, s.entries_adopted, s.self_updates]);
        state.extend(s.leg_messages);
        state.extend(s.leg_bits);
        state.extend(h.store().digest());
        state.push(h.estimate(now).unwrap_or(f64::NAN).to_bits());
    }
    state.push(driver.net_metrics().total_bits());
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

#[test]
fn member_wrapped_ae_node_is_pinned_with_seeded_joins_under_churn() {
    let golden: Pin = (0xDD94_2312_E11C_AB00, 116_049, 0x9DC8_ADB4_E03B_57E1);
    for shards in shard_counts() {
        assert_eq!(member_ae_run(shards), golden, "at {shards} shard(s)");
    }
}
