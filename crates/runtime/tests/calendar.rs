//! The calendar queue at a seconds time scale, through the driver: a run
//! whose events wait on every level of the queue — one-second ticks
//! (deep in the second level), 20–150 ms deliveries (a few revolutions
//! out) and nine-second timers (beyond the second level's horizon, in the
//! overflow) — must dispatch in the same total order at every shard count
//! (CI pins the ladder via `GOSSIP_TEST_SHARDS`), under any slicing and on
//! either thread path. The fingerprint is pinned to what the one-level,
//! one-microsecond sweep produced at commit 6d8057f: no level may move an
//! event. (`shard::tests` holds the queue alone to that sweep, pop for
//! pop.)

use gossip_net::{Handler, Mailbox, Metrics, NodeId, Phase, SimConfig, TimerId};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver};

mod common;
use common::shard_counts;

const TICK: TimerId = TimerId(1);
const SLOW: TimerId = TimerId(2);
const TICK_US: u64 = 1_000_000;
const SLOW_US: u64 = 9_000_000;

/// Pings a random peer every second and every nine; a ping is forwarded
/// until its hop budget runs out.
#[derive(Debug)]
struct Beacon {
    me: NodeId,
    heard: u64,
}

impl Handler for Beacon {
    type Msg = u8;

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<u8>) {
        let i = self.me.index() as u64;
        mailbox.set_timer(1 + i * 7_919 % TICK_US, TICK);
        mailbox.set_timer(SLOW_US - i * 131 % 1_000, SLOW);
    }

    fn on_message(&mut self, _from: NodeId, hops: u8, mailbox: &mut dyn Mailbox<u8>) {
        self.heard += 1;
        if hops > 0 {
            let peer = mailbox.sample_peer();
            mailbox.send(peer, Phase::Other, 8, hops - 1);
        }
    }

    fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<u8>) {
        let (hops, period_us) = if timer == TICK {
            (2, TICK_US)
        } else {
            (0, SLOW_US)
        };
        let peer = mailbox.sample_peer();
        mailbox.send(peer, Phase::Other, 8, hops);
        mailbox.set_timer(period_us, timer);
    }
}

fn driver(shards: usize) -> ShardedDriver<Beacon> {
    let config = AsyncConfig::new(SimConfig::new(96).with_seed(0xCA1E).with_loss_prob(0.02))
        .with_latency(LatencyModel::Uniform {
            lo_us: 20_000,
            hi_us: 150_000,
        })
        .with_churn(ChurnModel::per_round(0.03, 0.3).with_min_alive(48));
    ShardedDriver::new(config, shards, |me| Beacon { me, heard: 0 }).with_window_us(TICK_US)
}

const END_US: u64 = 30 * TICK_US;

type Fingerprint = (u64, u64, Metrics, Vec<u64>);

fn fingerprint(d: &ShardedDriver<Beacon>) -> Fingerprint {
    (
        d.order_hash(),
        d.events_dispatched(),
        d.net_metrics(),
        d.iter_handlers().map(|(_, h)| h.heard).collect(),
    )
}

#[test]
fn seconds_scale_runs_keep_their_order_at_every_shard_count_slicing_and_thread_path() {
    let mut reference = driver(1);
    reference.run_until(END_US);
    let reference = fingerprint(&reference);
    // The one-level sweep's values for this run (captured at 6d8057f).
    assert_eq!(
        (reference.0, reference.1, reference.2.total_messages()),
        (GOLDEN_ORDER_HASH, GOLDEN_EVENTS, GOLDEN_MESSAGES),
        "the two-level queue moved an event the sweep did not"
    );
    assert_eq!(reference.2.rounds(), 30, "one round per one-second window");
    assert!(
        reference.3.iter().sum::<u64>() > 5_000,
        "pings were delivered (rejoiners restart their count)"
    );

    for shards in shard_counts() {
        for parallel in [false, true] {
            let mut whole = driver(shards).with_parallel(parallel);
            whole.run_until(END_US);
            assert_eq!(
                fingerprint(&whole),
                reference,
                "{shards} shard(s), parallel = {parallel}"
            );

            // Quarter-second slices (the benchmark's cold start), then
            // uneven ones that end mid-epoch, on a revolution boundary and
            // on a second-level wrap (1024 × 4096 µs).
            let mut quarters = driver(shards).with_parallel(parallel);
            for k in 1..=END_US / 250_000 {
                quarters.run_until(k * 250_000);
            }
            assert_eq!(
                fingerprint(&quarters),
                reference,
                "{shards} shard(s), parallel = {parallel}, quarter-second slices"
            );
            let mut uneven = driver(shards).with_parallel(parallel);
            for t in [
                1, 4_095, 4_096, 20_001, 999_999, 4_194_303, 4_194_304, 4_194_305, 9_000_000,
                17_123_457, END_US,
            ] {
                uneven.run_until(t);
            }
            assert_eq!(
                fingerprint(&uneven),
                reference,
                "{shards} shard(s), parallel = {parallel}, uneven slices"
            );
        }
    }
}

const GOLDEN_ORDER_HASH: u64 = 0x2425207F30A275E3;
const GOLDEN_EVENTS: u64 = 10_845;
const GOLDEN_MESSAGES: u64 = 7_810;
