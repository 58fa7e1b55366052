//! Helpers shared by the runtime integration-test binaries.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use gossip_drr::protocol::DrrGossipReport;
use gossip_net::Metrics;
use gossip_runtime::{AsyncConfig, AsyncMetrics, ShardedTransport};

/// Shard counts exercised by the sharded-engine tests. CI pins the ladder
/// explicitly via `GOSSIP_TEST_SHARDS` (a comma-separated list — the
/// experiment-smoke job adds an uneven count like 13 for ragged-chunking
/// coverage); the default is {1, 2, 8}, so a plain `cargo test` covers the
/// acceptance ladder too.
pub fn shard_counts() -> Vec<usize> {
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

/// Word-level FNV-1a fold behind the golden fingerprints: every observable
/// of a round-barrier run, folded in a fixed order into one `u64`.
///
/// The pinned constants were captured from the retired one-queue
/// round-barrier engine at commit a009c6c (the last one that had it),
/// which was the only oracle for latency, churn, bandwidth and deadline
/// verdicts outside the compatibility configuration; CHANGES.md (PR 22)
/// has the procedure. Re-pin them only in a change whose stated point is
/// to move the facade's RNG order.
#[derive(Clone, Copy, Debug)]
pub struct Golden(u64);

impl Golden {
    pub fn new() -> Self {
        Golden(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(mut self, w: u64) -> Self {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        self
    }

    /// Fold a sequence and then its length (so `[a], [b]` ≠ `[a, b], []`).
    pub fn words(self, ws: impl IntoIterator<Item = u64>) -> Self {
        let mut len = 0u64;
        let folded = ws.into_iter().fold(self, |g, w| {
            len += 1;
            g.word(w)
        });
        folded.word(len)
    }

    /// Bit patterns, so NaN estimates at crashed nodes compare equal.
    pub fn f64s(self, xs: &[f64]) -> Self {
        self.words(xs.iter().map(|x| x.to_bits()))
    }

    pub fn bools(self, xs: &[bool]) -> Self {
        self.words(xs.iter().map(|&b| u64::from(b)))
    }

    /// Estimate bits, rounds, messages and the alive vector of a
    /// DRR-gossip run.
    pub fn report(self, report: &DrrGossipReport) -> Self {
        self.f64s(&report.estimates)
            .word(report.total_rounds)
            .word(report.total_messages)
            .bools(&report.alive)
    }

    /// Every field of the protocol metrics.
    pub fn net_metrics(self, m: &Metrics) -> Self {
        let g = self
            .word(m.rounds())
            .word(m.total_messages())
            .word(m.total_dropped())
            .word(m.total_bits())
            .word(u64::from(m.max_message_bits()))
            .words(m.per_round_messages().iter().copied());
        m.breakdown().iter().fold(g, |g, p| {
            g.word(p.phase as u64)
                .word(p.messages)
                .word(p.dropped)
                .word(p.bits)
        })
    }

    /// Every field of the engine metrics, the latency histogram bucket by
    /// bucket.
    pub fn async_metrics(self, m: &AsyncMetrics) -> Self {
        let latency = &m.latency;
        self.word(m.late_drops)
            .word(m.bandwidth_drops)
            .word(m.churn_crashes)
            .word(m.churn_rejoins)
            .word(latency.count())
            .word(latency.sum())
            .word(latency.min())
            .word(latency.max())
            .words(latency.buckets().flat_map(|(upper, count)| [upper, count]))
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Run `run` on a fresh facade and fingerprint what it returns together
/// with the virtual clock and every engine metric it left behind.
pub fn golden_of(
    config: &AsyncConfig,
    shards: usize,
    run: impl FnOnce(&mut ShardedTransport) -> Golden,
) -> u64 {
    let mut facade = ShardedTransport::new(config.clone(), shards);
    run(&mut facade)
        .word(facade.now_us())
        .async_metrics(&facade.async_metrics())
        .finish()
}

pub fn check_golden(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: the facade left its golden fingerprint (got {got:#018X}, pinned {want:#018X})"
    );
}

/// The facade must reproduce `want` at every shard count CI pins. (The
/// argument partitions nothing any more, so this is cheap to hold; the
/// ladder stays because the goldens were pinned across it.)
pub fn assert_golden(
    name: &str,
    config: &AsyncConfig,
    want: u64,
    run: impl Fn(&mut ShardedTransport) -> Golden,
) {
    for shards in shard_counts() {
        check_golden(
            &format!("{name} at {shards} shard(s)"),
            golden_of(config, shards, &run),
            want,
        );
    }
}
