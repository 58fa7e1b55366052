//! Golden fingerprints of every DRR-gossip composite: Algorithm 7 (Max and
//! Min), Algorithm 8 (Average) and its unit-weight variant (Sum, Count,
//! Rank) on a lossy `Network` with initial crashes, and the sparse chains
//! of Section 4 on a Chord overlay and on a d-regular graph.
//!
//! Each fingerprint folds every field of the `DrrGossipReport` a run
//! returns, so a change to any RNG draw, send, phase boundary or phase name
//! moves it. The constants were captured at commit a8f688d, before the
//! composites were folded into one chain per algorithm; they may move only
//! in a change whose stated point is to change what the protocols do.

use gossip_drr::{
    drr_gossip_ave, drr_gossip_count, drr_gossip_max, drr_gossip_min, drr_gossip_rank,
    drr_gossip_sum, sparse_drr_gossip_ave, sparse_drr_gossip_max, DrrGossipConfig, DrrGossipReport,
    NodeStatus, SparseGossipConfig,
};
use gossip_net::{Network, SimConfig};
use gossip_topology::{d_regular, ChordOverlay, ChordSampler, RandomWalkSampler};

/// Word-level FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// A sequence, then its length.
    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let mut len = 0;
        for w in ws {
            self.word(w);
            len += 1;
        }
        self.word(len);
    }
}

fn fingerprint(report: &DrrGossipReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.words(report.estimates.iter().map(|e| e.to_bits()));
    h.words(report.statuses.iter().map(|s| match s {
        NodeStatus::Informed => 1,
        NodeStatus::Stale => 2,
        NodeStatus::Crashed => 3,
    }));
    h.word(report.exact.to_bits());
    h.words(report.alive.iter().map(|&a| u64::from(a)));
    let forest = &report.forest_stats;
    h.word(forest.num_trees as u64);
    h.word(forest.max_tree_size as u64);
    h.word(forest.mean_tree_size.to_bits());
    h.word(forest.max_height as u64);
    for phase in &report.phases {
        h.words(phase.name.bytes().map(u64::from));
        h.word(phase.rounds);
        h.word(phase.messages);
    }
    h.word(report.phases.len() as u64);
    h.word(report.total_rounds);
    h.word(report.total_messages);
    let metrics = &report.metrics;
    h.word(metrics.total_bits());
    h.word(metrics.total_dropped());
    for p in metrics.breakdown() {
        h.word(p.phase as u64);
        h.word(p.messages);
        h.word(p.dropped);
        h.word(p.bits);
    }
    h.0
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7919) % 1009) as f64 * 0.5).collect()
}

fn lossy(n: usize, seed: u64) -> Network {
    Network::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(0.05)
            .with_initial_crash_prob(0.1)
            .with_value_range(505.0),
    )
}

/// Compare every fingerprint with its pin and report all that moved.
fn check(cases: &[(&str, u64, u64)]) {
    let moved: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018X}, pinned {want:#018X}"))
        .collect();
    assert!(
        moved.is_empty(),
        "chains left their goldens:\n{}",
        moved.join("\n")
    );
}

#[test]
fn dense_chains_reproduce_their_goldens() {
    let n = 1500;
    let vals = values(n);
    let config = DrrGossipConfig::paper();
    let run = |seed, chain: &dyn Fn(&mut Network) -> DrrGossipReport| {
        fingerprint(&chain(&mut lossy(n, seed)))
    };
    check(&[
        (
            "drr_gossip_max",
            run(31, &|net| drr_gossip_max(net, &vals, &config)),
            GOLDEN_MAX,
        ),
        (
            "drr_gossip_ave",
            run(32, &|net| drr_gossip_ave(net, &vals, &config)),
            GOLDEN_AVE,
        ),
        (
            "drr_gossip_sum",
            run(33, &|net| drr_gossip_sum(net, &vals, &config)),
            GOLDEN_SUM,
        ),
        (
            "drr_gossip_count",
            run(34, &|net| drr_gossip_count(net, &config)),
            GOLDEN_COUNT,
        ),
        (
            "drr_gossip_rank",
            run(35, &|net| drr_gossip_rank(net, &vals, 200.0, &config)),
            GOLDEN_RANK,
        ),
        (
            "drr_gossip_min",
            run(36, &|net| drr_gossip_min(net, &vals, &config)),
            GOLDEN_MIN,
        ),
    ]);
}

#[test]
fn sparse_chains_reproduce_their_goldens() {
    let n = 1024;
    let vals = values(n);
    let config = SparseGossipConfig;
    let overlay = ChordOverlay::new(n);
    let chord = overlay.graph();
    let chord_sampler = ChordSampler::new(&overlay);
    let regular = d_regular(n, 8, 41);
    let walk = RandomWalkSampler::new(&regular, 2 * gossip_net::id_bits(n) as usize);
    check(&[
        (
            "sparse_drr_gossip_max on Chord",
            fingerprint(&sparse_drr_gossip_max(
                &mut lossy(n, 37),
                &chord,
                &chord_sampler,
                &vals,
                &config,
            )),
            GOLDEN_SPARSE_MAX_CHORD,
        ),
        (
            "sparse_drr_gossip_ave on Chord",
            fingerprint(&sparse_drr_gossip_ave(
                &mut lossy(n, 38),
                &chord,
                &chord_sampler,
                &vals,
                &config,
            )),
            GOLDEN_SPARSE_AVE_CHORD,
        ),
        (
            "sparse_drr_gossip_max on 8-regular",
            fingerprint(&sparse_drr_gossip_max(
                &mut lossy(n, 39),
                &regular,
                &walk,
                &vals,
                &config,
            )),
            GOLDEN_SPARSE_MAX_REGULAR,
        ),
        (
            "sparse_drr_gossip_ave on 8-regular",
            fingerprint(&sparse_drr_gossip_ave(
                &mut lossy(n, 40),
                &regular,
                &walk,
                &vals,
                &config,
            )),
            GOLDEN_SPARSE_AVE_REGULAR,
        ),
    ]);
}

const GOLDEN_MAX: u64 = 0x4841_63BF_47B4_0623;
const GOLDEN_AVE: u64 = 0x354A_FA41_6912_2EFB;
const GOLDEN_SUM: u64 = 0x3A4E_EF66_5C97_A7CB;
const GOLDEN_COUNT: u64 = 0x61C1_E60F_7396_297B;
const GOLDEN_RANK: u64 = 0x18DA_2967_3545_E727;
const GOLDEN_MIN: u64 = 0x4149_7367_3245_27BE;
const GOLDEN_SPARSE_MAX_CHORD: u64 = 0x8AB5_AB39_6C19_14B1;
const GOLDEN_SPARSE_AVE_CHORD: u64 = 0x2330_614A_4B55_90A0;
const GOLDEN_SPARSE_MAX_REGULAR: u64 = 0xEE4A_47D4_C946_8DA5;
const GOLDEN_SPARSE_AVE_REGULAR: u64 = 0xC038_FE2C_A3BB_D053;
