//! Golden fingerprints of the three push-sum baselines — uniform push-sum on
//! a lossy `Network` with initial crashes, routed push-sum on Chord, and
//! Kashyap et al.'s efficient gossip on a lossy `Network` with crashes —
//! and of uniform push-max, push-only and push-pull, on a lossy `Network`
//! with crashes.
//!
//! Each fingerprint folds every field of the outcome a run returns and the
//! transport's per-phase counters, so a change to any RNG draw, send,
//! round boundary or phase name moves it. The push-sum constants were
//! captured at commit 85d03b6, before the baselines and Algorithm 6 were
//! folded into one push-sum loop; the push-max ones at commit fb4ff11,
//! before push-max and Algorithm 4 were folded into one push-max loop.
//! They may move only in a change whose stated point is to change what the
//! protocols do.

use gossip_baselines::{
    efficient_gossip_average, push_max, push_sum_average, routed_push_sum_average,
    EfficientGossipConfig, PushMaxConfig, PushSumConfig, PushSumOutcome,
};
use gossip_net::{Network, SimConfig, Transport};
use gossip_topology::{ChordOverlay, ChordSampler};

/// Word-level FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

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

    /// What the transport counted: bits, drops and the per-phase rows.
    fn metrics(&mut self, net: &Network) {
        let metrics = net.metrics();
        self.word(metrics.total_messages());
        self.word(metrics.total_bits());
        self.word(metrics.total_dropped());
        self.word(metrics.rounds());
        for p in metrics.breakdown() {
            self.word(p.phase as u64);
            self.word(p.messages);
            self.word(p.dropped);
            self.word(p.bits);
        }
    }
}

fn push_sum_fingerprint(out: &PushSumOutcome, net: &Network) -> u64 {
    let mut h = Fnv::new();
    h.words(out.estimates.iter().map(|e| e.to_bits()));
    h.word(out.true_average.to_bits());
    h.word(out.rounds);
    h.word(out.messages);
    h.words(out.max_error_trace.iter().map(|e| e.to_bits()));
    h.metrics(net);
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
        "baselines left their goldens:\n{}",
        moved.join("\n")
    );
}

#[test]
fn baselines_reproduce_their_goldens() {
    let uniform = {
        let n = 1500;
        let mut net = lossy(n, 51);
        let out = push_sum_average(&mut net, &values(n), &PushSumConfig::default());
        push_sum_fingerprint(&out, &net)
    };
    let routed = {
        let n = 1024;
        let overlay = ChordOverlay::new(n);
        let sampler = ChordSampler::new(&overlay);
        let mut net = lossy(n, 52);
        let out =
            routed_push_sum_average(&mut net, &sampler, &values(n), &PushSumConfig::default());
        push_sum_fingerprint(&out, &net)
    };
    let efficient = {
        let n = 1500;
        let mut net = lossy(n, 53);
        let out = efficient_gossip_average(&mut net, &values(n), &EfficientGossipConfig::default());
        let mut h = Fnv::new();
        h.words(out.estimates.iter().map(|e| e.to_bits()));
        h.word(out.true_average.to_bits());
        h.word(out.rounds);
        h.word(out.messages);
        h.word(out.num_groups as u64);
        h.word(out.merge_phases);
        for phase in &out.phases {
            h.words(phase.name.bytes().map(u64::from));
            h.word(phase.rounds);
            h.word(phase.messages);
        }
        h.word(out.phases.len() as u64);
        h.metrics(&net);
        h.0
    };
    check(&[
        ("push_sum_average", uniform, GOLDEN_PUSH_SUM),
        (
            "routed_push_sum_average on Chord",
            routed,
            GOLDEN_ROUTED_CHORD,
        ),
        ("efficient_gossip_average", efficient, GOLDEN_EFFICIENT),
    ]);
}

#[test]
fn push_max_reproduces_its_goldens() {
    let run = |seed: u64, config: &PushMaxConfig| {
        let n = 1500;
        let mut net = lossy(n, seed);
        let out = push_max(&mut net, &values(n), config);
        let mut h = Fnv::new();
        h.words(out.estimates.iter().map(|e| e.to_bits()));
        h.word(out.true_max.to_bits());
        h.word(out.rounds);
        h.word(out.messages);
        h.words(out.coverage_trace.iter().map(|c| c.to_bits()));
        h.words(out.message_trace.iter().copied());
        h.metrics(&net);
        (h.0, out.rounds)
    };
    let (push_only, _) = run(54, &PushMaxConfig::default());
    let push_pull_config = PushMaxConfig {
        pull: true,
        stop_at_full_coverage: true,
        ..PushMaxConfig::default()
    };
    let (push_pull, rounds) = run(55, &push_pull_config);
    // Push-pull stops at full coverage, before its ⌈4 · log₂ 1500⌉ = 44
    // rounds are up, so the early exit is pinned too.
    assert!(rounds < 44, "push-pull ran all {rounds} rounds");
    check(&[
        ("push_max, push only", push_only, GOLDEN_PUSH_MAX),
        ("push_max, push-pull", push_pull, GOLDEN_PUSH_PULL_MAX),
    ]);
}

const GOLDEN_PUSH_MAX: u64 = 0x3AC9_FA17_A432_EFC8;
const GOLDEN_PUSH_PULL_MAX: u64 = 0x87F8_C783_28AA_EEA5;
const GOLDEN_PUSH_SUM: u64 = 0x91EA_1C69_4EA0_CB61;
const GOLDEN_ROUTED_CHORD: u64 = 0x11D2_D14C_7E81_62E8;
const GOLDEN_EFFICIENT: u64 = 0x4D3C_6693_9729_31EF;
