//! The simulated network: RNG, failure model, liveness and message delivery.

use crate::bits::SETUP_STREAM_SALT;
use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::node::NodeId;
use crate::phase::Phase;
use crate::transport::Transport;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A simulated `n`-node network in the random phone-call model.
///
/// `Network` owns the deterministic RNG, the failure model (initial crashes
/// and per-message loss) and the [`Metrics`], and implements the required
/// core of [`Transport`]; everything else callers use (`n`, `round`,
/// `nodes`, `sample_uniform`, `send_with_retries`, ...) is the trait's
/// default methods. Every transmission goes through [`Transport::send`],
/// and each synchronous round is closed with [`Transport::advance_round`].
#[derive(Clone, Debug)]
pub struct Network {
    config: SimConfig,
    rng: SmallRng,
    alive: Vec<bool>,
    alive_count: usize,
    metrics: Metrics,
}

impl Network {
    /// Build a network from a configuration, applying initial crashes.
    ///
    /// # Panics
    /// Panics if the configuration fails [`SimConfig::validate`] (possible
    /// only for configurations built by struct literal — the builder
    /// methods uphold the invariants individually).
    pub fn new(config: SimConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid SimConfig: {msg}");
        }
        let (alive, alive_count, rng) = draw_initial_liveness(&config);
        Network {
            config,
            rng,
            alive,
            alive_count,
            metrics: Metrics::new(),
        }
    }
}

/// Draw the initial liveness pattern of `sim`: each node crashes
/// independently with probability `initial_crash_prob`, in node-id order,
/// from the `seed ^ SETUP_STREAM_SALT` stream; if every node crashed, node
/// 0 is revived so protocols always have a subject. Every backend starts
/// from this one draw — [`Network::new`] here, and the simulator's
/// `ShardedTransport` and `ShardedDriver` — so all of them see the same
/// alive set for the same `SimConfig`. Returns the liveness vector, the
/// alive count, and the stream positioned for the backend's subsequent
/// draws (loss and churn).
pub fn draw_initial_liveness(sim: &SimConfig) -> (Vec<bool>, usize, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(sim.seed ^ SETUP_STREAM_SALT);
    let mut alive = vec![true; sim.n];
    let mut alive_count = sim.n;
    if sim.initial_crash_prob > 0.0 {
        for slot in alive.iter_mut() {
            if rng.gen_bool(sim.initial_crash_prob) {
                *slot = false;
                alive_count -= 1;
            }
        }
        if alive_count == 0 {
            alive[0] = true;
            alive_count = 1;
        }
    }
    (alive, alive_count, rng)
}

impl Transport for Network {
    #[inline]
    fn config(&self) -> &SimConfig {
        &self.config
    }

    #[inline]
    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether a node is alive (did not crash before the protocol started).
    #[inline]
    fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    #[inline]
    fn alive_count(&self) -> usize {
        self.alive_count
    }

    #[inline]
    fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// The message is always *counted* (the paper's message complexity
    /// counts transmissions, not deliveries). It is delivered iff the
    /// sender is alive, the receiver is alive and it survives the lossy
    /// link (loss probability `δ`).
    #[inline]
    fn send(&mut self, from: NodeId, to: NodeId, phase: Phase, bits: u32) -> bool {
        debug_assert!(from.index() < self.config.n, "sender out of range");
        debug_assert!(to.index() < self.config.n, "receiver out of range");
        let mut delivered = self.alive[from.index()] && self.alive[to.index()];
        if delivered && self.config.loss_prob > 0.0 && self.rng.gen_bool(self.config.loss_prob) {
            delivered = false;
        }
        self.metrics.record_send(phase, bits, delivered);
        delivered
    }

    #[inline]
    fn advance_round(&mut self) {
        self.metrics.advance_round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Network {
        Network::new(SimConfig::new(n).with_seed(12345))
    }

    #[test]
    fn all_nodes_alive_without_crashes() {
        let net = net(100);
        assert_eq!(net.alive_count(), 100);
        assert!(net.nodes().all(|v| net.is_alive(v)));
        assert_eq!(net.alive_nodes().count(), 100);
    }

    #[test]
    fn crashes_reduce_alive_count_roughly_proportionally() {
        let net = Network::new(
            SimConfig::new(10_000)
                .with_seed(7)
                .with_initial_crash_prob(0.3),
        );
        let alive = net.alive_count();
        assert!(alive > 6_300 && alive < 7_700, "alive = {alive}");
        assert_eq!(net.alive_nodes().count(), alive);
    }

    #[test]
    fn at_least_one_node_survives_even_with_extreme_crash_prob() {
        let net = Network::new(
            SimConfig::new(50)
                .with_seed(3)
                .with_initial_crash_prob(0.999_999),
        );
        assert!(net.alive_count() >= 1);
    }

    #[test]
    fn lossless_send_always_delivers_between_alive_nodes() {
        let mut net = net(10);
        for i in 0..9 {
            assert!(net.send(NodeId::new(i), NodeId::new(i + 1), Phase::Other, 8));
        }
        assert_eq!(net.metrics().total_messages(), 9);
        assert_eq!(net.metrics().total_dropped(), 0);
    }

    #[test]
    fn lossy_send_drops_roughly_delta_fraction() {
        let mut net = Network::new(SimConfig::new(2).with_seed(99).with_loss_prob(0.25));
        let trials = 20_000;
        for _ in 0..trials {
            net.send(NodeId::new(0), NodeId::new(1), Phase::Other, 8);
        }
        let dropped = net.metrics().total_dropped() as f64 / trials as f64;
        assert!((dropped - 0.25).abs() < 0.02, "drop rate {dropped}");
    }

    #[test]
    fn messages_to_crashed_nodes_count_but_do_not_deliver() {
        let mut net = Network::new(
            SimConfig::new(1000)
                .with_seed(5)
                .with_initial_crash_prob(0.5),
        );
        let dead = net
            .nodes()
            .find(|&v| !net.is_alive(v))
            .expect("some node crashed");
        let alive = net.alive_nodes().next().unwrap();
        assert!(!net.send(alive, dead, Phase::Other, 8));
        assert!(!net.send(dead, alive, Phase::Other, 8));
        assert_eq!(net.metrics().total_messages(), 2);
        assert_eq!(net.metrics().total_dropped(), 2);
    }

    #[test]
    fn send_with_retries_eventually_delivers_on_lossy_link() {
        let mut net = Network::new(SimConfig::new(2).with_seed(1).with_loss_prob(0.5));
        let (attempts, ok) =
            net.send_with_retries(NodeId::new(0), NodeId::new(1), Phase::Other, 8, 64);
        assert!(ok);
        assert!((1..=64).contains(&attempts));
        assert_eq!(net.metrics().total_messages(), u64::from(attempts));
    }

    #[test]
    fn send_with_retries_gives_up_on_dead_endpoint() {
        let mut net = Network::new(
            SimConfig::new(100)
                .with_seed(8)
                .with_initial_crash_prob(0.5),
        );
        let dead = net.nodes().find(|&v| !net.is_alive(v)).unwrap();
        let alive = net.alive_nodes().next().unwrap();
        let (attempts, ok) = net.send_with_retries(alive, dead, Phase::Other, 8, 100);
        assert!(!ok);
        assert_eq!(attempts, 1, "should not retry against a crashed node");
    }

    #[test]
    fn sampling_is_uniform_ish() {
        let mut net = net(4);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[net.sample_uniform().index()] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn sample_other_than_never_returns_me_when_n_gt_1() {
        let mut net = net(3);
        for _ in 0..1000 {
            assert_ne!(net.sample_other_than(NodeId::new(1)), NodeId::new(1));
        }
    }

    #[test]
    fn sample_other_than_returns_me_for_singleton() {
        let mut net = net(1);
        assert_eq!(net.sample_other_than(NodeId::new(0)), NodeId::new(0));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut net = Network::new(SimConfig::new(64).with_seed(seed).with_loss_prob(0.1));
            let mut log = Vec::new();
            for _ in 0..200 {
                let a = net.sample_uniform();
                let b = net.sample_other_than(a);
                let ok = net.send(a, b, Phase::RootGossip, 16);
                log.push((a, b, ok));
            }
            (log, net.metrics().clone())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn rounds_advance() {
        let mut net = net(4);
        net.send(NodeId::new(0), NodeId::new(1), Phase::Other, 8);
        net.advance_round();
        net.advance_round();
        assert_eq!(net.round(), 2);
        assert_eq!(net.metrics().per_round_messages(), &[1, 0]);
    }
}
