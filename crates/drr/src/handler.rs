//! A round protocol under the event-driven API: uniform gossip-max as a
//! [`Handler`].
//!
//! The round-based backends run uniform push-max as a coordinator loop
//! (`gossip_baselines::push_max_all`): every round, every node pushes its
//! current maximum to one random peer, with a global barrier between
//! rounds. [`MaxGossipHandler`] is the same protocol re-expressed in the
//! event-driven model — the per-round barrier becomes a per-node interval
//! timer, the push becomes a timer callback — which makes it the adapter
//! showing how the existing round protocols port onto the [`Handler`] API
//! hosted by `gossip_runtime::ShardedDriver`. The aggregate computed is
//! identical (both drive toward `max_i v_i`); what changes is purely the
//! execution model: no barrier, nodes tick out of phase, churned-and-
//! rejoined nodes re-enter cleanly via `on_start` (they rejoin knowing
//! only their own value and are re-infected by the next push), and the
//! protocol keeps running — it *tracks* the maximum instead of computing it
//! once.

use gossip_net::{stagger_us, Handler, Mailbox, NodeId, Phase, TimerId};
use serde::{Deserialize, Serialize};

/// The push timer of [`MaxGossipHandler`].
pub const TIMER_PUSH: TimerId = TimerId(0);

/// Parameters of the event-driven uniform gossip-max.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MaxGossipConfig {
    /// Push interval (µs) — the event-driven analogue of one round.
    pub push_interval_us: u64,
    /// Peers pushed to per interval (1 mirrors the phone-call model).
    pub fanout: usize,
    /// Modelled wire size of one push (bits); use the backend's
    /// `id_bits + value_bits` for parity with the round-based accounting.
    pub bits: u32,
}

impl Default for MaxGossipConfig {
    fn default() -> Self {
        MaxGossipConfig {
            push_interval_us: 1_000,
            fanout: 1,
            bits: 64,
        }
    }
}

/// Per-node state of the event-driven uniform gossip-max. Build one per
/// node with the node's own input value; the factory closure given to the
/// driver captures the value vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaxGossipHandler {
    me: NodeId,
    config: MaxGossipConfig,
    /// The node's own input (what a rejoiner restarts with).
    own: f64,
    current: f64,
}

impl MaxGossipHandler {
    /// A node holding input value `own`.
    pub fn new(me: NodeId, own: f64, config: MaxGossipConfig) -> Self {
        MaxGossipHandler {
            me,
            config,
            own,
            current: own,
        }
    }

    /// The node's current estimate of the global maximum.
    pub fn current_max(&self) -> f64 {
        self.current
    }
}

impl Handler for MaxGossipHandler {
    type Msg = f64;

    fn on_start(&mut self, mailbox: &mut dyn Mailbox<f64>) {
        self.current = self.own;
        // Stagger the first push across the interval so the network does
        // not tick in lockstep (deterministic per-node offset).
        mailbox.set_timer(
            stagger_us(self.me, self.config.push_interval_us, 0),
            TIMER_PUSH,
        );
    }

    fn on_message(&mut self, _from: NodeId, msg: f64, _mailbox: &mut dyn Mailbox<f64>) {
        self.current = self.current.max(msg);
    }

    fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<f64>) {
        debug_assert_eq!(timer, TIMER_PUSH);
        for _ in 0..self.config.fanout {
            let peer = mailbox.sample_peer();
            mailbox.send(peer, Phase::UniformGossip, self.config.bits, self.current);
        }
        mailbox.set_timer(self.config.push_interval_us, TIMER_PUSH);
    }

    fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        // `set_gauge` overwrites, so across many local handlers the page
        // shows the *last* node's view — for a converged run they all
        // agree, which is exactly what the gauge is for.
        registry.set_gauge(
            "max_gossip_current",
            "This host's current estimate of the global maximum",
            &[],
            self.current,
        );
    }

    fn status_lines(&self, _now_us: u64) -> Vec<(String, String)> {
        vec![
            ("max.current".to_string(), format!("{}", self.current)),
            ("max.own".to_string(), format!("{}", self.own)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{drr_gossip_max, DrrGossipConfig};
    use gossip_net::{Network, SimConfig};
    use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver};

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % 1009) as f64).collect()
    }

    fn driver(n: usize, seed: u64, churn: ChurnModel) -> ShardedDriver<MaxGossipHandler> {
        let sim = SimConfig::new(n).with_seed(seed).with_loss_prob(0.05);
        let config = AsyncConfig::new(sim.clone())
            .with_latency(LatencyModel::Uniform {
                lo_us: 100,
                hi_us: 900,
            })
            .with_churn(churn);
        let vals = values(n);
        let handler_config = MaxGossipConfig {
            bits: sim.id_bits() + sim.value_bits(),
            ..MaxGossipConfig::default()
        };
        ShardedDriver::new(config, 1, move |me| {
            MaxGossipHandler::new(me, vals[me.index()], handler_config)
        })
    }

    #[test]
    fn event_driven_run_agrees_with_the_round_protocol() {
        // Same workload on both execution models: the round-based composite
        // DRR-gossip-max on the synchronous Network, and the event-driven
        // uniform gossip under the driver. Both must land every node on the
        // identical global maximum.
        let n = 512;
        let vals = values(n);
        let mut net = Network::new(SimConfig::new(n).with_seed(9));
        let report = drr_gossip_max(&mut net, &vals, &DrrGossipConfig::paper());
        assert_eq!(report.fraction_exact(), 1.0, "round-based baseline");

        let mut d = driver(n, 9, ChurnModel::none());
        d.run_until(40_000); // 40 push intervals ≫ O(log n) rounds
        for (node, h) in d.iter_handlers() {
            assert_eq!(
                h.current_max(),
                report.exact,
                "node {node:?} disagrees with the round-based result"
            );
        }
    }

    #[test]
    fn rejoiners_are_reinfected_instead_of_staying_stale() {
        let n = 256;
        let mut d = driver(
            n,
            21,
            ChurnModel::per_round(0.01, 0.2).with_min_alive(n / 2),
        );
        d.run_until(120_000);
        let rejoins = d.rejoin_log().len();
        assert!(rejoins > 0, "churn produced rejoins");
        let exact = values(n).into_iter().fold(f64::NEG_INFINITY, f64::max);
        let settled = d
            .alive_nodes()
            .filter(|&v| d.handler(v).current_max() == exact)
            .count();
        // The continuous protocol re-infects rejoiners: the overwhelming
        // majority of the alive set holds the exact maximum despite churn.
        assert!(
            settled * 10 >= d.alive_count() * 9,
            "{settled}/{} alive nodes hold the maximum",
            d.alive_count()
        );
    }

    #[test]
    fn sharded_host_converges_and_is_shard_count_invariant() {
        // The handler must drive every node to the exact maximum, and the
        // run — order hash and every node's store — must not depend on how
        // the node space is partitioned.
        let n = 256;
        let vals = values(n);
        let exact = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let run = |shards| {
            let sim = SimConfig::new(n).with_seed(13).with_loss_prob(0.05);
            let handler_config = MaxGossipConfig {
                bits: sim.id_bits() + sim.value_bits(),
                ..MaxGossipConfig::default()
            };
            let config = AsyncConfig::new(sim).with_latency(LatencyModel::Uniform {
                lo_us: 100,
                hi_us: 900,
            });
            let vals = values(n);
            let mut d = ShardedDriver::new(config, shards, move |me| {
                MaxGossipHandler::new(me, vals[me.index()], handler_config)
            });
            d.run_until(40_000);
            let maxima: Vec<u64> = d
                .iter_handlers()
                .map(|(_, h)| h.current_max().to_bits())
                .collect();
            (d.order_hash(), maxima)
        };
        let (hash, maxima) = run(1);
        assert!(
            maxima.iter().all(|&m| f64::from_bits(m) == exact),
            "every node must hold the exact maximum"
        );
        assert_eq!((hash, maxima.clone()), run(2));
        assert_eq!((hash, maxima), run(8));
    }

    #[test]
    fn runs_reproduce_bit_for_bit() {
        let fingerprint = |seed| {
            let mut d = driver(128, seed, ChurnModel::per_round(0.02, 0.1));
            d.run_until(50_000);
            let maxima: Vec<u64> = d
                .iter_handlers()
                .map(|(_, h)| h.current_max().to_bits())
                .collect();
            (maxima, d.order_hash())
        };
        assert_eq!(fingerprint(5), fingerprint(5));
        assert_ne!(fingerprint(5), fingerprint(6));
    }
}
