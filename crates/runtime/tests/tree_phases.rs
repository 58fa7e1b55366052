//! Differential test for the frontier tree phases.
//!
//! `broadcast_down` and `convergecast` walk an active frontier instead of
//! sweeping all `n` nodes every round. The sweep implementations they
//! replaced are kept here, verbatim, as the reference oracle: on random
//! forests, with and without loss, under both reception models, on the
//! synchronous [`Network`] and on a churny [`ShardedTransport`], old and new
//! must agree on every output bit, every count, and the position of the
//! transport's RNG afterwards. The churn rows are the ones that catch a
//! cursor that skipped a dead child which later rejoins.

use gossip_aggregate::{Aggregate, Average, Max};
use gossip_drr::convergecast::{convergecast, ConvergecastOutcome, ReceptionModel};
use gossip_drr::{broadcast_down, BroadcastOutcome, Forest};
use gossip_net::{Network, NodeId, Phase, SimConfig, Transport};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedTransport};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

mod common;
use common::shard_counts;

/// The sweep `broadcast_down` of commit 78fe4d5: three passes over all `n`
/// nodes per round.
fn sweep_broadcast_down<T: Transport>(
    net: &mut T,
    forest: &Forest,
    reception: ReceptionModel,
    phase: Phase,
    payload_bits: u32,
) -> BroadcastOutcome {
    let n = net.n();
    assert_eq!(forest.n(), n, "forest must cover the network");
    let rounds_before = net.round();
    let messages_before = net.metrics().total_messages();

    // A node "has" the payload once its root's broadcast reaches it.
    let mut has: Vec<bool> = (0..n)
        .map(|i| {
            let v = NodeId::new(i);
            forest.is_root(v) && net.is_alive(v)
        })
        .collect();
    // Liveness is re-read every round (on churny backends nodes crash and
    // rejoin mid-phase); the phase ends when every alive node holds the
    // payload, or when it stops progressing (a crashed inner node cuts its
    // whole subtree off).
    let round_cap = 16 * (n as u64) + 64;
    let stall_cap = 64u32;
    let mut stalled_rounds = 0u32;
    let mut rounds_used = 0u64;
    while rounds_used < round_cap && stalled_rounds < stall_cap {
        let pending = (0..n)
            .filter(|&i| {
                let v = NodeId::new(i);
                net.is_alive(v) && !has[i]
            })
            .count();
        if pending == 0 {
            break;
        }
        // Snapshot the holders at the start of the round: a node that first
        // receives the payload this round may only forward it from the next
        // round on.
        let holders: Vec<usize> = (0..n)
            .filter(|&i| has[i] && net.is_alive(NodeId::new(i)))
            .collect();
        let mut progressed = false;
        for i in holders {
            let me = NodeId::new(i);
            match reception {
                ReceptionModel::OneCallPerRound => {
                    // Send to the first child that does not have it yet.
                    if let Some(&child) = forest
                        .children(me)
                        .iter()
                        .find(|c| net.is_alive(**c) && !has[c.index()])
                    {
                        if net.send(me, child, phase, payload_bits) {
                            has[child.index()] = true;
                            progressed = true;
                        }
                    }
                }
                ReceptionModel::AllNeighborsPerRound => {
                    let targets: Vec<NodeId> = forest
                        .children(me)
                        .iter()
                        .copied()
                        .filter(|c| net.is_alive(*c) && !has[c.index()])
                        .collect();
                    for child in targets {
                        if net.send(me, child, phase, payload_bits) {
                            has[child.index()] = true;
                            progressed = true;
                        }
                    }
                }
            }
        }
        net.advance_round();
        rounds_used += 1;
        if progressed {
            stalled_rounds = 0;
        } else {
            stalled_rounds += 1;
        }
    }

    BroadcastOutcome {
        reached: has,
        rounds: net.round() - rounds_before,
        messages: net.metrics().total_messages() - messages_before,
    }
}

/// The sweep `convergecast` of commit 78fe4d5.
fn sweep_convergecast<T: Transport, A: Aggregate>(
    net: &mut T,
    forest: &Forest,
    agg: &A,
    values: &[f64],
    reception: ReceptionModel,
) -> ConvergecastOutcome<A::State> {
    let n = net.n();
    assert_eq!(values.len(), n, "one value per node required");
    assert_eq!(forest.n(), n, "forest must cover the network");
    let rounds_before = net.round();
    let messages_before = net.metrics().total_messages();
    let payload_bits = net.config().value_bits() + net.config().id_bits();

    // Per-node aggregation state. Crashed nodes contribute nothing.
    let mut state: Vec<Option<A::State>> = (0..n)
        .map(|i| {
            let v = NodeId::new(i);
            if net.is_alive(v) {
                Some(agg.lift(values[i]))
            } else {
                None
            }
        })
        .collect();

    // has_sent[i]: node i delivered its state to its parent.
    let mut has_sent = vec![false; n];

    // Liveness is re-read every round (on churny backends nodes crash and
    // rejoin mid-phase): a parent waits only for children that are still
    // alive and undelivered, and the phase ends when no alive non-root is
    // left to deliver — or when it stops making progress altogether (every
    // remaining sender sits under a crashed ancestor).
    let round_cap = 16 * (n as u64) + 64;
    let stall_cap = 64u32;
    let mut stalled_rounds = 0u32;
    let mut rounds_used = 0u64;
    while rounds_used < round_cap && stalled_rounds < stall_cap {
        let remaining = (0..n)
            .filter(|&i| {
                let v = NodeId::new(i);
                net.is_alive(v) && !forest.is_root(v) && !has_sent[i]
            })
            .count();
        if remaining == 0 {
            break;
        }
        // Snapshot the set of nodes ready to transmit at the *start* of the
        // round, so a node that only becomes ready because of a message it
        // receives this round waits until the next round (a node talks to at
        // most one partner per round). Ready means: every child has either
        // delivered or crashed.
        let ready: Vec<usize> = (0..n)
            .filter(|&i| {
                let me = NodeId::new(i);
                !has_sent[i]
                    && net.is_alive(me)
                    && !forest.is_root(me)
                    && forest
                        .children(me)
                        .iter()
                        .all(|&c| has_sent[c.index()] || !net.is_alive(c))
            })
            .collect();
        let mut parent_served: Vec<bool> = match reception {
            ReceptionModel::OneCallPerRound => vec![false; n],
            ReceptionModel::AllNeighborsPerRound => Vec::new(),
        };
        let mut progressed = false;
        for i in ready {
            let me = NodeId::new(i);
            let parent = forest.parent(me).expect("non-root has a parent");
            if let ReceptionModel::OneCallPerRound = reception {
                if parent_served[parent.index()] {
                    continue; // parent already took its one call this round
                }
                parent_served[parent.index()] = true;
            }
            let delivered = net.send(me, parent, Phase::Convergecast, payload_bits);
            if delivered {
                // A node that rejoined mid-phase starts from its own value.
                let child_state = state[i].clone().unwrap_or_else(|| agg.lift(values[i]));
                let merged = match &state[parent.index()] {
                    Some(parent_state) => agg.combine(parent_state, &child_state),
                    None => child_state,
                };
                state[parent.index()] = Some(merged);
                has_sent[i] = true;
                progressed = true;
            }
        }
        net.advance_round();
        rounds_used += 1;
        if progressed {
            stalled_rounds = 0;
        } else {
            stalled_rounds += 1;
        }
    }

    ConvergecastOutcome {
        state,
        rounds: net.round() - rounds_before,
        messages: net.metrics().total_messages() - messages_before,
    }
}

const RECEPTIONS: [ReceptionModel; 2] = [
    ReceptionModel::OneCallPerRound,
    ReceptionModel::AllNeighborsPerRound,
];

/// A random forest: in a random order of the nodes, each is a root with
/// probability 0.2 and hangs under a uniformly random earlier one otherwise
/// (always acyclic). Wide sibling runs and deep chains both occur, and a
/// parent's id is as often above its children's as below.
fn random_forest(n: usize, seed: u64) -> Forest {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut parents = vec![None; n];
    for at in 1..n {
        if !rng.gen_bool(0.2) {
            parents[order[at]] = Some(NodeId::new(order[rng.gen_range(0..at)]));
        }
    }
    Forest::from_parents(parents).expect("parents come earlier in the order")
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 53) % 2003) as f64 / 7.0).collect()
}

/// Heavy churn over lossy, spread, laggy links, built like the facade
/// suite's `churny_config`: a tenth of the nodes is down at the start, and
/// in a phase of a few dozen rounds most trees see a node crash and a node
/// come back.
fn churny_config(n: usize, seed: u64, loss: f64) -> AsyncConfig {
    AsyncConfig::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(loss)
            .with_initial_crash_prob(0.1),
    )
    .with_latency(LatencyModel::Uniform {
        lo_us: 400,
        hi_us: 2_000,
    })
    .with_link_spread(0.2)
    .with_churn(ChurnModel::per_round(0.05, 0.3).with_min_alive(n / 2))
}

/// Everything a phase leaves behind on its transport: the protocol
/// metrics, the round counter, who is alive, and the next RNG draw.
fn aftermath<T: Transport>(net: &mut T) -> (gossip_net::Metrics, u64, Vec<bool>, u64) {
    let alive = net.nodes().map(|v| net.is_alive(v)).collect();
    (
        net.metrics().clone(),
        net.round(),
        alive,
        net.rng_mut().gen_range(0..u64::MAX),
    )
}

fn broadcast_bits(out: &BroadcastOutcome) -> (&[bool], u64, u64) {
    (&out.reached, out.rounds, out.messages)
}

fn convergecast_bits<S>(
    out: &ConvergecastOutcome<S>,
    bits: impl Fn(&S) -> [u64; 2],
) -> (Vec<Option<[u64; 2]>>, u64, u64) {
    let state = out.state.iter().map(|s| s.as_ref().map(&bits)).collect();
    (state, out.rounds, out.messages)
}

/// Run the sweep oracle and the frontier implementation of all three
/// phases, back to back, on two transports built alike, and hold them
/// equal after each phase.
fn assert_phases_agree<T: Transport>(
    make: impl Fn() -> T,
    forest: &Forest,
    reception: ReceptionModel,
    what: &str,
) {
    let values = values(forest.n());
    let (mut old_net, mut new_net) = (make(), make());

    let old = sweep_convergecast(&mut old_net, forest, &Average, &values, reception);
    let new = convergecast(&mut new_net, forest, &Average, &values, reception);
    let average = |s: &gossip_aggregate::AverageState| [s.sum.to_bits(), s.count.to_bits()];
    assert_eq!(
        convergecast_bits(&old, average),
        convergecast_bits(&new, average),
        "convergecast-sum, {what}"
    );
    assert_eq!(aftermath(&mut old_net), aftermath(&mut new_net), "{what}");

    let old = sweep_broadcast_down(&mut old_net, forest, reception, Phase::Broadcast, 16);
    let new = broadcast_down(&mut new_net, forest, reception, Phase::Broadcast, 16);
    assert_eq!(
        broadcast_bits(&old),
        broadcast_bits(&new),
        "broadcast, {what}"
    );
    assert_eq!(aftermath(&mut old_net), aftermath(&mut new_net), "{what}");

    // A second upward pass, on a transport the first two phases have aged:
    // more nodes are down than at the start and others are back.
    let old = sweep_convergecast(&mut old_net, forest, &Max, &values, reception);
    let new = convergecast(&mut new_net, forest, &Max, &values, reception);
    let max = |s: &f64| [s.to_bits(), 0];
    assert_eq!(
        convergecast_bits(&old, max),
        convergecast_bits(&new, max),
        "convergecast-max, {what}"
    );
    assert_eq!(aftermath(&mut old_net), aftermath(&mut new_net), "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frontier_phases_match_the_sweep_oracle(n in 1usize..160, seed in 0u64..10_000) {
        let forest = random_forest(n, seed);
        for loss in [0.0, 0.2] {
            for reception in RECEPTIONS {
                let what = format!("n = {n}, seed = {seed}, loss = {loss}, {reception:?}");
                let sim = SimConfig::new(n)
                    .with_seed(seed)
                    .with_loss_prob(loss)
                    .with_initial_crash_prob(0.1);
                assert_phases_agree(
                    || Network::new(sim.clone()),
                    &forest,
                    reception,
                    &format!("Network, {what}"),
                );
                for shards in shard_counts() {
                    assert_phases_agree(
                        || ShardedTransport::new(churny_config(n, seed, loss), shards),
                        &forest,
                        reception,
                        &format!("churny facade at {shards} shard(s), {what}"),
                    );
                }
            }
        }
    }
}

/// The differential test is only worth its name if the churny rows really
/// have nodes crash and rejoin inside the phases, stall behind crashed
/// inner nodes, and still deliver most of what they send.
#[test]
fn the_churny_rows_exercise_crashes_rejoins_and_stalls() {
    let n = 150;
    let forest = random_forest(n, 77);
    let values = values(n);
    let mut net = ShardedTransport::new(churny_config(n, 77, 0.2), 1);
    let up = convergecast(
        &mut net,
        &forest,
        &Average,
        &values,
        ReceptionModel::OneCallPerRound,
    );
    let down = broadcast_down(
        &mut net,
        &forest,
        ReceptionModel::OneCallPerRound,
        Phase::Broadcast,
        16,
    );
    let engine = net.async_metrics();
    assert!(engine.churn_crashes > 20, "{engine:?}");
    assert!(engine.churn_rejoins > 20, "{engine:?}");
    assert!(
        up.rounds > 64 || down.rounds > 64,
        "a phase ran into the stall cap"
    );
    assert!(up.messages > 100 && down.messages > 50);
    let reached = down.reached.iter().filter(|&&r| r).count();
    assert!(reached > n / 3 && reached < n, "reached {reached} of {n}");
}
