//! Property suite for the Merkle descent: reconciling two arbitrary
//! replicas through the hash-tree protocol — under **arbitrary delivery
//! orders**, like the existing Store CRDT suite — must land both on
//! exactly the store that the classic dense digest/delta exchange (and
//! the order-free union) produces. The digest mode may change the cost of
//! reconciliation, never its result.
//!
//! The engine itself is held, message by message, to the implementation
//! it replaced ([`oracle`]: one tree refresh per adopted entry, replies
//! built as a list and re-batched afterwards, and a range ack that echoes
//! the responder's stamps): same store, same tree, same counts — for
//! honest traffic under every delivery order, and for arbitrary hostile
//! deltas. Every leg but the range ack answers with the oracle's replies
//! in the oracle's order. The range ack is the one leg that changed: its
//! delta is the oracle's, its want word names exactly the slots where the
//! responder holds nothing or less than the range syn claimed, and the
//! initiator's `Delta` answering it is always a subset of the oracle's —
//! equal to it whenever the initiator's store did not change in between.
//!
//! The tree an [`AeNode`] keeps current, one O(1) leaf update per adopted
//! entry, is held to a from-scratch build after every step of arbitrary
//! sequences of hostile deltas, seeded entries and the node's own
//! re-stamps: probed at every index with the build's hashes, the node
//! finds no mismatch to answer.

use gossip_ae::merkle::{reconcile, DigestTree};
use gossip_ae::protocol::{AeConfig, AeMsg, AeNode, DigestMode};
use gossip_ae::store::{Entry, Store};
use gossip_ae::Handler;
use gossip_net::{Mailbox, NodeId, Phase, TimerId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Store arity: big enough for a four-level tree at span 4, small enough
/// to collide origins densely.
const N: usize = 96;

/// Decode a flat `u64` into an honest `(origin, entry)`: an origin stamps
/// only its own key, and a given `(origin, stamp)` names exactly one
/// value (the invariant every digest exchange relies on).
fn decode_honest(raw: u64) -> (NodeId, Entry) {
    let origin = NodeId::new((raw % N as u64) as usize);
    let stamp = 1 + (raw >> 5) % 6;
    let value = (origin.index() as f64) * 100.0 + stamp as f64;
    (origin, Entry { stamp, value })
}

fn replica(raws: &[u64], span: usize) -> (Store, DigestTree) {
    let mut store = Store::new(N);
    for &raw in raws {
        let (origin, entry) = decode_honest(raw);
        store.merge(origin, entry);
    }
    let tree = DigestTree::new(&store, span);
    (store, tree)
}

/// A message in flight. A range ack also carries what judging its answer
/// takes: the stamps the oracle's ack echoed in its place (the
/// responder's) and the stamps the range syn claimed (the initiator's).
struct InFlight {
    msg: AeMsg,
    ranges: Option<Ranges>,
}

struct Ranges {
    responder: Vec<u64>,
    claimed: Vec<u64>,
}

impl InFlight {
    fn plain(msg: AeMsg) -> Self {
        InFlight { msg, ranges: None }
    }
}

/// What [`reconcile_checked`] hands back: the engine's counts, and its
/// replies as messages in flight.
struct Checked {
    adopted: usize,
    invalid: usize,
    replies: Vec<InFlight>,
}

/// The want word the range ack must carry: {k : claimed_k > mine_k or
/// mine_k = 0}, from the stamps the range syn claimed and the responder's.
fn want_word(claimed: &[u64], responder: &[u64]) -> u64 {
    claimed
        .iter()
        .zip(responder)
        .enumerate()
        .filter(|&(_, (&theirs, &mine))| theirs > mine || mine == 0)
        .fold(0, |want, (k, _)| want | 1 << k)
}

/// `reconcile`, checked against the oracle on a copy of the replica: the
/// store, the tree and the counts must agree, the tree must be what a
/// from-scratch build gives, and the replies must be the oracle's (order
/// included), except where the range ack changed them — see the module
/// docs.
fn reconcile_checked(replica: &mut (Store, DigestTree), span: usize, flight: &InFlight) -> Checked {
    let msg = &flight.msg;
    let mut twin = replica.clone();
    let echoed = flight.ranges.as_ref().map(|r| &r.responder[..]);
    let expected = oracle::reconcile(&mut twin.0, Some(&mut twin.1), span, msg, echoed);
    let got = reconcile(&mut replica.0, Some(&mut replica.1), span, msg);
    assert_eq!(
        (got.adopted, got.invalid),
        (expected.adopted, expected.invalid),
        "counts for {msg:?}"
    );
    assert_eq!(replica.0, twin.0, "store after {msg:?}");
    assert_eq!(replica.1, twin.1, "tree after {msg:?}");
    assert_eq!(
        replica.1,
        DigestTree::new(&replica.0, span),
        "tree is current after {msg:?}"
    );
    let replies = match (msg, &flight.ranges) {
        (
            AeMsg::RangeSyn {
                stamps: claimed, ..
            },
            _,
        ) => match (&got.replies[..], &expected.replies[..]) {
            ([], []) => Vec::new(),
            (
                [ack @ AeMsg::RangeAck {
                    n,
                    start,
                    len,
                    want: word,
                    delta,
                }],
                [oracle::Reply::EchoAck {
                    n: echo_n,
                    start: echo_start,
                    stamps: responder,
                    delta: echo_delta,
                }],
            ) => {
                assert_eq!((n, start, delta), (echo_n, echo_start, echo_delta));
                assert_eq!(usize::from(*len), responder.len(), "length of {ack:?}");
                assert_eq!(
                    *word,
                    want_word(claimed, responder),
                    "want word of {ack:?} against {responder:?}"
                );
                vec![InFlight {
                    msg: ack.clone(),
                    ranges: Some(Ranges {
                        responder: responder.clone(),
                        claimed: claimed.clone(),
                    }),
                }]
            }
            (got, expected) => panic!("{msg:?} drew {got:?}, the oracle {expected:?}"),
        },
        (AeMsg::RangeAck { start, len, .. }, Some(ranges)) => {
            let back = match &got.replies[..] {
                [] => Vec::new(),
                [AeMsg::Delta { delta }] => delta.clone(),
                other => panic!("{msg:?} drew {other:?}"),
            };
            let oracle_back = match &expected.replies[..] {
                [] => Vec::new(),
                [oracle::Reply::Same(AeMsg::Delta { delta })] => delta.clone(),
                other => panic!("the oracle answered {msg:?} with {other:?}"),
            };
            assert!(
                back.iter().all(|pair| oracle_back.contains(pair)),
                "{back:?} is not a subset of the oracle's {oracle_back:?}"
            );
            // An initiator whose store did not change between its range
            // syn and this ack ends with the range it claimed, raised to
            // the responder's stamps where those were newer.
            let unchanged: Vec<u64> = ranges
                .claimed
                .iter()
                .zip(&ranges.responder)
                .map(|(&claimed, &responder)| claimed.max(responder))
                .collect();
            if replica.0.range_digest(*start as usize, usize::from(*len)) == unchanged {
                assert_eq!(back, oracle_back, "unchanged initiator answering {msg:?}");
            }
            got.replies.into_iter().map(InFlight::plain).collect()
        }
        _ => {
            let same: Vec<&AeMsg> = expected
                .replies
                .iter()
                .map(|reply| match reply {
                    oracle::Reply::Same(m) => m,
                    echo => panic!("{msg:?} drew an oracle {echo:?}"),
                })
                .collect();
            assert_eq!(
                got.replies.iter().collect::<Vec<_>>(),
                same,
                "replies for {msg:?}"
            );
            got.replies.into_iter().map(InFlight::plain).collect()
        }
    };
    Checked {
        adopted: got.adopted,
        invalid: got.invalid,
        replies,
    }
}

/// The dense reference: one full three-leg digest/delta exchange.
fn dense_exchange(mut a: Store, mut b: Store) -> (Store, Store) {
    let to_b = a.delta_for(&b.digest());
    b.merge_delta(&to_b);
    let to_a = b.delta_for(&a.digest());
    a.merge_delta(&to_a);
    // b answered a's digest *before* a's repair landed, so close the loop
    // once more — the tick-driven protocol's next exchange.
    let to_b = a.delta_for(&b.digest());
    b.merge_delta(&to_b);
    (a, b)
}

/// Pump Merkle reconciliation between two replicas with messages
/// delivered in an arbitrary (seeded) order, re-opening each "tick" until
/// quiescent. Returns the number of opener rounds it took.
fn merkle_pump(
    a: &mut (Store, DigestTree),
    b: &mut (Store, DigestTree),
    span: usize,
    order_seed: u64,
) -> usize {
    let mut rng = SmallRng::seed_from_u64(order_seed);
    for round in 1..=32 {
        // Both sides open, like two ticking nodes.
        let mut queue: Vec<(bool, InFlight)> = vec![
            (
                false,
                InFlight::plain(AeMsg::MerkleSyn {
                    n: N as u32,
                    root: a.1.root(),
                }),
            ),
            (
                true,
                InFlight::plain(AeMsg::MerkleSyn {
                    n: N as u32,
                    root: b.1.root(),
                }),
            ),
        ];
        let mut progressed = false;
        while !queue.is_empty() {
            // Arbitrary delivery order: pop a random in-flight message.
            let pick = rng.gen_range(0..queue.len());
            let (to_a, flight) = queue.swap_remove(pick);
            let target = if to_a { &mut *a } else { &mut *b };
            let handled = reconcile_checked(target, span, &flight);
            assert_eq!(handled.invalid, 0, "honest traffic is never dropped");
            progressed |= handled.adopted > 0 || !handled.replies.is_empty();
            queue.extend(handled.replies.into_iter().map(|m| (!to_a, m)));
        }
        if a.0 == b.0 && a.1.root() == b.1.root() {
            return round;
        }
        assert!(
            progressed,
            "stores differ but the exchange went quiet — descent is stuck"
        );
    }
    panic!("merkle reconciliation did not converge within 32 opener rounds");
}

proptest! {
    #[test]
    fn merkle_descent_converges_to_the_dense_fixed_point(
        raws_a in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        raws_b in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        span in 1usize..=16,
        order_seed in 0u64..=u64::MAX,
    ) {
        let mut a = replica(&raws_a, span);
        let mut b = replica(&raws_b, span);

        // The dense reference result and the order-free union.
        let (dense_a, dense_b) = dense_exchange(a.0.clone(), b.0.clone());
        prop_assert_eq!(&dense_a, &dense_b);
        let union = {
            let mut u = a.0.clone();
            u.merge_from(&b.0);
            u
        };
        prop_assert_eq!(&dense_a, &union);

        merkle_pump(&mut a, &mut b, span, order_seed);
        prop_assert_eq!(&a.0, &b.0, "merkle replicas agree");
        prop_assert_eq!(&a.0, &union, "…on exactly the dense/union result");

        // Trees were maintained incrementally through every adoption:
        // they must equal a from-scratch rebuild.
        prop_assert_eq!(&a.1, &DigestTree::new(&a.0, span));
        prop_assert_eq!(&b.1, &DigestTree::new(&b.0, span));

        // And the converged pair is quiescent: the next opener from
        // either side draws no reply.
        let (root_a, root_b) = (a.1.root(), b.1.root());
        for (store, tree, peer_root) in [
            (&mut a.0, &mut a.1, root_b),
            (&mut b.0, &mut b.1, root_a),
        ] {
            let handled = reconcile(
                store,
                Some(tree),
                span,
                &AeMsg::MerkleSyn { n: N as u32, root: peer_root },
            );
            prop_assert!(handled.replies.is_empty());
            prop_assert_eq!(handled.adopted, 0);
        }
    }

    #[test]
    fn identical_replicas_reconcile_in_one_constant_size_leg(
        raws in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        span in 1usize..=16,
    ) {
        let mut a = replica(&raws, span);
        let b = replica(&raws, span);
        let handled = reconcile(
            &mut a.0,
            Some(&mut a.1),
            span,
            &AeMsg::MerkleSyn { n: N as u32, root: b.1.root() },
        );
        prop_assert!(handled.replies.is_empty(), "steady state is silence");
        prop_assert_eq!(handled.adopted, 0);
    }

    #[test]
    fn any_delta_leaves_the_tree_current_and_matches_the_per_entry_oracle(
        raws_held in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        raws_delta in proptest::collection::vec(0u64..=u64::MAX, 0..48),
        span in 1usize..=16,
        shape in 0u8..3,
        leg in 0u8..3,
    ) {
        let mut held = replica(&raws_held, span);
        // Hostile pairs: origins up to 8 beyond the store, stamp 0, the
        // same origin more than once with different stamps and values.
        let mut delta: Vec<(NodeId, Entry)> = raws_delta
            .iter()
            .map(|&raw| {
                let origin = NodeId::new((raw % (N as u64 + 8)) as usize);
                let stamp = (raw >> 8) % 8;
                (origin, Entry { stamp, value: (raw >> 16) as f64 })
            })
            .collect();
        match shape {
            // As drawn: interleaved across leaves, duplicates anywhere.
            0 => {}
            1 => delta.sort_by_key(|&(origin, _)| std::cmp::Reverse(origin)),
            _ => delta.sort_by_key(|&(origin, _)| origin),
        }
        // A peer whose digests are well-formed, so the delta is what
        // decides the outcome.
        let peer = replica(&raws_delta, span).0;
        let flight = match leg {
            0 => InFlight::plain(AeMsg::Delta { delta }),
            1 => InFlight::plain(AeMsg::SynAck { n: N as u32, delta, digest: peer.sparse_digest() }),
            _ => {
                // The ack the peer sends to `held`'s range syn, carrying
                // the hostile delta.
                let start = raws_delta.len() * 7 % (N - span);
                let claimed = held.0.range_digest(start, span);
                let responder = peer.range_digest(start, span);
                InFlight {
                    msg: AeMsg::RangeAck {
                        n: N as u32,
                        start: start as u32,
                        len: span as u8,
                        want: want_word(&claimed, &responder),
                        delta,
                    },
                    ranges: Some(Ranges { responder, claimed }),
                }
            }
        };
        reconcile_checked(&mut held, span, &flight);
    }
}

/// Drives one [`AeNode`] by hand: a clock the test sets, replies kept.
struct Clock {
    me: NodeId,
    now: u64,
    rng: SmallRng,
    sent: Vec<AeMsg>,
}

impl Mailbox<AeMsg> for Clock {
    fn me(&self) -> NodeId {
        self.me
    }
    fn n(&self) -> usize {
        N
    }
    fn now_us(&self) -> u64 {
        self.now
    }
    fn send(&mut self, _to: NodeId, _phase: Phase, _bits: u32, msg: AeMsg) {
        self.sent.push(msg);
    }
    fn set_timer(&mut self, _delay_us: u64, _timer: TimerId) {}
    fn cancel_timer(&mut self, _timer: TimerId) {}
    fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// What `node` answers a probe of every index of `expected`'s tree with
/// `expected`'s hash there, with `flip` xored into the root's: nothing
/// unless some index's hash differs from the node's own tree.
fn probe_everything(
    node: &mut AeNode,
    clock: &mut Clock,
    expected: &DigestTree,
    flip: u64,
) -> Vec<AeMsg> {
    let probes = (0..expected.len())
        .map(|idx| {
            (
                idx as u32,
                expected.hash(idx) ^ if idx == 0 { flip } else { 0 },
            )
        })
        .collect();
    clock.sent.clear();
    node.on_message(
        NodeId::new(1),
        AeMsg::MerkleProbe {
            n: N as u32,
            probes,
        },
        clock,
    );
    std::mem::take(&mut clock.sent)
}

/// [`AeNode`]'s signal re-stamp timer.
const UPDATE: TimerId = TimerId(1);

/// A hostile delta drawn from `raw`: up to five pairs, unsorted, origins up
/// to 8 beyond the store, stamps from 0 (the absent code) to 63, the same
/// origin any number of times.
fn hostile_delta(raw: u64) -> Vec<(NodeId, Entry)> {
    let mut rng = SmallRng::seed_from_u64(raw);
    (0..rng.gen_range(0..6))
        .map(|_| {
            let origin = NodeId::new(rng.gen_range(0..N + 8));
            let stamp = rng.gen_range(0..64);
            (
                origin,
                Entry {
                    stamp,
                    value: rng.gen_range(0..4) as f64,
                },
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn adopt_sequences_keep_the_incremental_tree_equal_to_a_rebuild(
        ops in proptest::collection::vec(0u64..=u64::MAX, 0..40),
        span in 1usize..=16,
    ) {
        let config = AeConfig::default()
            .with_digest_mode(DigestMode::Merkle)
            .with_merkle_fallback_slots(span);
        let me = NodeId::new(5);
        let mut node = AeNode::new(me, N, 7, 24, config);
        let mut clock = Clock { me, now: 0, rng: SmallRng::seed_from_u64(1), sent: Vec::new() };
        node.on_start(&mut clock);
        for raw in ops {
            let arg = raw >> 2;
            match raw % 4 {
                // A delta or a syn ack (the two adopting legs with no range
                // check in the way) carrying hostile pairs.
                0 => node.on_message(NodeId::new(1), AeMsg::Delta { delta: hostile_delta(arg) }, &mut clock),
                1 => node.on_message(
                    NodeId::new(1),
                    AeMsg::SynAck { n: N as u32, delta: hostile_delta(arg), digest: Vec::new() },
                    &mut clock,
                ),
                // A seeded entry.
                2 => node.seed_entry(
                    NodeId::new(arg as usize % N),
                    Entry { stamp: 1 + (arg >> 8) % 63, value: 1.0 },
                ),
                // The node's own re-stamp, at a clock that may run back
                // (a stamp older than the held one is not adopted).
                _ => {
                    clock.now = arg % 64;
                    node.on_timer(UPDATE, &mut clock);
                }
            }
            let rebuilt = DigestTree::new(node.store(), span);
            let replies = probe_everything(&mut node, &mut clock, &rebuilt, 0);
            prop_assert!(replies.is_empty(), "the node's tree differs: {:?}", replies);
        }
        // The check is live: a root the node does not hold draws a reply.
        let rebuilt = DigestTree::new(node.store(), span);
        prop_assert!(!probe_everything(&mut node, &mut clock, &rebuilt, 1).is_empty());
    }
}

/// The reconciliation engine as it stood before replies went to a sink
/// and `adopt` batched its tree refreshes (commit 6d8057f), on the crate's
/// public API: the oracle the properties above compare against. Its range
/// ack echoed the responder's stamps, a variant `AeMsg` no longer has, so
/// that one reply is a [`Reply::EchoAck`], and a range ack it receives is
/// judged by the stamps its own ack would have echoed, which the caller
/// passes in.
mod oracle {
    use gossip_ae::merkle::{DigestTree, PROBE_BATCH};
    use gossip_ae::protocol::AeMsg;
    use gossip_ae::store::{sparse_digest_well_formed, Entry, Store};
    use gossip_net::NodeId;

    #[derive(Debug)]
    pub enum Reply {
        /// A reply the engine must send alike.
        Same(AeMsg),
        /// The stamp-echo range ack.
        EchoAck {
            n: u32,
            start: u32,
            stamps: Vec<u64>,
            delta: Vec<(NodeId, Entry)>,
        },
    }

    #[derive(Default)]
    pub struct Handled {
        pub adopted: usize,
        pub invalid: usize,
        pub replies: Vec<Reply>,
    }

    pub fn reconcile(
        store: &mut Store,
        mut tree: Option<&mut DigestTree>,
        fallback_slots: usize,
        msg: &AeMsg,
        echoed: Option<&[u64]>,
    ) -> Handled {
        let n = store.n();
        let mut out = Handled::default();
        match msg {
            AeMsg::SynReq { n: their_n, digest } => {
                if *their_n as usize != n || !sparse_digest_well_formed(n, digest) {
                    out.invalid += 1;
                    return out;
                }
                out.replies.push(Reply::Same(AeMsg::SynAck {
                    n: *their_n,
                    delta: store.delta_for_sparse(digest),
                    digest: store.sparse_digest(),
                }));
            }
            AeMsg::SynAck {
                n: their_n,
                delta,
                digest,
            } => {
                if *their_n as usize != n || !sparse_digest_well_formed(n, digest) {
                    out.invalid += 1;
                    return out;
                }
                adopt(store, &mut tree, delta, &mut out);
                let back = store.delta_for_sparse(digest);
                if !back.is_empty() {
                    out.replies.push(Reply::Same(AeMsg::Delta { delta: back }));
                }
            }
            AeMsg::Delta { delta } => {
                adopt(store, &mut tree, delta, &mut out);
            }
            AeMsg::MerkleSyn { n: their_n, root } => {
                if *their_n as usize != n {
                    out.invalid += 1;
                    return out;
                }
                match tree {
                    None => out.replies.push(Reply::Same(AeMsg::SynReq {
                        n: n as u32,
                        digest: store.sparse_digest(),
                    })),
                    Some(tree) => {
                        if *root != tree.root() {
                            descend(tree, store, 0, fallback_slots, &mut out.replies);
                            flush_probes(n, &mut out.replies);
                        }
                    }
                }
            }
            AeMsg::MerkleProbe { n: their_n, probes } => {
                let ascending = probes.windows(2).all(|w| w[0].0 < w[1].0);
                if *their_n as usize != n || !ascending {
                    out.invalid += 1;
                    return out;
                }
                let Some(tree) = tree else {
                    out.replies.push(Reply::Same(AeMsg::SynReq {
                        n: n as u32,
                        digest: store.sparse_digest(),
                    }));
                    return out;
                };
                for &(idx, their_hash) in probes {
                    let idx = idx as usize;
                    if idx >= tree.len() {
                        out.invalid += 1;
                        continue;
                    }
                    if tree.hash(idx) != their_hash {
                        descend(tree, store, idx, fallback_slots, &mut out.replies);
                    }
                }
                flush_probes(n, &mut out.replies);
            }
            AeMsg::RangeSyn {
                n: their_n,
                start,
                stamps,
            } => {
                if !range_well_formed(n, *their_n, *start, stamps.len(), fallback_slots) {
                    out.invalid += 1;
                    return out;
                }
                let start = *start as usize;
                out.replies.push(Reply::EchoAck {
                    n: *their_n,
                    start: start as u32,
                    delta: store.delta_for_range(start, stamps),
                    stamps: store.range_digest(start, stamps.len()),
                });
            }
            AeMsg::RangeAck {
                n: their_n,
                start,
                delta,
                ..
            } => {
                let stamps = echoed.expect("a range ack is judged by the stamps it replaced");
                if !range_well_formed(n, *their_n, *start, stamps.len(), fallback_slots) {
                    out.invalid += 1;
                    return out;
                }
                adopt(store, &mut tree, delta, &mut out);
                let back = store.delta_for_range(*start as usize, stamps);
                if !back.is_empty() {
                    out.replies.push(Reply::Same(AeMsg::Delta { delta: back }));
                }
            }
        }
        out
    }

    /// One leaf-and-root-path refresh per adopted entry.
    fn adopt(
        store: &mut Store,
        tree: &mut Option<&mut DigestTree>,
        delta: &[(NodeId, Entry)],
        out: &mut Handled,
    ) {
        for &(origin, entry) in delta {
            if origin.index() >= store.n() || entry.stamp == 0 {
                out.invalid += 1;
                continue;
            }
            if store.merge(origin, entry) {
                out.adopted += 1;
                if let Some(tree) = tree.as_deref_mut() {
                    tree.refresh(origin, store);
                }
            }
        }
    }

    /// Probe pairs go out as placeholder single-parent messages;
    /// `flush_probes` re-batches them.
    fn descend(
        tree: &DigestTree,
        store: &Store,
        idx: usize,
        fallback_slots: usize,
        replies: &mut Vec<Reply>,
    ) {
        let (start, len) = tree.slot_range(idx);
        if len == 0 {
            return;
        }
        if tree.is_leaf(idx) || len <= fallback_slots {
            replies.push(Reply::Same(AeMsg::RangeSyn {
                n: store.n() as u32,
                start: start as u32,
                stamps: store.range_digest(start, len),
            }));
        } else {
            let (l, r) = (2 * idx + 1, 2 * idx + 2);
            replies.push(Reply::Same(AeMsg::MerkleProbe {
                n: store.n() as u32,
                probes: vec![(l as u32, tree.hash(l)), (r as u32, tree.hash(r))],
            }));
        }
    }

    fn flush_probes(n: usize, replies: &mut Vec<Reply>) {
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        let mut rest: Vec<Reply> = Vec::new();
        for reply in replies.drain(..) {
            match reply {
                Reply::Same(AeMsg::MerkleProbe { probes, .. }) => pairs.extend(probes),
                other => rest.push(other),
            }
        }
        for chunk in pairs.chunks(PROBE_BATCH) {
            rest.push(Reply::Same(AeMsg::MerkleProbe {
                n: n as u32,
                probes: chunk.to_vec(),
            }));
        }
        *replies = rest;
    }

    fn range_well_formed(
        n: usize,
        their_n: u32,
        start: u32,
        len: usize,
        fallback_slots: usize,
    ) -> bool {
        their_n as usize == n
            && len > 0
            && len <= fallback_slots
            && (start as usize)
                .checked_add(len)
                .is_some_and(|end| end <= n)
    }
}
