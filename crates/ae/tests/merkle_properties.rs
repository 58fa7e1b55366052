//! Property suite for the Merkle descent: reconciling two arbitrary
//! replicas through the hash-tree protocol — under **arbitrary delivery
//! orders**, like the existing Store CRDT suite — must land both on
//! exactly the store that the classic dense digest/delta exchange (and
//! the order-free union) produces. The digest mode may change the cost of
//! reconciliation, never its result.
//!
//! The engine itself is held, message by message, to the implementation
//! it replaced ([`oracle`]: one tree refresh per adopted entry, replies
//! built as a list and re-batched afterwards): same store, same tree, same
//! counts, same replies in the same order — for honest traffic under every
//! delivery order, and for arbitrary hostile deltas.

use gossip_ae::merkle::{reconcile, DigestTree};
use gossip_ae::protocol::AeMsg;
use gossip_ae::store::{Entry, Store};
use gossip_net::NodeId;
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

/// `reconcile`, checked against the oracle on a copy of the replica: the
/// store, the tree, the counts and the replies (order included) must all
/// agree, and the tree must be what a from-scratch build gives.
fn reconcile_checked(
    replica: &mut (Store, DigestTree),
    span: usize,
    msg: &AeMsg,
) -> gossip_ae::Handled {
    let mut twin = replica.clone();
    let want = oracle::reconcile(&mut twin.0, Some(&mut twin.1), span, msg);
    let got = reconcile(&mut replica.0, Some(&mut replica.1), span, msg);
    assert_eq!(
        (got.adopted, got.invalid, &got.replies),
        (want.adopted, want.invalid, &want.replies),
        "counts and replies for {msg:?}"
    );
    assert_eq!(replica.0, twin.0, "store after {msg:?}");
    assert_eq!(replica.1, twin.1, "tree after {msg:?}");
    assert_eq!(
        replica.1,
        DigestTree::new(&replica.0, span),
        "tree is current after {msg:?}"
    );
    got
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
        let mut queue: Vec<(bool, AeMsg)> = vec![
            (
                false,
                AeMsg::MerkleSyn {
                    n: N as u32,
                    root: a.1.root(),
                },
            ),
            (
                true,
                AeMsg::MerkleSyn {
                    n: N as u32,
                    root: b.1.root(),
                },
            ),
        ];
        let mut progressed = false;
        while !queue.is_empty() {
            // Arbitrary delivery order: pop a random in-flight message.
            let pick = rng.gen_range(0..queue.len());
            let (to_a, msg) = queue.swap_remove(pick);
            let target = if to_a { &mut *a } else { &mut *b };
            let handled = reconcile_checked(target, span, &msg);
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
        let msg = match leg {
            0 => AeMsg::Delta { delta },
            1 => AeMsg::SynAck { n: N as u32, delta, digest: peer.sparse_digest() },
            _ => {
                let start = raws_delta.len() * 7 % (N - span);
                AeMsg::RangeAck {
                    n: N as u32,
                    start: start as u32,
                    stamps: peer.range_digest(start, span),
                    delta,
                }
            }
        };
        reconcile_checked(&mut held, span, &msg);
    }
}

/// The reconciliation engine as it stood before replies went to a sink
/// and `adopt` batched its tree refreshes (commit 6d8057f), on the crate's
/// public API: the oracle the properties above compare against.
mod oracle {
    use gossip_ae::merkle::{DigestTree, Handled, PROBE_BATCH};
    use gossip_ae::protocol::AeMsg;
    use gossip_ae::store::{sparse_digest_well_formed, Entry, Store};
    use gossip_net::NodeId;

    pub fn reconcile(
        store: &mut Store,
        mut tree: Option<&mut DigestTree>,
        fallback_slots: usize,
        msg: &AeMsg,
    ) -> Handled {
        let n = store.n();
        let mut out = Handled::default();
        match msg {
            AeMsg::SynReq { n: their_n, digest } => {
                if *their_n as usize != n || !sparse_digest_well_formed(n, digest) {
                    out.invalid += 1;
                    return out;
                }
                out.replies.push(AeMsg::SynAck {
                    n: *their_n,
                    delta: store.delta_for_sparse(digest),
                    digest: store.sparse_digest(),
                });
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
                    out.replies.push(AeMsg::Delta { delta: back });
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
                    None => out.replies.push(AeMsg::SynReq {
                        n: n as u32,
                        digest: store.sparse_digest(),
                    }),
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
                    out.replies.push(AeMsg::SynReq {
                        n: n as u32,
                        digest: store.sparse_digest(),
                    });
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
                out.replies.push(AeMsg::RangeAck {
                    n: *their_n,
                    start: start as u32,
                    delta: store.delta_for_range(start, stamps),
                    stamps: store.range_digest(start, stamps.len()),
                });
            }
            AeMsg::RangeAck {
                n: their_n,
                start,
                stamps,
                delta,
            } => {
                if !range_well_formed(n, *their_n, *start, stamps.len(), fallback_slots) {
                    out.invalid += 1;
                    return out;
                }
                adopt(store, &mut tree, delta, &mut out);
                let back = store.delta_for_range(*start as usize, stamps);
                if !back.is_empty() {
                    out.replies.push(AeMsg::Delta { delta: back });
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
        replies: &mut Vec<AeMsg>,
    ) {
        let (start, len) = tree.slot_range(idx);
        if len == 0 {
            return;
        }
        if tree.is_leaf(idx) || len <= fallback_slots {
            replies.push(AeMsg::RangeSyn {
                n: store.n() as u32,
                start: start as u32,
                stamps: store.range_digest(start, len),
            });
        } else {
            let (l, r) = (2 * idx + 1, 2 * idx + 2);
            replies.push(AeMsg::MerkleProbe {
                n: store.n() as u32,
                probes: vec![(l as u32, tree.hash(l)), (r as u32, tree.hash(r))],
            });
        }
    }

    fn flush_probes(n: usize, replies: &mut Vec<AeMsg>) {
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        let mut rest: Vec<AeMsg> = Vec::new();
        for reply in replies.drain(..) {
            match reply {
                AeMsg::MerkleProbe { probes, .. } => pairs.extend(probes),
                other => rest.push(other),
            }
        }
        for chunk in pairs.chunks(PROBE_BATCH) {
            rest.push(AeMsg::MerkleProbe {
                n: n as u32,
                probes: chunk.to_vec(),
            });
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
