//! The membership wire's one-byte rumor count, end to end: a message
//! carries at most `MAX_UPDATES` rumors, so the piggyback batch and the
//! join snapshot's chunks are capped there even when a large
//! `budget_bytes` would fit more, and every capped message encodes,
//! decodes and is charged exactly its wire size.

use gossip_member::{
    payload_bytes, Liveness, Member, MemberConfig, MemberMsg, Update, MAX_UPDATES,
};
use gossip_net::{Handler, Mailbox, NodeId, Phase, TimerId, WireMsg, WireReader};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const N: usize = 700;

/// An application that never sends: only the membership layer talks.
struct Quiet;

impl Handler for Quiet {
    type Msg = u64;
    fn on_start(&mut self, _mailbox: &mut dyn Mailbox<u64>) {}
    fn on_message(&mut self, _from: NodeId, _msg: u64, _mailbox: &mut dyn Mailbox<u64>) {}
    fn on_timer(&mut self, _timer: TimerId, _mailbox: &mut dyn Mailbox<u64>) {}
}

/// Everything node 0 sends lands in `outbox`.
struct Recorder {
    rng: SmallRng,
    outbox: Vec<(u32, MemberMsg<u64>)>,
}

impl Mailbox<MemberMsg<u64>> for Recorder {
    fn me(&self) -> NodeId {
        NodeId::new(0)
    }
    fn n(&self) -> usize {
        N
    }
    fn now_us(&self) -> u64 {
        1_000
    }
    fn send(&mut self, _to: NodeId, _phase: Phase, bits: u32, msg: MemberMsg<u64>) {
        self.outbox.push((bits, msg));
    }
    fn set_timer(&mut self, _delay_us: u64, _timer: TimerId) {}
    fn cancel_timer(&mut self, _timer: TimerId) {}
    fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// A started node 0 whose datagram budget and piggyback limit would both
/// let far more than `MAX_UPDATES` rumors ride one message.
fn roomy(base: MemberConfig) -> (Member<Quiet>, Recorder) {
    let cfg = MemberConfig {
        piggyback_limit: 10_000,
        budget_bytes: 1 << 20,
        ..base
    };
    let mut node = Member::new(cfg, Quiet);
    let mut mailbox = Recorder {
        rng: SmallRng::seed_from_u64(3),
        outbox: Vec::new(),
    };
    node.on_start(&mut mailbox);
    mailbox.outbox.clear();
    (node, mailbox)
}

/// The message survives the wire and was charged its exact size.
fn assert_wire_exact(bits: u32, msg: &MemberMsg<u64>) {
    let bytes = msg.to_wire_bytes();
    assert_eq!(bytes.len(), payload_bytes(msg, 8));
    assert_eq!(bits as usize, 8 * bytes.len(), "modelled bits = wire bits");
    let mut r = WireReader::new(&bytes);
    assert_eq!(&MemberMsg::<u64>::decode(&mut r).unwrap(), msg);
    assert_eq!(r.remaining(), 0);
}

fn alive(node: usize) -> Update {
    Update {
        node: NodeId::new(node),
        incarnation: 0,
        state: Liveness::Alive,
    }
}

#[test]
fn piggybacked_rumors_stop_at_the_count_byte() {
    let (mut node, mut mailbox) = roomy(MemberConfig::default());
    // Two snapshot chunks introduce 300 peers: 300 rumors queue up.
    for chunk in [1..151, 151..301] {
        let updates = chunk.map(alive).collect();
        node.on_message(NodeId::new(1), MemberMsg::JoinAck { updates }, &mut mailbox);
    }
    assert!(mailbox.outbox.is_empty(), "a join ack draws no reply");
    let ping = MemberMsg::Ping {
        seq: 1,
        origin: NodeId::new(5),
        updates: Vec::new(),
    };
    node.on_message(NodeId::new(5), ping, &mut mailbox);
    let [(bits, ack)] = &mailbox.outbox[..] else {
        panic!("a ping draws one ack");
    };
    assert!(matches!(ack, MemberMsg::Ack { .. }));
    assert_eq!(ack.updates().len(), MAX_UPDATES);
    assert_wire_exact(*bits, ack);
}

#[test]
fn join_snapshots_are_chunked_at_the_count_byte() {
    let (mut node, mut mailbox) = roomy(MemberConfig::static_full());
    let join = MemberMsg::Join {
        updates: vec![alive(9)],
    };
    node.on_message(NodeId::new(9), join, &mut mailbox);
    let chunks: Vec<usize> = mailbox
        .outbox
        .iter()
        .map(|(bits, msg)| {
            assert!(matches!(msg, MemberMsg::JoinAck { .. }));
            assert_wire_exact(*bits, msg);
            msg.updates().len()
        })
        .collect();
    assert_eq!(chunks, [MAX_UPDATES, MAX_UPDATES, N - 1 - 2 * MAX_UPDATES]);
}
