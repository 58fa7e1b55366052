//! `udp-relay-sealed` — the socket path, closed loop, loopback only.
//!
//! Eight `NodeHost`s on 127.0.0.1 ephemeral ports, all keyed with one
//! `AuthKey`, polled round-robin with `poll()` on the one thread. A
//! benchmark-local relay handler forwards each of sixteen tokens, a
//! `(hops_left, checksum)` message in a 40-byte sealed frame, to the next
//! host, folding the host's id into the checksum. The load is closed: a
//! token's next datagram is sent when the previous one is dispatched, so
//! sixteen datagrams are in flight and none can be dropped by a full
//! socket buffer. Frame encode, HMAC seal and verify, `NodeCore` dispatch
//! and the `Reactor`'s `recv_from`/`send_to` pair are all of the time and
//! the simulators none; small sealed frames are where per-packet cost
//! dominates.
//!
//! Unit of work: one datagram dispatched. `rounds`: ring laps completed
//! per token, which moves only if a token is lost. An operation is one
//! datagram sent; it fails when it is not dispatched, when a host counts a
//! decode, authentication or send error, and a token whose final checksum
//! is wrong fails all its hops.

use super::{Fnv, Rep};
use crate::alloc;
use crate::spans::Tracer;
use crate::stats::mix;
use gossip_net::{AuthKey, Handler, Mailbox, NodeId, Phase, TimerId};
use gossip_node::NodeHost;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

pub const NAME: &str = "udp-relay-sealed";
/// Why the workload exists, in `BENCHMARK.json`'s one line.
pub const WHY: &str =
    "small sealed frames over loopback UDP, closed loop: codec, HMAC, NodeCore dispatch and the Reactor syscall pair are all of the time, the simulators none";

/// Modelled size of a relay message: a `u32` and a `u64`.
const RELAY_BITS: u32 = 96;
/// A relay that dispatches nothing for this long has lost its tokens.
const WATCHDOG: Duration = Duration::from_secs(5);

/// `(hops_left, checksum)`.
pub type RelayMsg = (u32, u64);

/// Forwards every token to the next host of the ring until its hops run
/// out, then keeps its checksum.
#[derive(Debug)]
pub struct Relay {
    me: NodeId,
    next: NodeId,
    pub parked: Vec<u64>,
}

impl Relay {
    pub fn new(me: NodeId, hosts: usize) -> Self {
        Relay {
            me,
            next: NodeId::new((me.index() + 1) % hosts),
            parked: Vec::new(),
        }
    }
}

impl Handler for Relay {
    type Msg = RelayMsg;

    fn on_start(&mut self, _mailbox: &mut dyn Mailbox<RelayMsg>) {}

    fn on_message(
        &mut self,
        _from: NodeId,
        (hops_left, checksum): RelayMsg,
        mailbox: &mut dyn Mailbox<RelayMsg>,
    ) {
        let folded = mix(checksum, self.me.index() as u64);
        if hops_left == 0 {
            self.parked.push(folded);
        } else {
            mailbox.send(self.next, Phase::Other, RELAY_BITS, (hops_left - 1, folded));
        }
    }

    fn on_timer(&mut self, _timer: TimerId, _mailbox: &mut dyn Mailbox<RelayMsg>) {}
}

#[derive(Clone, Debug)]
pub struct UdpRelay {
    pub hosts: usize,
    pub tokens: usize,
    /// Forwards per token in the set-up section and in the measured one.
    pub warmup_hops: u32,
    pub hops: u32,
    pub seed: u64,
    /// The workload seals every frame; the traced run's differential run
    /// sends them bare.
    pub keyed: bool,
}

/// What the hosts' counters read, summed.
#[derive(Clone, Copy, Default)]
struct Wire {
    sent: u64,
    bytes: u64,
    dispatched: u64,
    errors: u64,
}

impl UdpRelay {
    pub fn new(seed: u64, toy: bool) -> Self {
        UdpRelay {
            hosts: 8,
            tokens: if toy { 4 } else { 16 },
            warmup_hops: if toy { 40 } else { 800 },
            hops: if toy { 200 } else { 5_000 },
            seed,
            keyed: true,
        }
    }

    pub fn key(&self) -> AuthKey {
        AuthKey::from_passphrase(&format!("relay-{:016x}", self.seed))
    }

    fn bind(&self, tr: &mut Tracer) -> Vec<NodeHost<Relay>> {
        let span = tr.enter("node.host.bind_start");
        let sockets: Vec<UdpSocket> = (0..self.hosts)
            .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind a loopback UDP socket"))
            .collect();
        let peers: Vec<SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr().expect("a bound socket has an address"))
            .collect();
        let key = self.keyed.then(|| self.key());
        let epoch = Instant::now();
        let hosts = sockets
            .into_iter()
            .enumerate()
            .map(|(i, socket)| {
                let me = NodeId::new(i);
                let host = NodeHost::from_socket(
                    socket,
                    me,
                    peers.clone(),
                    mix(self.seed, i as u64),
                    Relay::new(me, self.hosts),
                )
                .expect("host a handler on a bound socket")
                .with_epoch(epoch);
                let mut host = match &key {
                    Some(key) => host.with_auth_key(key.clone()),
                    None => host,
                };
                host.start();
                host
            })
            .collect();
        tr.exit_counted(span, self.hosts as u64);
        hosts
    }

    /// The host token `t` starts at and its first checksum.
    fn token(&self, t: usize, salt: u64) -> (usize, u64) {
        (t % self.hosts, mix(self.seed ^ salt, t as u64))
    }

    /// Where token `t` parks after `hops` forwards, and with what.
    fn expected(&self, t: usize, salt: u64, hops: u32) -> (usize, u64) {
        let (mut at, mut checksum) = self.token(t, salt);
        for _ in 0..=hops {
            at = (at + 1) % self.hosts;
            checksum = mix(checksum, at as u64);
        }
        (at, checksum)
    }

    /// Send every token off for `hops` forwards and poll the ring until
    /// all are parked (or the watchdog gives up). Returns polls made and
    /// polls that dispatched nothing.
    fn circulate(
        &self,
        hosts: &mut [NodeHost<Relay>],
        salt: u64,
        hops: u32,
        tr: &mut Tracer,
    ) -> (u64, u64) {
        let inject = tr.enter("node.host.with_handler");
        for t in 0..self.tokens {
            let (at, checksum) = self.token(t, salt);
            hosts[at].with_handler(|relay, mailbox| {
                mailbox.send(relay.next, Phase::Other, RELAY_BITS, (hops, checksum))
            });
        }
        tr.exit_counted(inject, self.tokens as u64);
        let (mut polls, mut idle) = (0u64, 0u64);
        let mut idle_since: Option<Instant> = None;
        loop {
            let sweep = tr.enter("node.host.poll");
            let mut dispatched = 0;
            for host in hosts.iter_mut() {
                let got = host.poll();
                idle += u64::from(got == 0);
                dispatched += got;
            }
            polls += hosts.len() as u64;
            tr.exit_counted(sweep, hosts.len() as u64);
            let parked: usize = hosts.iter().map(|h| h.handler().parked.len()).sum();
            if parked >= self.tokens {
                break;
            }
            if dispatched > 0 {
                idle_since = None;
            } else if idle_since.get_or_insert_with(Instant::now).elapsed() > WATCHDOG {
                break;
            }
        }
        (polls, idle)
    }

    fn wire(hosts: &[NodeHost<Relay>]) -> Wire {
        hosts.iter().fold(Wire::default(), |mut w, host| {
            let s = host.stats();
            w.sent += s.datagrams_sent;
            w.bytes += s.bytes_sent;
            w.dispatched += s.messages_dispatched;
            w.errors += s.decode_errors + s.auth_reject + s.send_errors;
            w
        })
    }

    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        let root = tr.enter("rep");
        let started = Instant::now();
        let setup = tr.enter("setup");
        let mut hosts = self.bind(tr);
        self.circulate(&mut hosts, 1, self.warmup_hops, tr);
        for host in hosts.iter_mut() {
            host.with_handler(|relay, _| relay.parked.clear());
        }
        tr.exit(setup);
        let setup_s = started.elapsed().as_secs_f64();

        let before = Self::wire(&hosts);
        let allocs_before = alloc::snapshot().calls;
        let started = Instant::now();
        let work = tr.enter("work");
        let (polls, idle) = self.circulate(&mut hosts, 2, self.hops, tr);
        tr.exit(work);
        let work_s = started.elapsed().as_secs_f64();
        let heap = alloc::snapshot();
        let after = Self::wire(&hosts);

        let sent = after.sent - before.sent;
        let dispatched = after.dispatched - before.dispatched;
        let per_token = u64::from(self.hops) + 1;
        let mut wrong_tokens = 0;
        for t in 0..self.tokens {
            let (at, checksum) = self.expected(t, 2, self.hops);
            if !hosts[at].handler().parked.contains(&checksum) {
                wrong_tokens += 1;
            }
        }
        // What was parked where, whatever order the tokens came home in.
        let mut fingerprint = Fnv::new();
        for host in &hosts {
            let mut parked = host.handler().parked.clone();
            parked.sort_unstable();
            fingerprint.word(parked.len() as u64);
            parked.into_iter().for_each(|c| fingerprint.word(c));
        }
        let attempted = self.tokens as u64 * per_token;
        let failed = attempted.saturating_sub(dispatched)
            + (after.errors - before.errors)
            + wrong_tokens * per_token;
        let layer = vec![("node.reactor.idle_poll_ratio", idle as f64 / polls as f64)];
        tr.exit(root);
        Rep {
            setup_s,
            work_s,
            units: dispatched,
            msgs: sent,
            bytes: after.bytes - before.bytes,
            nodes: self.hosts as u64,
            fingerprint: fingerprint.0,
            attempted,
            failed: failed.min(attempted),
            rounds: dispatched as f64 / (self.tokens * self.hosts) as f64,
            allocs_work: heap.calls - allocs_before,
            peak_heap_bytes: heap.peak_live,
            layer,
        }
    }
}
