//! The socket host: one [`Handler`] on one UDP socket.
//!
//! [`NodeHost`] is the deployable counterpart of the simulator's
//! `ShardedDriver`: the same callbacks, the same [`Mailbox`] surface, but
//! `send` writes a [wire frame](gossip_net::wire) to a real
//! [`UdpSocket`] and `now_us` reads a real clock.
//! Internally it is a thin pairing of the two halves the host layer
//! splits into:
//!
//! * [`NodeCore`] — the per-node protocol engine: handler, timer queue,
//!   address book, RNG, stats, trace ring, authentication key. No I/O.
//! * [`Reactor`] — the I/O engine: the socket, the receive buffer and
//!   the HTTP status pump, driving the core through one readiness loop.
//!
//! The event loop keeps the driver's dispatch discipline where reality
//! permits it:
//!
//! * **Timers** fire in exact `(due instant, arm order)` order — the
//!   `(timestamp, seq)` key of the simulators — from a monotonic queue
//!   that survives between loop iterations. [`Mailbox::cancel_timer`] and
//!   host-injected jitter work exactly as on the simulated hosts.
//! * **Messages** dispatch in kernel arrival order with the receive
//!   instant as their timestamp. Due timers are drained before the socket
//!   is read, so a timer is never starved by a packet burst.
//!
//! What real time *breaks* relative to virtual time is documented in
//! `DESIGN.md` §6: there is no global barrier, no replayable total order
//! across nodes, and loss/latency are whatever the network does —
//! protocols built for the simulators' failure models (idempotent merges,
//! stateless exchanges, re-arming timers) carry over; protocols that
//! secretly relied on determinism do not. Frame authentication
//! ([`NodeHost::with_auth_key`]) closes the "trusts sender ids verbatim"
//! gap: a keyed host seals every outbound frame with a truncated
//! HMAC-SHA256 tag and drops (counts, never panics) every inbound frame
//! that does not verify.

use crate::core::NodeCore;
use crate::reactor::Reactor;

pub use crate::core::NodeStats;
use gossip_net::{AuthKey, Handler, Mailbox, Metrics, NodeId, WireMsg};
use gossip_obs::{Histogram, TraceRing};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// One node of a real deployment: a [`Handler`] driven by a UDP socket.
/// See the module docs for the dispatch discipline.
pub struct NodeHost<H: Handler> {
    core: NodeCore<H>,
    reactor: Reactor,
}

impl<H: Handler> NodeHost<H>
where
    H::Msg: WireMsg,
{
    /// Bind a fresh UDP socket at `bind_addr` (e.g. `"127.0.0.1:7000"`,
    /// port 0 for ephemeral) and host `handler` as node `me` of the
    /// cluster described by `peers`.
    pub fn bind(
        bind_addr: impl ToSocketAddrs,
        me: NodeId,
        peers: Vec<SocketAddr>,
        seed: u64,
        handler: H,
    ) -> io::Result<Self> {
        let socket = UdpSocket::bind(bind_addr)?;
        Self::from_socket(socket, me, peers, seed, handler)
    }

    /// Host `handler` on an already-bound socket. `peers.len()` is the
    /// network size `n`; `me` must index into it.
    pub fn from_socket(
        socket: UdpSocket,
        me: NodeId,
        peers: Vec<SocketAddr>,
        seed: u64,
        handler: H,
    ) -> io::Result<Self> {
        Ok(NodeHost {
            core: NodeCore::new(me, peers, seed, handler),
            reactor: Reactor::from_socket(socket),
        })
    }

    /// Share a clock origin with other hosts (a cluster passes one
    /// `Instant` to all members so their `now_us` values are comparable).
    /// Must precede [`start`](NodeHost::start).
    pub fn with_epoch(mut self, epoch: Instant) -> Self {
        self.core = self.core.with_epoch(epoch);
        self
    }

    /// Add host-injected jitter to every [`Mailbox::set_timer`]: a uniform
    /// draw in `[0, jitter_us]` from this node's stream, exactly like the
    /// simulated hosts' `with_timer_jitter_us`.
    pub fn with_timer_jitter_us(mut self, jitter_us: u64) -> Self {
        self.core = self.core.with_timer_jitter_us(jitter_us);
        self
    }

    /// Authenticate this host's traffic with the cluster key: every
    /// outbound frame is sealed with a truncated HMAC-SHA256 tag and
    /// every inbound frame must carry a tag that verifies. Bare or
    /// forged frames are counted in [`NodeStats::auth_reject`] and
    /// dropped — never fatal, never dispatched.
    pub fn with_auth_key(mut self, key: AuthKey) -> Self {
        self.core = self.core.with_auth_key(key);
        self
    }

    /// Run `on_start` once. Idempotent; [`poll`](NodeHost::poll) and the
    /// blocking loops call it implicitly.
    pub fn start(&mut self) {
        self.core.start(&mut self.reactor.socket());
    }

    /// Run `f` against the handler with a live mailbox, outside the event
    /// loop — for host-initiated protocol actions such as announcing a
    /// graceful departure (`--leave`) just before shutdown. Sends go to
    /// the socket immediately; timers and RNG draws behave exactly as in
    /// a callback. Starts the host if it has not started yet, so the
    /// handler is never observed pre-`on_start`.
    pub fn with_handler(&mut self, f: impl FnOnce(&mut H, &mut dyn Mailbox<H::Msg>)) {
        self.core.with_handler(&mut self.reactor.socket(), f);
    }

    /// One non-blocking pump: fire every due timer, then drain up to a
    /// batch of waiting datagrams (re-checking timers between packets).
    /// Returns the number of callbacks dispatched; `0` means idle. Never
    /// blocks — a [`Cluster`](crate::Cluster) round-robins this across its
    /// hosts on the caller's thread.
    pub fn poll(&mut self) -> usize {
        self.reactor.pump(&mut self.core, None)
    }

    /// Blocking event loop until `deadline`: sleeps in the kernel on the
    /// socket (bounded by the next timer's due instant), wakes for
    /// datagrams and timers, returns when the deadline passes.
    pub(crate) fn run_until_deadline(&mut self, deadline: Instant) {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            self.reactor.pump(&mut self.core, Some(deadline - now));
        }
    }

    /// Pump the host's event loop until `wall` has elapsed.
    pub fn run_for(&mut self, wall: Duration) {
        self.run_until_deadline(Instant::now() + wall);
    }

    /// Answer any pending status-endpoint requests. Called by the event
    /// loops; callable directly when the host is otherwise paused (a test
    /// scraping `/metrics` mid-run against frozen stats does exactly
    /// this). Returns the number of requests served.
    pub fn pump_status(&mut self) -> usize {
        self.reactor.pump_status(&self.core)
    }
}

impl<H: Handler> NodeHost<H> {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.core.me()
    }

    /// Network size (address-book length).
    pub fn n(&self) -> usize {
        self.core.n()
    }

    /// The socket's actual bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.reactor.local_addr()
    }

    /// Microseconds since the host's epoch — what handler callbacks see as
    /// [`Mailbox::now_us`].
    pub fn now_us(&self) -> u64 {
        self.core.now_us()
    }

    /// The hosted handler.
    pub fn handler(&self) -> &H {
        self.core.handler()
    }

    /// Wire-level counters.
    pub fn stats(&self) -> &NodeStats {
        self.core.stats()
    }

    /// Modelled protocol metrics (the `bits` accounting every backend
    /// keeps). `delivered` here means "handed to the kernel" — a datagram's
    /// real fate is unknowable at the sender, exactly like the fire-and-
    /// forget contract of [`Mailbox::send`].
    pub fn metrics(&self) -> &Metrics {
        self.core.metrics()
    }

    /// The per-node protocol engine (everything that is not I/O).
    pub fn core(&self) -> &NodeCore<H> {
        &self.core
    }

    /// Keep the last `capacity` protocol events (sends, receives, timer
    /// fires, drops with reasons) in a bounded ring, inspectable via
    /// [`trace`](NodeHost::trace) and the `/trace` endpoint. Purely
    /// passive: recording never touches the RNG, the timers or the socket.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.core = self.core.with_trace(capacity);
        self
    }

    /// The protocol event log (`None` unless
    /// [`with_trace`](NodeHost::with_trace) enabled it).
    pub fn trace(&self) -> Option<&TraceRing> {
        self.core.trace()
    }

    /// How late timer callbacks ran relative to their due instant
    /// (real-clock µs): the host's scheduling-quality signal.
    pub fn timer_lag(&self) -> &Histogram {
        self.core.timer_lag()
    }

    /// Serve `/metrics` (Prometheus text exposition), `/status` (human-
    /// readable node summary) and `/trace` (the event ring, if enabled) on
    /// a TCP listener at `addr` (port 0 for ephemeral). Returns the bound
    /// address. The server is non-blocking and is pumped from the host's
    /// own event loops ([`poll`](NodeHost::poll),
    /// [`run_for`](NodeHost::run_for)) — no thread, no executor. Scrapes
    /// observe the host between callbacks, never during one.
    pub fn serve_status(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        self.reactor.serve_status(addr)
    }

    /// The status endpoint's bound address, if serving.
    pub fn status_addr(&self) -> Option<SocketAddr> {
        self.reactor.status_addr()
    }

    /// Route everything this host knows into one registry: wire counters,
    /// modelled protocol metrics, the timer-lag histogram, the trace
    /// ring's totals, host gauges and whatever the handler exports.
    pub fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        self.core.fill_registry(registry);
    }
}

impl<H: Handler + std::fmt::Debug> std::fmt::Debug for NodeHost<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHost")
            .field("core", &self.core)
            .field("reactor", &self.reactor)
            .finish()
    }
}
