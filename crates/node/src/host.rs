//! The socket host: one [`Handler`] on one UDP socket.
//!
//! [`NodeHost`] is the deployable counterpart of the simulator's
//! `ShardedDriver`: the same callbacks, the same [`Mailbox`] surface, but
//! `send` writes a [wire frame](gossip_net::wire) to a real
//! [`UdpSocket`] and `now_us` reads a real clock.
//!
//! Everything about the node that is not I/O — handler, timer queue,
//! address book, RNG, stats, trace ring, authentication key — lives in a
//! [`NodeCore`]. The host owns what the OS hands out: the bound socket,
//! its blocking-mode cache, the receive buffer and the non-blocking
//! status server. It drives the core through one readiness pass, `pump`,
//! in two shapes:
//!
//! * non-blocking ([`poll`](NodeHost::poll)) — fire due timers, drain up
//!   to a batch of waiting datagrams (re-checking timers between
//!   packets), answer status scrapes, return. The cluster's round-robin
//!   uses this.
//! * blocking ([`run_for`](NodeHost::run_for)) — the same pass, but the
//!   socket wait sleeps in the kernel, bounded by the next due timer and
//!   [`MAX_BLOCK_WAIT`] so timers and scrapes stay punctual. Deployed
//!   single-node loops and the cluster's worker threads use this.
//!
//! The event loop keeps the driver's dispatch discipline where reality
//! permits it:
//!
//! * **Timers** fire in exact `(due instant, arm order)` order — the
//!   `(timestamp, seq)` key of the simulators — from a monotonic queue
//!   that survives between loop iterations. [`Mailbox::cancel_timer`]
//!   works exactly as on the simulated hosts.
//! * **Messages** dispatch in kernel arrival order with the receive
//!   instant as their timestamp. Due timers are drained before the socket
//!   is read, so a timer is never starved by a packet burst.
//! * **Sends** a callback makes are queued in the host's send batch, in
//!   call order, and leave together when the pass ends: one `sendmmsg(2)`
//!   per 64 frames on 64-bit Linux, one `send_to` per frame elsewhere.
//!   The blocking pass also flushes before it sleeps, so what its timers
//!   sent never waits out the socket wait; [`start`](NodeHost::start) and
//!   [`with_handler`](NodeHost::with_handler) flush before they return.
//!   A frame the kernel refuses at the flush is counted as any refused
//!   send: in [`NodeStats::send_errors`], as a dropped message in
//!   [`metrics`](NodeHost::metrics), and as a `Drop` trace record.
//!
//! What real time *breaks* relative to virtual time is documented in
//! `DESIGN.md` §6: there is no global barrier, no replayable total order
//! across nodes, and loss/latency are whatever the network does —
//! protocols built for the simulators' failure models (idempotent merges,
//! stateless exchanges, re-arming timers) carry over; protocols that
//! secretly relied on determinism do not. Churn is best-effort by
//! construction: a process that stops polling is a crashed node, one that
//! resumes is a rejoiner that kept its state, and a fresh process is the
//! simulators' fresh-incarnation rejoin. Frame authentication
//! ([`NodeHost::with_auth_key`]) closes the "trusts sender ids verbatim"
//! gap: a keyed host seals every outbound frame with a truncated
//! HMAC-SHA256 tag and drops (counts, never panics) every inbound frame
//! that does not verify.

use crate::batch::SendBatch;
use crate::core::{NodeCore, Recv};

pub use crate::core::NodeStats;
use gossip_net::{AuthKey, Handler, Mailbox, Metrics, NodeId, WireMsg, MAX_FRAME_BYTES};
use gossip_obs::{Histogram, HttpServer, TraceRing};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// Receive buffer size: one byte more than the largest legal frame. The
/// kernel cuts a longer datagram to fit, so an overlong one arrives as
/// `MAX_FRAME_BYTES + 1` bytes, which no length field can account for,
/// and is rejected by the decoder instead of being trimmed into
/// something acceptable.
const RECV_BUF_BYTES: usize = MAX_FRAME_BYTES + 1;

/// Datagrams drained per pump pass before yielding, so a flood cannot
/// starve the timer queue or the caller's loop.
const MAX_RECV_BATCH: usize = 64;

/// Ceiling on one blocking wait in the host's event loop: the loop wakes
/// at least this often to re-check timers, deadlines and status scrapes.
/// This is the host's *poll quantum* — the worst-case lag a timer or a
/// scrape can see from the host sleeping in the kernel.
pub const MAX_BLOCK_WAIT: Duration = Duration::from_millis(10);

/// One node of a real deployment: a [`Handler`] driven by a UDP socket.
/// See the module docs for the dispatch discipline.
pub struct NodeHost<H: Handler> {
    core: NodeCore<H>,
    socket: UdpSocket,
    /// Cached blocking mode, so pump passes flip the socket option only
    /// on an actual change.
    nonblocking: bool,
    read_timeout: Option<Duration>,
    /// The `/metrics` + `/status` endpoint (`None` until
    /// [`serve_status`](NodeHost::serve_status)).
    status: Option<HttpServer>,
    recv_buf: Vec<u8>,
    /// The frames the current pass has sent, handed to the socket when
    /// the pass ends.
    batch: SendBatch,
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
            socket,
            nonblocking: false,
            read_timeout: None,
            status: None,
            recv_buf: vec![0; RECV_BUF_BYTES],
            batch: SendBatch::default(),
        })
    }

    /// Share a clock origin with other hosts (a cluster passes one
    /// `Instant` to all members so their `now_us` values are comparable).
    /// Must precede [`start`](NodeHost::start).
    pub fn with_epoch(mut self, epoch: Instant) -> Self {
        self.core = self.core.with_epoch(epoch);
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
        self.core.start(&mut self.batch);
        self.flush();
    }

    /// Run `f` against the handler with a live mailbox, outside the event
    /// loop — for host-initiated protocol actions such as announcing a
    /// graceful departure (`--leave`) just before shutdown. Sends go to
    /// the socket when `f` returns; timers and RNG draws behave exactly as
    /// in a callback. Starts the host if it has not started yet, so the
    /// handler is never observed pre-`on_start`.
    pub fn with_handler(&mut self, f: impl FnOnce(&mut H, &mut dyn Mailbox<H::Msg>)) {
        self.core.with_handler(&mut self.batch, f);
        self.flush();
    }

    /// One non-blocking pump: fire every due timer, then drain up to a
    /// batch of waiting datagrams (re-checking timers between packets).
    /// Returns the number of callbacks dispatched; `0` means idle. Never
    /// blocks — a [`Cluster`](crate::Cluster) round-robins this across its
    /// hosts on the caller's thread.
    pub fn poll(&mut self) -> usize {
        self.pump(None)
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
            self.pump(Some(deadline - now));
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
        match &mut self.status {
            Some(server) => {
                let udp_addr = self.socket.local_addr().ok();
                server.poll(|req| self.core.respond(req, udp_addr))
            }
            None => 0,
        }
    }

    /// One readiness pass over the core — the single event loop both
    /// [`poll`](NodeHost::poll) and the blocking loops share. `wait` is
    /// the largest time this call may spend blocked in the kernel: `None`
    /// never blocks; `Some(budget)` sleeps on the socket for up to
    /// `budget.min(`[`MAX_BLOCK_WAIT`]`)`, additionally bounded by the
    /// next due timer so timers never lag more than one poll quantum
    /// behind a sleeping socket. The pass's sends leave in one batch
    /// when it ends, and before it sleeps. Returns the number of callbacks
    /// dispatched; `0` means the pass was idle.
    fn pump(&mut self, wait: Option<Duration>) -> usize {
        self.core.start(&mut self.batch);
        let mut dispatched = self.core.fire_due_timers(&mut self.batch);
        match wait {
            None => {
                self.set_nonblocking(true);
                for _ in 0..MAX_RECV_BATCH {
                    match self.recv_one() {
                        Recv::Dispatched => dispatched += 1,
                        Recv::Rejected | Recv::Error => {} // counted, not dispatched
                        Recv::Idle => break,               // nothing waiting
                    }
                    dispatched += self.core.fire_due_timers(&mut self.batch);
                }
            }
            Some(budget) => {
                // What the timers sent must not wait out the sleep.
                self.flush();
                self.set_nonblocking(false);
                let mut wait = budget.min(MAX_BLOCK_WAIT);
                if let Some(until_due) = self.core.until_next_timer() {
                    wait = wait.min(until_due);
                }
                // set_read_timeout(Some(0)) is an error; anything due
                // fires on the next pump anyway.
                self.set_read_timeout(wait.max(Duration::from_micros(100)));
                if let Recv::Error = self.recv_one() {
                    // A socket in a persistent error state returns
                    // instantly instead of sleeping on its timeout; back
                    // off so the loop cannot busy-spin a core — but never
                    // past the next due timer (or the caller's budget),
                    // so an erroring socket cannot add timer lag.
                    let mut backoff = Duration::from_millis(1).min(budget);
                    if let Some(until_due) = self.core.until_next_timer() {
                        backoff = backoff.min(until_due);
                    }
                    std::thread::sleep(backoff);
                } else {
                    dispatched += self.core.fire_due_timers(&mut self.batch);
                }
            }
        }
        self.flush();
        self.pump_status();
        dispatched
    }

    /// Hand the batch to the socket; the core re-books every frame the
    /// kernel refuses as a failed send.
    fn flush(&mut self) {
        let core = &mut self.core;
        self.batch.flush(&self.socket, |queued| {
            core.note_refused(queued.addr, queued.phase, queued.frame)
        });
    }

    /// Receive and deliver one datagram into the core.
    fn recv_one(&mut self) -> Recv {
        let (len, src) = match self.socket.recv_from(&mut self.recv_buf) {
            Ok(got) => got,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Recv::Idle,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => return Recv::Idle,
            // Other kernel-level errors (e.g. a previous send's ICMP
            // port-unreachable surfacing on Linux) are not fatal to the
            // loop, but they are counted — and the blocking pump backs off
            // on them, since an erroring socket returns without sleeping.
            Err(_) => {
                self.core.note_recv_error();
                return Recv::Error;
            }
        };
        self.core
            .on_datagram(&self.recv_buf[..len], src, &mut self.batch)
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
        self.socket.local_addr()
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
    /// keeps). `delivered` here means "handed to the kernel when the pass's
    /// batch is flushed" — a datagram's
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
        let server = HttpServer::bind(addr)?;
        let bound = server.local_addr()?;
        self.status = Some(server);
        Ok(bound)
    }

    /// The status endpoint's bound address, if serving.
    pub fn status_addr(&self) -> Option<SocketAddr> {
        self.status.as_ref().and_then(|s| s.local_addr().ok())
    }

    /// Route everything this host knows into one registry: wire counters,
    /// modelled protocol metrics, the timer-lag histogram, the trace
    /// ring's totals, host gauges and whatever the handler exports.
    pub fn fill_registry(&self, registry: &mut gossip_obs::Registry) {
        self.core.fill_registry(registry);
    }

    fn set_nonblocking(&mut self, nonblocking: bool) {
        if self.nonblocking != nonblocking {
            // Failing to flip the mode would hang the loop; this is the
            // one socket option the host cannot run without.
            self.socket
                .set_nonblocking(nonblocking)
                .expect("set_nonblocking is supported on every UDP target");
            self.nonblocking = nonblocking;
        }
    }

    /// Bound one blocking receive — which also bounds how long a cluster
    /// worker takes to notice its stop flag.
    fn set_read_timeout(&mut self, timeout: Duration) {
        if self.read_timeout != Some(timeout) {
            self.socket
                .set_read_timeout(Some(timeout))
                .expect("set_read_timeout accepts any positive duration");
            self.read_timeout = Some(timeout);
        }
    }
}

impl<H: Handler + std::fmt::Debug> std::fmt::Debug for NodeHost<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHost")
            .field("core", &self.core)
            .field("local_addr", &self.socket.local_addr().ok())
            .field("nonblocking", &self.nonblocking)
            .field("status", &self.status_addr())
            .finish()
    }
}
