//! The I/O half of a socket host: one UDP socket, one optional HTTP
//! status listener, one readiness loop.
//!
//! [`Reactor`] owns everything the OS hands out — the bound
//! [`UdpSocket`], the receive buffer, the socket's blocking-mode cache
//! and the non-blocking [`HttpServer`] — and none of the protocol state.
//! It drives a [`NodeCore`] through a single entry point,
//! [`Reactor::pump`], which subsumes what used to be two hand-maintained
//! loops (a non-blocking poll and a blocking deadline loop that toggled
//! `set_nonblocking` back and forth):
//!
//! * `pump(core, None)` — non-blocking: fire due timers, drain up to a
//!   batch of waiting datagrams (re-checking timers between packets),
//!   answer status scrapes, return. The cluster's round-robin uses this.
//! * `pump(core, Some(budget))` — blocking: same pass, but the socket
//!   wait sleeps in the kernel for up to `budget`, bounded by the next
//!   due timer and [`MAX_BLOCK_WAIT`] so timers and scrapes stay
//!   punctual. Deployed single-node loops and the cluster's worker
//!   threads use this.
//!
//! Splitting I/O from protocol state is also what makes the core
//! testable without sockets and reusable across host shapes — see the
//! [`core`](crate::core) module docs.

use crate::core::{NodeCore, Recv};
use gossip_net::{Handler, WireMsg, MAX_FRAME_BYTES};
use gossip_obs::HttpServer;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

/// Receive buffer size: one byte more than the largest legal frame. The
/// kernel cuts a longer datagram to fit, so an overlong one arrives as
/// `MAX_FRAME_BYTES + 1` bytes, which no length field can account for,
/// and is rejected by the decoder as before instead of being trimmed into
/// something acceptable.
const RECV_BUF_BYTES: usize = MAX_FRAME_BYTES + 1;

/// Datagrams drained per [`Reactor::pump`] pass before yielding, so a
/// flood cannot starve the timer queue or the caller's loop.
const MAX_RECV_BATCH: usize = 64;

/// Ceiling on one blocking wait in [`Reactor::pump`]: the loop wakes at
/// least this often to re-check timers, deadlines and status scrapes.
/// This is the host's *poll quantum* — the worst-case lag a timer or a
/// scrape can see from the host sleeping in the kernel.
pub const MAX_BLOCK_WAIT: Duration = Duration::from_millis(10);

/// The I/O engine of one node: the socket, the receive buffer and the
/// status endpoint. Protocol state lives in the [`NodeCore`] it pumps.
pub struct Reactor {
    socket: UdpSocket,
    /// Cached blocking mode, so pump passes flip the socket option only
    /// on an actual change.
    nonblocking: bool,
    read_timeout: Option<Duration>,
    /// The `/metrics` + `/status` endpoint (`None` until
    /// [`Reactor::serve_status`]).
    status: Option<HttpServer>,
    recv_buf: Vec<u8>,
}

impl Reactor {
    /// A reactor over an already-bound socket.
    pub fn from_socket(socket: UdpSocket) -> Self {
        Reactor {
            socket,
            nonblocking: false,
            read_timeout: None,
            status: None,
            recv_buf: vec![0; RECV_BUF_BYTES],
        }
    }

    /// Bind a fresh UDP socket at `bind_addr` (e.g. `"127.0.0.1:7000"`,
    /// port 0 for ephemeral).
    pub fn bind(bind_addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self::from_socket(UdpSocket::bind(bind_addr)?))
    }

    /// The socket's actual bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The owned socket, for sends outside a pump pass (the seam
    /// [`NodeHost::with_handler`](crate::NodeHost::with_handler) routes
    /// through — a `&UdpSocket` is itself a
    /// [`FrameSink`](crate::FrameSink)).
    pub fn socket(&self) -> &UdpSocket {
        &self.socket
    }

    /// Serve `/metrics` (Prometheus text exposition), `/status` (human-
    /// readable node summary) and `/trace` (the event ring, if enabled) on
    /// a TCP listener at `addr` (port 0 for ephemeral). Returns the bound
    /// address. The server is non-blocking and is pumped from
    /// [`pump`](Reactor::pump) — no thread, no executor. Scrapes observe
    /// the core between callbacks, never during one.
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

    /// Answer any pending status-endpoint requests against `core`'s
    /// current state. Called by [`pump`](Reactor::pump); callable
    /// directly when the host is otherwise paused (a test scraping
    /// `/metrics` mid-run against frozen stats does exactly this).
    /// Returns the number of requests served.
    pub fn pump_status<H: Handler>(&mut self, core: &NodeCore<H>) -> usize {
        match &mut self.status {
            Some(server) => {
                let udp_addr = self.socket.local_addr().ok();
                server.poll(|req| core.respond(req, udp_addr))
            }
            None => 0,
        }
    }

    /// One readiness pass over `core` — the single event loop both host
    /// shapes share (see the module docs). `wait` is the largest time
    /// this call may spend blocked in the kernel: `None` never blocks;
    /// `Some(budget)` sleeps on the socket for up to
    /// `budget.min(`[`MAX_BLOCK_WAIT`]`)`, additionally bounded by the
    /// next due timer so timers never lag more than one poll quantum
    /// behind a sleeping socket. Returns the number of callbacks
    /// dispatched; `0` means the pass was idle.
    pub fn pump<H: Handler>(&mut self, core: &mut NodeCore<H>, wait: Option<Duration>) -> usize
    where
        H::Msg: WireMsg,
    {
        core.start(&mut &self.socket);
        let mut dispatched = core.fire_due_timers(&mut &self.socket);
        match wait {
            None => {
                self.set_nonblocking(true);
                for _ in 0..MAX_RECV_BATCH {
                    match self.recv_one(core) {
                        Recv::Dispatched => dispatched += 1,
                        Recv::Rejected | Recv::Error => {} // counted, not dispatched
                        Recv::Idle => break,               // nothing waiting
                    }
                    dispatched += core.fire_due_timers(&mut &self.socket);
                }
            }
            Some(budget) => {
                self.set_nonblocking(false);
                let mut wait = budget.min(MAX_BLOCK_WAIT);
                if let Some(until_due) = core.until_next_timer() {
                    wait = wait.min(until_due);
                }
                // set_read_timeout(Some(0)) is an error; anything due
                // fires on the next pump anyway.
                self.set_read_timeout(wait.max(Duration::from_micros(100)));
                if let Recv::Error = self.recv_one(core) {
                    // A socket in a persistent error state returns
                    // instantly instead of sleeping on its timeout; back
                    // off so the loop cannot busy-spin a core — but never
                    // past the next due timer (or the caller's budget),
                    // so an erroring socket cannot add timer lag.
                    let mut backoff = Duration::from_millis(1).min(budget);
                    if let Some(until_due) = core.until_next_timer() {
                        backoff = backoff.min(until_due);
                    }
                    std::thread::sleep(backoff);
                } else {
                    dispatched += core.fire_due_timers(&mut &self.socket);
                }
            }
        }
        self.pump_status(core);
        dispatched
    }

    /// Receive and deliver one datagram into `core`.
    fn recv_one<H: Handler>(&mut self, core: &mut NodeCore<H>) -> Recv
    where
        H::Msg: WireMsg,
    {
        let (len, src) = match self.socket.recv_from(&mut self.recv_buf) {
            Ok(got) => got,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Recv::Idle,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => return Recv::Idle,
            // Other kernel-level errors (e.g. a previous send's ICMP
            // port-unreachable surfacing on Linux) are not fatal to the
            // loop, but they are counted — and the blocking pump backs off
            // on them, since an erroring socket returns without sleeping.
            Err(_) => {
                core.note_recv_error();
                return Recv::Error;
            }
        };
        core.on_datagram(&self.recv_buf[..len], src, &mut &self.socket)
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

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("local_addr", &self.socket.local_addr().ok())
            .field("nonblocking", &self.nonblocking)
            .field("status", &self.status_addr())
            .finish_non_exhaustive()
    }
}
