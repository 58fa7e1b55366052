//! The in-process harness: N socket hosts on 127.0.0.1, one `Cluster`
//! for both schedules.
//!
//! [`Cluster::bind`] binds `n` UDP sockets on ephemeral loopback ports,
//! builds the shared address book and keeps the hosts on the caller's
//! thread, where [`poll`](Cluster::poll) round-robins their non-blocking
//! pumps. One thread for the whole cluster keeps mid-run inspection
//! trivial — tests look at any handler between passes, pump one member
//! and not another, or freeze the lot and scrape it.
//!
//! Threads are a lifecycle step, not a mode:
//! [`start_threads`](Cluster::start_threads) moves each [`NodeHost`]
//! onto its own OS thread, blocking in the kernel on its own socket —
//! real parallelism, real preemption, one process — and
//! [`stop_threads`](Cluster::stop_threads) joins the workers and puts
//! the hosts back, so post-mortem code is the same for both schedules:
//!
//! ```text
//! bind(n, seed, factory)          — sockets bound, hosts on this thread
//!     .with_auth_key(key)         — builders run on the local hosts
//! poll() / poll_node(i) / run_until(timeout, done)
//! start_threads()                 — one worker thread per host
//! run_until(timeout, done)        — each worker checks its own host
//! stop_threads()                  — flag + join; hosts back on this thread
//! ```
//!
//! Two things are each written once for both schedules:
//!
//! * **The goal.** [`run_until`](Cluster::run_until) takes a per-node
//!   predicate over one [`NodeHost`]; the cluster has converged when
//!   every host satisfies it. On the caller's thread it is checked for
//!   every host between passes; on workers, each host checks its own, so
//!   no thread ever reads another node's state.
//! * **The page.** `/metrics` folds every node's own registry together
//!   under a `node` label ([`Registry::merge_labelled`]) — exactly what
//!   scraping n separate node processes yields. On the caller's thread it
//!   is built fresh at scrape time; on workers, from the snapshots each
//!   worker publishes, so scrapes never touch live protocol state.
//!
//! Shutdown is cooperative: workers check an atomic stop flag between
//! bounded pump slices (a host's socket waits are capped at its poll
//! quantum), so `stop_threads` joins within a few quanta.

use crate::host::{NodeHost, NodeStats};
use gossip_net::{AuthKey, Handler, NodeId, WireMsg};
use gossip_obs::{HttpServer, Registry, Request, Response};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle pump pass on the caller's thread sleeps before
/// re-polling, to keep a waiting cluster from spinning a core flat out.
const IDLE_BACKOFF: Duration = Duration::from_micros(200);

/// One blocking pump slice of a worker thread: the granularity at which
/// workers notice the stop flag and a changed goal.
const SLICE: Duration = Duration::from_millis(5);

/// Worker slices between published pages. A page walks the host's whole
/// registry (causal reconstruction included when tracing is on), so it
/// is throttled to roughly every `SLICE × PUBLISH_EVERY`.
const PUBLISH_EVERY: u64 = 10;

/// How often the caller's thread re-checks the workers' goal flags and
/// pumps the status endpoint while they run.
const WAIT_TICK: Duration = Duration::from_millis(2);

/// The per-node goal a [`Cluster::run_until`] installs.
type Goal<H> = Arc<dyn Fn(&NodeHost<H>) -> bool + Send + Sync>;

/// One node's share of the cluster endpoint: its own registry, its wire
/// counters and its handler's status lines.
#[derive(Clone, Default)]
struct NodePage {
    registry: Registry,
    stats: NodeStats,
    status: Vec<(String, String)>,
}

impl NodePage {
    fn of<H: Handler>(host: &NodeHost<H>) -> Self {
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        NodePage {
            registry,
            stats: *host.stats(),
            status: host.handler().status_lines(host.now_us()),
        }
    }
}

/// What the workers share with the caller's thread.
struct Shared<H: Handler> {
    stop: AtomicBool,
    goal: Mutex<Option<Goal<H>>>,
    /// Per node: the latest published page.
    pages: Vec<Mutex<NodePage>>,
    /// Per node: whether its host met the goal at its last check.
    done: Vec<AtomicBool>,
}

/// The running workers, each returning its host at join.
struct Threads<H: Handler> {
    shared: Arc<Shared<H>>,
    workers: Vec<JoinHandle<NodeHost<H>>>,
}

/// `n` [`NodeHost`]s on loopback sockets, pumped from the caller's thread
/// or one OS thread each. See the module docs.
pub struct Cluster<H: Handler> {
    /// The hosts while they run on the caller's thread (empty while the
    /// workers hold them).
    hosts: Vec<NodeHost<H>>,
    /// `Some` between [`start_threads`](Cluster::start_threads) and
    /// [`stop_threads`](Cluster::stop_threads).
    threads: Option<Threads<H>>,
    /// A cluster-wide `/metrics` + `/status` endpoint (`None` until
    /// [`serve_status`](Cluster::serve_status)).
    status: Option<HttpServer>,
}

impl<H: Handler> Cluster<H>
where
    H::Msg: WireMsg,
{
    /// Bind `n` ephemeral sockets on 127.0.0.1 and host `factory(node)` on
    /// each, all sharing one clock epoch; the hosts start on the caller's
    /// thread. Fails with the socket error if the environment forbids
    /// loopback binds (sandboxed test runners do; callers skip gracefully
    /// — see the integration tests).
    pub fn bind(n: usize, seed: u64, factory: impl Fn(NodeId) -> H) -> io::Result<Self> {
        assert!(n >= 1, "a cluster needs at least one node");
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
            .collect::<io::Result<_>>()?;
        let peers: Vec<SocketAddr> = sockets
            .iter()
            .map(UdpSocket::local_addr)
            .collect::<io::Result<_>>()?;
        let epoch = Instant::now();
        let hosts = sockets
            .into_iter()
            .enumerate()
            .map(|(i, socket)| {
                let me = NodeId::new(i);
                NodeHost::from_socket(socket, me, peers.clone(), seed, factory(me))
                    .map(|host| host.with_epoch(epoch))
            })
            .collect::<io::Result<_>>()?;
        Ok(Cluster {
            hosts,
            threads: None,
            status: None,
        })
    }

    /// Authenticate the whole cluster with one key: every member seals
    /// its outbound frames and rejects (counts, never panics) inbound
    /// frames that are bare or fail to verify — see
    /// [`NodeHost::with_auth_key`].
    pub fn with_auth_key(self, key: AuthKey) -> Self {
        self.map_hosts(|h| h.with_auth_key(key.clone()))
    }

    /// Attach a passive trace ring of `capacity` events to every member;
    /// each node's `trace_chain_*` families are reconstructed from its own
    /// ring under its `node` label.
    pub fn with_trace(self, capacity: usize) -> Self {
        self.map_hosts(|h| h.with_trace(capacity))
    }

    /// Serve one cluster-wide `/metrics` + `/status` endpoint at `addr`
    /// (port 0 for ephemeral); returns the bound address. `/metrics` is
    /// [`registry`](Cluster::registry) rendered. Pumped by
    /// [`poll`](Cluster::poll) and by the waiting loops in both schedules.
    pub fn serve_status(&mut self, addr: impl std::net::ToSocketAddrs) -> io::Result<SocketAddr> {
        let server = HttpServer::bind(addr)?;
        let bound = server.local_addr()?;
        self.status = Some(server);
        Ok(bound)
    }

    /// The cluster status endpoint's bound address, if serving.
    pub fn status_addr(&self) -> Option<SocketAddr> {
        self.status.as_ref().and_then(|s| s.local_addr().ok())
    }

    /// Answer pending status-endpoint requests without pumping the member
    /// sockets (scrape-while-frozen, exactly like `NodeHost::pump_status`).
    pub fn pump_status(&mut self) -> usize {
        let Some(mut server) = self.status.take() else {
            return 0;
        };
        let served = server.poll(|req| self.respond(req));
        self.status = Some(server);
        served
    }

    /// The cluster's `/metrics` registry: every node's own registry under
    /// its `node` label. Built fresh from the hosts on the caller's
    /// thread, from the workers' latest published pages while they run.
    pub fn registry(&self) -> Registry {
        let mut merged = Registry::new();
        for (i, page) in self.pages().iter().enumerate() {
            merged.merge_labelled(&page.registry, ("node", &i.to_string()));
        }
        merged
    }

    /// One member host. Panics while the hosts run on worker threads, as
    /// every accessor of live hosts does.
    pub fn host(&self, node: NodeId) -> &NodeHost<H> {
        &self.local()[node.index()]
    }

    /// One member host, mutably — for host-initiated protocol actions
    /// such as a graceful leave (`NodeHost::with_handler`) before the
    /// member stops being polled.
    pub fn host_mut(&mut self, node: NodeId) -> &mut NodeHost<H> {
        &mut self.local_mut()[node.index()]
    }

    /// All hosts, in node-id order.
    pub fn hosts(&self) -> &[NodeHost<H>] {
        self.local()
    }

    /// Iterate every handler with its node id.
    pub fn iter_handlers(&self) -> impl Iterator<Item = (NodeId, &H)> {
        self.local().iter().map(|h| (h.me(), h.handler()))
    }

    /// Cluster-wide wire totals (field-wise sum of every host's stats).
    /// `bytes_sent` over all hosts is "bytes on the wire" for a loopback
    /// run — what E19 reports.
    pub fn total_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for host in self.local() {
            total.merge(host.stats());
        }
        total
    }

    /// One pump pass on the caller's thread: poll every host once, in
    /// node-id order, then the status endpoint. Returns the number of
    /// callbacks dispatched across the cluster; `0` = idle.
    pub fn poll(&mut self) -> usize {
        let dispatched = self.local_mut().iter_mut().map(NodeHost::poll).sum();
        self.pump_status();
        dispatched
    }

    /// Pump a single member, leaving the rest idle — their sockets still
    /// receive (the kernel buffers), but nothing dispatches. The handle
    /// for churn-shaped tests: a host never polled is a node that is down,
    /// and polling it later is the rejoin.
    pub fn poll_node(&mut self, node: NodeId) -> usize {
        self.local_mut()[node.index()].poll()
    }

    /// Run for a wall-clock duration: round-robin passes on the caller's
    /// thread, or status pumping while the workers run.
    pub fn run_for(&mut self, wall: Duration) {
        let deadline = Instant::now() + wall;
        while Instant::now() < deadline {
            self.wait_step();
        }
    }

    /// Run until every host satisfies `done`, or until `timeout`. Returns
    /// the elapsed wall time on success, `None` on timeout (the cluster is
    /// left running in whatever state it reached). On the caller's thread
    /// `done` is checked for every host between passes; on workers each
    /// host checks its own after every pump slice.
    pub fn run_until(
        &mut self,
        timeout: Duration,
        done: impl Fn(&NodeHost<H>) -> bool + Send + Sync + 'static,
    ) -> Option<Duration> {
        let goal: Goal<H> = Arc::new(done);
        if let Some(threads) = &self.threads {
            for flag in &threads.shared.done {
                flag.store(false, Ordering::Relaxed);
            }
            *threads.shared.goal.lock().expect("goal lock") = Some(Arc::clone(&goal));
        }
        let started = Instant::now();
        let result = loop {
            let converged = match &self.threads {
                None => self.hosts.iter().all(|h| goal(h)),
                Some(threads) => threads
                    .shared
                    .done
                    .iter()
                    .all(|flag| flag.load(Ordering::Relaxed)),
            };
            if converged {
                break Some(started.elapsed());
            }
            if started.elapsed() >= timeout {
                break None;
            }
            self.wait_step();
        };
        if let Some(threads) = &self.threads {
            *threads.shared.goal.lock().expect("goal lock") = None;
        }
        result
    }

    /// Join the worker threads and put their hosts back on the caller's
    /// thread, in node-id order. Workers return within a few poll quanta
    /// (socket waits are bounded). A no-op when no workers run.
    pub fn stop_threads(&mut self) {
        let Some(threads) = self.threads.take() else {
            return;
        };
        threads.shared.stop.store(true, Ordering::Relaxed);
        self.hosts = threads
            .workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect();
    }

    /// One step of a waiting loop: a pump pass (sleeping when idle) on the
    /// caller's thread, a status pump and a short sleep while workers run.
    fn wait_step(&mut self) {
        if self.threads.is_some() {
            self.pump_status();
            std::thread::sleep(WAIT_TICK);
        } else if self.poll() == 0 {
            std::thread::sleep(IDLE_BACKOFF);
        }
    }

    /// Apply a host builder to every member (builders precede
    /// `start_threads`).
    fn map_hosts(mut self, f: impl FnMut(NodeHost<H>) -> NodeHost<H>) -> Self {
        self.local();
        self.hosts = std::mem::take(&mut self.hosts).into_iter().map(f).collect();
        self
    }

    fn respond(&self, req: &Request) -> Response {
        let path = req.path.split('?').next().unwrap_or("");
        match path {
            "/metrics" => Response::metrics(self.registry().render()),
            "/status" => Response::ok("text/plain", self.status_page()),
            _ => Response::not_found(),
        }
    }

    /// The cluster `/status` page: schedule, wire totals, and each
    /// member's handler lines.
    fn status_page(&self) -> String {
        use std::fmt::Write;
        let pages = self.pages();
        let mut total = NodeStats::default();
        for page in &pages {
            total.merge(&page.stats);
        }
        let mut page = String::new();
        let schedule = if self.threads.is_some() {
            "one worker thread per node"
        } else {
            "round-robin on one thread"
        };
        let _ = writeln!(page, "cluster of {}, {schedule}", pages.len());
        total.write_summary(&mut page);
        for (i, node) in pages.iter().enumerate() {
            for (key, value) in &node.status {
                let _ = writeln!(page, "node {i}  {key}: {value}");
            }
        }
        page
    }
}

impl<H: Handler> Cluster<H> {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.threads
            .as_ref()
            .map_or(self.hosts.len(), |t| t.workers.len())
    }

    /// Every node's page: fresh from the local hosts, or the workers'
    /// latest published ones.
    fn pages(&self) -> Vec<NodePage> {
        match &self.threads {
            None => self.hosts.iter().map(NodePage::of).collect(),
            Some(threads) => threads
                .shared
                .pages
                .iter()
                .map(|p| p.lock().expect("page lock").clone())
                .collect(),
        }
    }

    /// The hosts, which must be on the caller's thread.
    fn local(&self) -> &[NodeHost<H>] {
        assert!(
            self.threads.is_none(),
            "the hosts run on worker threads; stop_threads() first"
        );
        &self.hosts
    }

    fn local_mut(&mut self) -> &mut [NodeHost<H>] {
        self.local();
        &mut self.hosts
    }
}

impl<H> Cluster<H>
where
    H: Handler + Send + 'static,
    H::Msg: WireMsg,
{
    /// Move every host onto its own OS thread, each pumping its own socket
    /// in bounded blocking slices. Until
    /// [`stop_threads`](Cluster::stop_threads), the accessors of live
    /// hosts panic and [`run_until`](Cluster::run_until) /
    /// [`run_for`](Cluster::run_for) wait on the workers. A no-op when the
    /// workers already run.
    pub fn start_threads(&mut self) {
        if self.threads.is_some() {
            return;
        }
        let n = self.hosts.len();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            goal: Mutex::new(None),
            pages: (0..n).map(|_| Mutex::default()).collect(),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
        });
        let workers = self
            .hosts
            .drain(..)
            .enumerate()
            .map(|(i, host)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gossip-node-{i}"))
                    .spawn(move || worker_loop(host, i, &shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        self.threads = Some(Threads { shared, workers });
    }
}

impl<H: Handler> Drop for Cluster<H> {
    /// Stop and join the workers, so a cluster dropped mid-run (a failing
    /// test unwinding, say) leaves no thread pumping behind it.
    fn drop(&mut self) {
        if let Some(threads) = self.threads.take() {
            threads.shared.stop.store(true, Ordering::Relaxed);
            for worker in threads.workers {
                // A worker's panic has already been reported on its own
                // thread; panicking again here could abort an unwind.
                let _ = worker.join();
            }
        }
    }
}

impl<H: Handler> std::fmt::Debug for Cluster<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("n", &self.n())
            .field("threads", &self.threads.is_some())
            .finish_non_exhaustive()
    }
}

/// One worker thread: pump the host in bounded blocking slices until the
/// stop flag rises, checking the goal and publishing the node's page
/// along the way. Returns the host for [`Cluster::stop_threads`].
fn worker_loop<H>(mut host: NodeHost<H>, index: usize, shared: &Shared<H>) -> NodeHost<H>
where
    H: Handler + Send + 'static,
    H::Msg: WireMsg,
{
    let mut slices: u64 = 0;
    while !shared.stop.load(Ordering::Relaxed) {
        host.run_for(SLICE);
        slices += 1;
        let goal = shared.goal.lock().expect("goal lock").clone();
        if let Some(goal) = goal {
            shared.done[index].store(goal(&host), Ordering::Relaxed);
        }
        // `== 1`, not `== 0`: the first page lands after one slice, so a
        // cluster that converges in milliseconds still scrapes as
        // populated rather than as PUBLISH_EVERY slices of emptiness.
        if slices % PUBLISH_EVERY == 1 {
            *shared.pages[index].lock().expect("page lock") = NodePage::of(&host);
        }
    }
    host
}
