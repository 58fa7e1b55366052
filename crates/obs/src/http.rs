//! A tiny non-blocking HTTP/1.0 server for status pages.
//!
//! `std::net` only — no tokio, matching the UDP host's style. The server
//! is pumped cooperatively from the owner's event loop ([`HttpServer::poll`]
//! never blocks), so a scrape can never stall the protocol. It is scoped
//! to what a metrics endpoint needs and hardened against hostile input:
//!
//! * request heads are capped (`MAX_HEAD_BYTES` → `431`),
//! * concurrent connections are capped (`MAX_CONNECTIONS` → excess
//!   accepts are dropped immediately),
//! * every connection has a wall-clock deadline (`CONN_DEADLINE`), so a
//!   half-open peer that never finishes its request (or never reads the
//!   response) is dropped instead of wedging the node,
//! * malformed request lines get a `400` and the connection is closed —
//!   every response closes (`Connection: close`); there is no keep-alive.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest request head (request line + headers) we will buffer.
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Most connections serviced at once; excess accepts are closed at once.
pub(crate) const MAX_CONNECTIONS: usize = 32;
/// Wall-clock budget for a connection to finish its request/response.
pub(crate) const CONN_DEADLINE: Duration = Duration::from_secs(2);

/// A parsed request: just the parts a status endpoint cares about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method (`GET`, usually).
    pub method: String,
    /// The request path, query string included (`/metrics`).
    pub path: String,
}

/// A response to render: status + content type + body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` with the given content type.
    pub fn ok(content_type: &str, body: String) -> Self {
        Response {
            status: 200,
            content_type: content_type.to_string(),
            body,
        }
    }

    /// A `200 OK` carrying Prometheus text exposition.
    pub fn metrics(body: String) -> Self {
        Response::ok("text/plain; version=0.0.4", body)
    }

    /// A plain-text `404`.
    pub fn not_found() -> Self {
        Response {
            status: 404,
            content_type: "text/plain".to_string(),
            body: "not found\n".to_string(),
        }
    }

    /// A plain-text `400` with a short explanation (endpoints use this
    /// for malformed query strings).
    pub fn bad_request(detail: &str) -> Self {
        Response {
            status: 400,
            content_type: "text/plain".to_string(),
            body: format!("bad request: {detail}\n"),
        }
    }

    fn status_line(&self) -> &'static str {
        match self.status {
            200 => "200 OK",
            400 => "400 Bad Request",
            404 => "404 Not Found",
            431 => "431 Request Header Fields Too Large",
            _ => "500 Internal Server Error",
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        let head = format!(
            "HTTP/1.0 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status_line(),
            self.content_type,
            self.body.len()
        );
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

fn bad_request() -> Response {
    Response {
        status: 400,
        content_type: "text/plain".to_string(),
        body: "bad request\n".to_string(),
    }
}

fn head_too_large() -> Response {
    Response {
        status: 431,
        content_type: "text/plain".to_string(),
        body: "request head too large\n".to_string(),
    }
}

/// Parse the request line out of a complete head. `None` means malformed.
fn parse_head(head: &[u8]) -> Option<Request> {
    let text = std::str::from_utf8(head).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || !version.starts_with("HTTP/") || !path.starts_with('/') {
        return None;
    }
    Some(Request {
        method: method.to_string(),
        path: path.to_string(),
    })
}

enum ConnState {
    /// Accumulating the request head.
    Reading(Vec<u8>),
    /// Flushing the response; `usize` is bytes already written.
    Writing(Vec<u8>, usize),
    /// Response flushed and the write side shut down (the FIN tells the
    /// client the body is complete); discarding whatever the client is
    /// still sending until it closes. Closing outright with unread input
    /// in the socket would RST the connection and could destroy the
    /// response in flight — the classic lingering-close problem, visible
    /// on every 431 whose client is mid-upload.
    Draining,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    deadline: Instant,
}

/// The server: a non-blocking listener plus in-flight connections.
///
/// Call [`HttpServer::poll`] from your event loop; it does a bounded
/// amount of work and returns immediately.
pub struct HttpServer {
    listener: TcpListener,
    conns: Vec<Conn>,
    requests_served: u64,
    connections_dropped: u64,
}

impl HttpServer {
    /// Bind a non-blocking listener on `addr`.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(HttpServer {
            listener,
            conns: Vec::new(),
            requests_served: 0,
            connections_dropped: 0,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Requests answered so far (any status).
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Connections dropped without an answer (deadline, overload, I/O error).
    pub fn connections_dropped(&self) -> u64 {
        self.connections_dropped
    }

    /// Accept new connections and advance every in-flight one; never
    /// blocks. `respond` is called once per complete, well-formed request.
    /// Returns the number of requests answered this call.
    pub fn poll(&mut self, mut respond: impl FnMut(&Request) -> Response) -> usize {
        let now = Instant::now();
        // Accept everything pending; enforce the connection cap.
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= MAX_CONNECTIONS {
                        self.connections_dropped += 1;
                        continue; // dropping `stream` closes it
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.connections_dropped += 1;
                        continue;
                    }
                    self.conns.push(Conn {
                        stream,
                        state: ConnState::Reading(Vec::new()),
                        deadline: now + CONN_DEADLINE,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break, // transient accept error; retry next poll
            }
        }

        let mut served = 0;
        let mut i = 0;
        while i < self.conns.len() {
            let conn = &mut self.conns[i];
            if now >= conn.deadline {
                // A drained connection already got its answer; only count
                // the ones that never did.
                if !matches!(conn.state, ConnState::Draining) {
                    self.connections_dropped += 1;
                }
                self.conns.swap_remove(i);
                continue;
            }
            let mut drop_conn = false;
            let mut answered = false;
            match &mut conn.state {
                ConnState::Reading(buf) => {
                    let mut chunk = [0u8; 1024];
                    loop {
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => {
                                // EOF before a full head: nothing to answer.
                                drop_conn = true;
                                self.connections_dropped += 1;
                                break;
                            }
                            Ok(n) => {
                                buf.extend_from_slice(&chunk[..n]);
                                if let Some(end) = find_head_end(buf) {
                                    let response = match parse_head(&buf[..end]) {
                                        Some(req) => respond(&req),
                                        None => bad_request(),
                                    };
                                    answered = true;
                                    conn.state = ConnState::Writing(response.to_bytes(), 0);
                                    break;
                                }
                                if buf.len() > MAX_HEAD_BYTES {
                                    answered = true;
                                    conn.state = ConnState::Writing(head_too_large().to_bytes(), 0);
                                    break;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                drop_conn = true;
                                self.connections_dropped += 1;
                                break;
                            }
                        }
                    }
                }
                ConnState::Writing(..) => {}
                ConnState::Draining => {
                    let mut chunk = [0u8; 1024];
                    loop {
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => {
                                drop_conn = true; // client closed: done
                                break;
                            }
                            Ok(_) => {} // discard
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                drop_conn = true;
                                break;
                            }
                        }
                    }
                }
            }
            if answered {
                self.requests_served += 1;
                served += 1;
            }
            if !drop_conn {
                if let ConnState::Writing(bytes, written) = &mut conn.state {
                    let mut flushed = false;
                    loop {
                        if *written == bytes.len() {
                            flushed = true;
                            break;
                        }
                        match conn.stream.write(&bytes[*written..]) {
                            Ok(0) => {
                                drop_conn = true;
                                break;
                            }
                            Ok(n) => *written += n,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                drop_conn = true;
                                break;
                            }
                        }
                    }
                    if flushed {
                        // Lingering close: FIN the client (it sees EOF and
                        // knows the body is complete), then keep draining
                        // its unread upload so the close cannot RST.
                        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                        conn.state = ConnState::Draining;
                    }
                }
            }
            if drop_conn {
                self.conns.swap_remove(i);
            } else {
                i += 1;
            }
        }
        served
    }
}

/// Index just past the `\r\n\r\n` (or lenient `\n\n`) head terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sandboxes may forbid even loopback TCP; skip gracefully there,
    /// mirroring the UDP suites' `sockets_available` pattern.
    fn server_or_skip() -> Option<HttpServer> {
        match HttpServer::bind("127.0.0.1:0") {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("skipping: loopback TCP unavailable ({e})");
                None
            }
        }
    }

    fn respond(req: &Request) -> Response {
        match req.path.as_str() {
            "/ping" => Response::ok("text/plain", "pong\n".to_string()),
            _ => Response::not_found(),
        }
    }

    /// Pump the server until `conn` yields a full response (EOF).
    fn fetch(server: &mut HttpServer, conn: &mut TcpStream) -> String {
        conn.set_nonblocking(true).unwrap();
        let mut out = Vec::new();
        let start = Instant::now();
        loop {
            server.poll(respond);
            let mut chunk = [0u8; 1024];
            match conn.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
            assert!(start.elapsed() < Duration::from_secs(5), "fetch timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn serves_a_simple_get() {
        let Some(mut server) = server_or_skip() else {
            return;
        };
        let addr = server.local_addr().unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /ping HTTP/1.0\r\n\r\n").unwrap();
        let reply = fetch(&mut server, &mut conn);
        assert!(reply.starts_with("HTTP/1.0 200 OK"), "reply: {reply}");
        assert!(reply.ends_with("pong\n"));
        assert_eq!(server.requests_served(), 1);
    }

    #[test]
    fn unknown_path_is_404_and_garbage_is_400() {
        let Some(mut server) = server_or_skip() else {
            return;
        };
        let addr = server.local_addr().unwrap();

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert!(fetch(&mut server, &mut conn).starts_with("HTTP/1.0 404"));

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"\x00\x01garbage\r\n\r\n").unwrap();
        assert!(fetch(&mut server, &mut conn).starts_with("HTTP/1.0 400"));
    }

    #[test]
    fn oversized_head_is_431() {
        let Some(mut server) = server_or_skip() else {
            return;
        };
        let addr = server.local_addr().unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /ping HTTP/1.0\r\n").unwrap();
        let filler = format!("X-Pad: {}\r\n", "y".repeat(1024));
        for _ in 0..10 {
            if conn.write_all(filler.as_bytes()).is_err() {
                break; // server may already be answering/closing
            }
            server.poll(respond);
        }
        let reply = fetch(&mut server, &mut conn);
        assert!(reply.starts_with("HTTP/1.0 431"), "reply: {reply}");
    }

    #[test]
    fn half_open_connection_is_dropped_not_wedged() {
        let Some(mut server) = server_or_skip() else {
            return;
        };
        let addr = server.local_addr().unwrap();
        // Opens a connection, sends half a request line, goes silent.
        let mut half_open = TcpStream::connect(addr).unwrap();
        half_open.write_all(b"GET /pi").unwrap();
        server.poll(respond);
        // A well-behaved client must still get served immediately.
        let mut good = TcpStream::connect(addr).unwrap();
        good.write_all(b"GET /ping HTTP/1.0\r\n\r\n").unwrap();
        let reply = fetch(&mut server, &mut good);
        assert!(reply.starts_with("HTTP/1.0 200"), "reply: {reply}");
        // And once the deadline passes, the half-open conn is reaped.
        // (Simulate by rewinding the stored deadline instead of sleeping.)
        for conn in &mut server.conns {
            conn.deadline = Instant::now() - Duration::from_millis(1);
        }
        server.poll(respond);
        assert!(server.conns.is_empty());
        assert!(server.connections_dropped() >= 1);
        drop(half_open);
    }

    #[test]
    fn parse_head_rejects_malformed_lines() {
        assert!(parse_head(b"GET / HTTP/1.0\r\n\r\n").is_some());
        assert!(parse_head(b"GET  HTTP/1.0\r\n\r\n").is_none()); // no path
        assert!(parse_head(b"GET noslash HTTP/1.0\r\n\r\n").is_none());
        assert!(parse_head(b"GET / FTP/1.0\r\n\r\n").is_none());
        assert!(parse_head(b"GET / HTTP/1.0 extra\r\n\r\n").is_none());
        assert!(parse_head(b"\xff\xfe\r\n\r\n").is_none()); // not UTF-8
    }
}
