//! # gossip-obs
//!
//! The observability layer shared by every execution backend: a metrics
//! [`Registry`] with Prometheus text exposition, a bounded [`TraceRing`]
//! of recent protocol events, and a tiny non-blocking [`HttpServer`]
//! (`std::net` only, no tokio) that `gossip-node` uses to serve
//! `/metrics` and `/status`.
//!
//! ## The passivity contract
//!
//! Instrumentation is **passive**: nothing in this crate draws from a
//! simulation RNG, schedules an event, or otherwise feeds back into the
//! system being observed. A backend run with observability enabled is
//! bit-identical — same `order_hash`, same final state — to the same run
//! with it disabled; the determinism suites pin this across shard counts,
//! so experiments and soak runs can keep instrumentation on permanently.
//!
//! ## How backends use it
//!
//! Counters stay where they always lived (`NodeStats`, `AeNodeStats`,
//! `DriverMetrics`, `gossip_net::Metrics` — the structs the tests already
//! pin); each backend's `fill_registry` routes them into a [`Registry`]
//! at scrape time, so a rendered `/metrics` page byte-agrees with the
//! in-process structs by construction. Histograms ([`Histogram`], the
//! same log-bucket layout as the runtime's latency histogram) and trace
//! rings are the only state the layer adds, and both are inert storage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod http;
pub mod registry;
pub mod trace;

pub use causal::{reconstruct, CausalReport, ChainStep, TraceChain};
pub use http::{HttpServer, Request, Response};
pub use registry::{Histogram, Registry};
pub use trace::{TraceCtx, TraceEvent, TraceFilter, TraceKind, TraceReason, TraceRing, NO_PEER};
