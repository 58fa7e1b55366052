//! Causal reconstruction over a [`TraceRing`] snapshot.
//!
//! The ring records flat events; this module folds them back into
//! **per-trace chains** — origin → hops → delivery (or drop, with its
//! reason) — and derives latency breakdowns as histograms:
//!
//! * **wire**: `Send` at hop *h* on one node → `Recv` at hop *h* on
//!   another (modeled latency in the simulators; network + receive-loop
//!   scheduling on real sockets),
//! * **handler**: `Recv` at hop *h* → the first `Send` at hop *h + 1* on
//!   the same node (the handler's reaction time; exactly 0 in virtual
//!   time, real work on sockets),
//! * **origin**: the root event (timer fire / start) → the first `Send`
//!   at hop 1 (queue/scheduling delay at the chain's origin).
//!
//! Reconstruction is a pure read of a snapshot — it allocates its own
//! report and never touches the ring, so it can run at scrape time
//! without violating the passivity contract. A ring is bounded, so a
//! chain may be *partial* (its early hops overwritten); chains are
//! rebuilt from whatever survived, which is exactly what an operator
//! debugging a live node has to work with anyway.

use crate::registry::{Histogram, Registry};
use crate::trace::{TraceKind, TraceReason, TraceRing, NO_TRACE};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One step of a reconstructed chain: a contextful ring event, re-keyed
/// by its position in the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainStep {
    /// When the step happened (µs).
    pub at_us: u64,
    /// The node the step happened at.
    pub node: u64,
    /// The other party ([`crate::NO_PEER`] when there is none).
    pub peer: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Why (drop reasons, state-transition labels).
    pub reason: TraceReason,
    /// Message hops from the chain's origin.
    pub hop: u8,
}

/// One causal chain: every surviving event sharing a trace id, ordered
/// by (hop, time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceChain {
    /// The chain id.
    pub trace_id: u64,
    /// Steps, sorted by (hop, at_us, recording order).
    pub steps: Vec<ChainStep>,
}

impl TraceChain {
    /// The chain's earliest surviving step.
    pub fn origin(&self) -> &ChainStep {
        &self.steps[0] // chains are built non-empty
    }

    /// Deepest hop reached by any surviving step.
    pub fn depth(&self) -> u8 {
        self.steps.iter().map(|s| s.hop).max().unwrap_or(0)
    }

    /// Time from the earliest to the latest surviving step (µs).
    pub(crate) fn span_us(&self) -> u64 {
        let first = self.steps.iter().map(|s| s.at_us).min().unwrap_or(0);
        let last = self.steps.iter().map(|s| s.at_us).max().unwrap_or(0);
        last - first
    }

    /// The first drop on the chain, if any step was dropped.
    pub(crate) fn first_drop(&self) -> Option<&ChainStep> {
        self.steps.iter().find(|s| s.kind == TraceKind::Drop)
    }

    /// Render the chain as an indented block (origin first).
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {:016x}: {} steps, depth {}, span {} us\n",
            self.trace_id,
            self.steps.len(),
            self.depth(),
            self.span_us()
        );
        for step in &self.steps {
            let _ = writeln!(
                out,
                "  hop {:>3}  {:>12} us  node {:>6}  {:<5} {}",
                step.hop,
                step.at_us,
                step.node,
                step.kind.as_str(),
                step.reason.as_str()
            );
        }
        out
    }
}

/// The reconstruction result: chains plus derived latency histograms.
#[derive(Clone, Debug)]
pub struct CausalReport {
    /// Every chain with at least one surviving event, ordered by the
    /// earliest surviving timestamp (oldest chain first).
    pub chains: Vec<TraceChain>,
    /// `Send(h)` → `Recv(h)` transit per hop (µs).
    pub wire_us: Histogram,
    /// `Recv(h)` → first `Send(h+1)` on the same node (µs).
    pub handler_us: Histogram,
    /// Root event → first `Send(1)` at the origin node (µs).
    pub origin_us: Histogram,
    /// Chains with at least one dropped step.
    pub dropped_chains: u64,
    /// Contextful events folded into the report.
    pub events: u64,
}

/// Rebuild chains and latency breakdowns from a ring snapshot.
pub fn reconstruct(ring: &TraceRing) -> CausalReport {
    let mut by_id: BTreeMap<u64, Vec<ChainStep>> = BTreeMap::new();
    let mut events = 0u64;
    for e in ring.iter() {
        if e.trace_id == NO_TRACE {
            continue;
        }
        events += 1;
        by_id.entry(e.trace_id).or_default().push(ChainStep {
            at_us: e.at_us,
            node: e.node,
            peer: e.peer,
            kind: e.kind,
            reason: e.reason,
            hop: e.hop,
        });
    }

    let mut wire_us = Histogram::new();
    let mut handler_us = Histogram::new();
    let mut origin_us = Histogram::new();
    let mut dropped_chains = 0u64;
    let mut chains: Vec<TraceChain> = Vec::with_capacity(by_id.len());
    for (trace_id, mut steps) in by_id {
        // Ring order is stable for equal keys, so ties keep record order.
        steps.sort_by_key(|s| (s.hop, s.at_us));

        // Wire transit: pair each Send(h) with the first Recv(h) on the
        // node it was sent to.
        for (i, s) in steps.iter().enumerate() {
            if s.kind != TraceKind::Send {
                continue;
            }
            if let Some(r) = steps[i..]
                .iter()
                .find(|r| r.kind == TraceKind::Recv && r.hop == s.hop && r.node == s.peer)
            {
                wire_us.record(r.at_us.saturating_sub(s.at_us));
            }
        }
        // Handler reaction: Recv(h) → first Send(h+1) on the same node.
        for (i, r) in steps.iter().enumerate() {
            if r.kind != TraceKind::Recv {
                continue;
            }
            if let Some(s) = steps[i..]
                .iter()
                .find(|s| s.kind == TraceKind::Send && s.hop == r.hop + 1 && s.node == r.node)
            {
                handler_us.record(s.at_us.saturating_sub(r.at_us));
            }
        }
        // Origin delay: root (hop 0, non-send) → first Send(1) there.
        if let Some(root) = steps
            .iter()
            .find(|s| s.hop == 0 && s.kind != TraceKind::Send)
        {
            if let Some(s) = steps
                .iter()
                .find(|s| s.kind == TraceKind::Send && s.hop == 1 && s.node == root.node)
            {
                origin_us.record(s.at_us.saturating_sub(root.at_us));
            }
        }

        let chain = TraceChain { trace_id, steps };
        if chain.first_drop().is_some() {
            dropped_chains += 1;
        }
        chains.push(chain);
    }
    chains.sort_by_key(|c| (c.origin().at_us, c.trace_id));
    CausalReport {
        chains,
        wire_us,
        handler_us,
        origin_us,
        dropped_chains,
        events,
    }
}

impl CausalReport {
    /// Look up one chain by id.
    pub fn chain(&self, trace_id: u64) -> Option<&TraceChain> {
        self.chains.iter().find(|c| c.trace_id == trace_id)
    }

    /// Export the report as `trace_chain_*` metric families. Like every
    /// `fill_registry`, this renders the snapshot into a fresh registry
    /// at scrape time.
    pub fn fill_registry(&self, registry: &mut Registry) {
        registry.add_counter(
            "trace_chain_count",
            "causal chains with at least one surviving event in the trace ring",
            &[],
            self.chains.len() as u64,
        );
        registry.add_counter(
            "trace_chain_events",
            "contextful trace events folded into chains",
            &[],
            self.events,
        );
        registry.add_counter(
            "trace_chain_dropped",
            "chains with at least one dropped step",
            &[],
            self.dropped_chains,
        );
        let mut depth = Histogram::new();
        let mut span = Histogram::new();
        for chain in &self.chains {
            depth.record(u64::from(chain.depth()));
            span.record(chain.span_us());
        }
        registry.merge_histogram(
            "trace_chain_depth",
            "deepest hop reached per causal chain",
            &[],
            &depth,
        );
        registry.merge_histogram(
            "trace_chain_span_us",
            "first-to-last surviving event per causal chain (us)",
            &[],
            &span,
        );
        registry.merge_histogram(
            "trace_chain_wire_us",
            "send-to-recv transit per traced hop (us)",
            &[],
            &self.wire_us,
        );
        registry.merge_histogram(
            "trace_chain_handler_us",
            "recv-to-next-send reaction time per traced hop (us)",
            &[],
            &self.handler_us,
        );
        registry.merge_histogram(
            "trace_chain_origin_us",
            "root-event-to-first-send delay at chain origins (us)",
            &[],
            &self.origin_us,
        );
    }

    /// Render a short human-readable summary (the `/status` block).
    pub fn summary(&self) -> String {
        let mut depth_max = 0u8;
        let mut span_max = 0u64;
        for c in &self.chains {
            depth_max = depth_max.max(c.depth());
            span_max = span_max.max(c.span_us());
        }
        format!(
            "chains: {} ({} events, {} with drops)  depth_max: {}  span_max: {} us  \
             wire p50/p99: {}/{} us",
            self.chains.len(),
            self.events,
            self.dropped_chains,
            depth_max,
            span_max,
            self.wire_us.quantile(0.5),
            self.wire_us.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceCtx, NO_PEER};

    /// A three-node relay: timer at node 0 → send → node 1 → send →
    /// node 2, with modeled 50 µs wire hops and 10 µs handler time.
    fn relay_ring() -> TraceRing {
        let mut ring = TraceRing::new(64);
        let root = TraceCtx::derive(0, 7);
        let h1 = root.next_hop();
        let h2 = h1.next_hop();
        ring.record_ctx(
            100,
            0,
            NO_PEER,
            TraceKind::TimerFire,
            TraceReason::None,
            root,
        );
        ring.record_ctx(105, 0, 1, TraceKind::Send, TraceReason::None, h1);
        ring.record_ctx(155, 1, 0, TraceKind::Recv, TraceReason::None, h1);
        ring.record_ctx(165, 1, 2, TraceKind::Send, TraceReason::None, h2);
        ring.record_ctx(215, 2, 1, TraceKind::Recv, TraceReason::None, h2);
        ring
    }

    #[test]
    fn relay_chain_reconstructs_origin_hops_and_latencies() {
        let ring = relay_ring();
        let report = reconstruct(&ring);
        assert_eq!(report.chains.len(), 1);
        assert_eq!(report.events, 5);
        let chain = &report.chains[0];
        assert_eq!(chain.depth(), 2);
        assert_eq!(chain.span_us(), 115);
        assert_eq!(chain.origin().kind, TraceKind::TimerFire);
        assert!(chain.first_drop().is_none());
        // Two wire hops of exactly 50 µs each.
        assert_eq!(report.wire_us.count(), 2);
        assert_eq!(report.wire_us.min(), 50);
        assert_eq!(report.wire_us.max(), 50);
        // One handler reaction (node 1) of 10 µs.
        assert_eq!(report.handler_us.count(), 1);
        assert_eq!(report.handler_us.max(), 10);
        // One origin delay (timer → send) of 5 µs.
        assert_eq!(report.origin_us.count(), 1);
        assert_eq!(report.origin_us.max(), 5);
        let text = chain.render();
        assert!(text.contains("depth 2"));
        assert!(text.contains("timer"));
    }

    #[test]
    fn dropped_hops_terminate_the_chain_with_a_reason() {
        let mut ring = relay_ring();
        let root = TraceCtx::derive(9, 9);
        let h1 = root.next_hop();
        ring.record_ctx(
            300,
            3,
            NO_PEER,
            TraceKind::TimerFire,
            TraceReason::None,
            root,
        );
        ring.record_ctx(301, 3, 4, TraceKind::Drop, TraceReason::Loss, h1);
        let report = reconstruct(&ring);
        assert_eq!(report.chains.len(), 2);
        assert_eq!(report.dropped_chains, 1);
        let lossy = report.chain(root.trace_id).expect("chain exists");
        let drop = lossy.first_drop().expect("drop recorded");
        assert_eq!(drop.reason, TraceReason::Loss);
        assert_eq!(drop.hop, 1);
    }

    #[test]
    fn untraced_events_stay_out_of_the_report() {
        let mut ring = TraceRing::new(8);
        ring.record(1, 0, NO_PEER, TraceKind::TimerFire, TraceReason::None);
        ring.record(2, 0, 1, TraceKind::Send, TraceReason::None);
        let report = reconstruct(&ring);
        assert!(report.chains.is_empty());
        assert_eq!(report.events, 0);
    }

    #[test]
    fn registry_export_carries_the_trace_chain_families() {
        let report = reconstruct(&relay_ring());
        let mut registry = Registry::new();
        report.fill_registry(&mut registry);
        assert_eq!(registry.counter_value("trace_chain_count", &[]), Some(1));
        assert_eq!(registry.counter_value("trace_chain_events", &[]), Some(5));
        assert_eq!(registry.counter_value("trace_chain_dropped", &[]), Some(0));
        let text = registry.render();
        for family in [
            "trace_chain_depth",
            "trace_chain_span_us",
            "trace_chain_wire_us",
            "trace_chain_handler_us",
            "trace_chain_origin_us",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} histogram")),
                "{family} missing"
            );
        }
        assert!(report.summary().contains("chains: 1"));
    }
}
