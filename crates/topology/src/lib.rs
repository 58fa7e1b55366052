//! # gossip-topology
//!
//! Graph topologies and routing protocols for the **sparse-network** model of
//! *Optimal Gossip-Based Aggregate Computation* (Section 4).
//!
//! The complete-graph phone-call model of Sections 2–3 needs no explicit
//! topology; this crate supplies everything the sparse-network results need:
//!
//! * [`graph::Graph`] — undirected graphs with degree queries: circulant
//!   graphs as one distance table, every other shape as stored rows;
//! * [`builders`] — complete graphs, rings, grids/tori, random `d`-regular
//!   graphs and Erdős–Rényi graphs;
//! * [`chord::ChordOverlay`] — an idealised Chord ring with finger tables and
//!   greedy `O(log n)`-hop lookups (the paper's flagship sparse topology);
//! * [`routing`] — the [`routing::RandomNodeSampler`] abstraction of
//!   Assumption 2 of Theorem 14 (reach a random node in `T` rounds and `M`
//!   messages), with direct, Chord-lookup and random-walk implementations,
//!   and [`routing::route_sample`], which sends a payload along a sample's
//!   path hop by hop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod chord;
#[cfg(test)]
mod connectivity;
pub mod graph;
pub mod routing;

pub use builders::{complete, d_regular, erdos_renyi_logn, grid2d, ring};
pub use chord::ChordOverlay;

pub use graph::Graph;
pub use routing::{
    route_sample, ChordSampler, DirectSampler, RandomNodeSampler, RandomWalkSampler,
};
