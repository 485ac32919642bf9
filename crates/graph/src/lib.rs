//! Graph substrate for the GHZ n-fusion entanglement-routing stack.
//!
//! This crate provides the classical-graph foundations that the quantum
//! network model and routing algorithms are built on:
//!
//! * [`UnGraph`] — a compact undirected multigraph with typed node and edge
//!   payloads, indexed by [`NodeId`] / [`EdgeId`].
//! * [`Metric`] — a totally ordered, non-NaN `f64` wrapper used for
//!   probability-product routing metrics.
//! * [`search`] — Dijkstra (min-sum and max-product flavours), BFS,
//!   connected components, resumable goal-directed runs, and
//!   [`WidthSearch`], the flat max-product kernel of Algorithm 2.
//! * [`yen`] — Yen's k-shortest loopless paths.
//! * [`feasibility`] — width-indexed capacity feasibility and the
//!   incrementally-repaired reachability behind width-descent searches.
//! * [`DisjointSets`] — union-find with path compression, used for
//!   entanglement-group tracking and percolation connectivity.
//! * [`Path`] — a validated simple path through a graph.
//!
//! # Examples
//!
//! ```
//! use fusion_graph::{UnGraph, search};
//!
//! let mut g: UnGraph<&str, f64> = UnGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, 1.0);
//! g.add_edge(b, c, 2.0);
//!
//! let dist = search::dijkstra(&g, a, |_, w| *w);
//! assert_eq!(dist.distance(c), Some(3.0));
//! ```
//!
//! This crate is one layer of the stack mapped in `docs/ARCHITECTURE.md`
//! at the repo root (dependency graph, algorithm-to-module map, and the
//! equivalence-oracle and generation-stamp disciplines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod metric;
mod path;
mod stamps;
mod unionfind;

pub mod certificate;
pub mod feasibility;
pub mod search;
pub mod yen;

pub use certificate::{CertEntry, CertificateRecorder};
pub use feasibility::{DescentReach, WidthFeasibility};
pub use graph::{EdgeId, EdgeRef, NodeId, UnGraph};
pub use metric::Metric;
pub use path::{Path, PathError};
pub use search::{ArcView, EdgeFactors, SearchCounters, SearchScratch, WidthSearch};
pub use stamps::{BanMask, RecordedSet};
pub use unionfind::{DisjointSets, GenerationalDisjointSets};
