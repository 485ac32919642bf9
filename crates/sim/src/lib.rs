//! Monte Carlo simulation of the three-phase entanglement process
//! (paper §III-B) over routed quantum networks.
//!
//! The routing layer (`fusion-core`) computes *analytic* entanglement
//! rates; this crate measures them empirically:
//!
//! * [`connectivity`] — fast per-round sampling: channels come up with
//!   `1-(1-p)^w`, switches fuse with `q`, a demand succeeds when its users
//!   are connected in the surviving subgraph (or, under classic swapping,
//!   when some pre-committed lane survives).
//! * [`protocol`] — a full protocol-level simulator that drives the
//!   [`fusion_quantum::EntanglementRegistry`] through link generation,
//!   fusion failures, GHZ fusions, and final teleportation-readiness
//!   checks, verifying the connectivity shortcut round by round.
//! * [`exact`] — exact reliability by enumeration for small flow graphs,
//!   used to validate both Equation 1 and the samplers.
//! * [`evaluate`] — plan-level rate estimation on one or more threads.
//! * [`failure`] — failure injection (switch outages, link decay).
//! * [`multiparty`] — sampling for the k-party GHZ extension.
//! * [`timeline`] — time-slotted operation with arrivals, re-planning,
//!   and latency metrics.
//! * [`stats`] — mean / standard-error / confidence-interval helpers.
//!
//! This crate is one layer of the stack mapped in `docs/ARCHITECTURE.md`
//! at the repo root (dependency graph, algorithm-to-module map, and the
//! equivalence-oracle and generation-stamp disciplines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod evaluate;
pub mod exact;
pub mod failure;
pub mod multiparty;
pub mod protocol;
pub mod stats;
pub mod timeline;

pub use connectivity::{ClassicSampler, FlowSampler, PlanSampler};
pub use evaluate::{estimate_demand_plan, estimate_plan, McCounters, PlanEstimate};
pub use protocol::{RoundOutcome, RoundSimulator};
pub use stats::RateEstimate;
