//! The paper's entanglement-routing algorithms (§IV-C).
//!
//! * [`alg1`] — Largest Entanglement Rate path at a fixed width.
//! * [`alg2`] — Paths Selection (Yen's structure over Algorithm 1).
//! * [`alg3`] — Paths Merge (capacity-aware, builds flow-like graphs),
//!   in the paper's literal width-major order.
//! * [`alg3_greedy`] — Paths Merge in gain-per-qubit order via an
//!   incremental gain queue (the default; see that module for the queue
//!   design and for why the literal order underperforms).
//! * [`alg4`] — Remaining Qubits Assignment (channel widening).
//! * [`pipeline`] — the composed `ALG-N-FUSION` routing algorithm.

pub mod alg1;
pub mod alg2;
pub mod alg3;
pub mod alg3_greedy;
pub mod alg4;
pub mod pipeline;

pub use alg1::{largest_rate_path, PathConstraints};
pub use alg2::{
    paths_selection, paths_selection_reference, CandidatePath, SelectionCounters, SelectionEngine,
    SelectionQuery,
};
pub use alg3::{paths_merge, MergeOutcome};
pub use alg3_greedy::{paths_merge_greedy, paths_merge_greedy_reference, MergeCounters};
pub use alg4::assign_remaining;
pub use pipeline::{
    alg_n_fusion, route, route_from_candidates, MergeOrder, RouteTrace, RoutingConfig,
};
