//! `fusion-serve`: the online demand engine over the paper's routing
//! pipeline.
//!
//! The batch crates answer "given all demands up front, what is the best
//! plan?" This crate answers the operational question: demands *arrive
//! and depart*, and each arrival must be routed against whatever capacity
//! the live sessions have left. The pieces:
//!
//! * [`ledger`] — [`ResidualLedger`], the exact per-node qubit / per-edge
//!   channel bookkeeping, with all-or-nothing charge/release and an
//!   audit against the live plan set.
//! * [`state`] — [`ServiceState`], the epoch-versioned engine:
//!   [`admit`](ServiceState::admit) routes one demand through a
//!   persistent Algorithm 2 engine (`fusion_core`'s `SelectionEngine`)
//!   and the batch merge, restricted to the residual capacity,
//!   [`depart`](ServiceState::depart) returns capacity exactly, and
//!   [`fail_link`](ServiceState::fail_link) evicts plans crossing a cut
//!   fiber.
//! * [`trace`] — seeded deterministic trace generation (Poisson
//!   arrivals, exponential holding times, optional link-downs, optional
//!   recurring-demand user pool).
//! * [`mod@replay`] — the replay loop, producing a byte-stable event log
//!   and aggregate statistics.
//! * [`mod@presets`] — named world presets mirroring the batch
//!   experiments.
//!
//! The correctness story is one equivalence oracle
//! (`tests/service_oracle.rs`; see `docs/ARCHITECTURE.md` at the repo
//! root for the discipline): at every arrival of random
//! admit/depart/link-down traces, the production admission is checked
//! byte-identical — candidates, merge outcome, and finished plan — to
//! running the batch pipeline on a network whose capacities were
//! pre-reduced by the live plans, and depart ∘ admit is checked to
//! restore the ledger exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod presets;
pub mod replay;
pub mod state;
pub mod trace;

pub use ledger::{LedgerError, ResidualLedger};
pub use presets::{presets, resolve_preset, ServePreset};
pub use replay::{replay, ReplayOptions, ReplayReport, ReplayStats};
pub use state::{AdmitOutcome, LivePlan, PlanId, RejectReason, ServiceState, StateDigest};
pub use trace::{generate, Trace, TraceConfig, TraceEvent, TraceEventKind};
