//! Experiment harness reproducing the paper's evaluation (§V).
//!
//! [`workloads`] defines the default network configuration and runs the
//! four algorithms (plus the Alg-3 ablation) on generated instances;
//! [`figures`] sweeps the parameters of every figure in the paper and
//! formats the resulting series. The `figures` binary prints them;
//! [`perf`] times fixed workloads and counts their work for the
//! `perfbench` gates.
//!
//! This crate is one layer of the stack mapped in `docs/ARCHITECTURE.md`
//! at the repo root (dependency graph, algorithm-to-module map, and the
//! equivalence-oracle and generation-stamp disciplines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod perf;
pub mod report;
pub mod workloads;
