//! Profiles Algorithm 2 candidate construction at scale: times the
//! width-descent engine against the per-width sweep reference on one
//! `large-N-grid` instance and asserts their outputs are identical.
//! Reproduces the EXPERIMENTS.md "width-descent candidate construction"
//! table:
//!
//! ```text
//! cargo run --release -p fusion-bench --example alg2_profile -- 10000
//! ```
//!
//! Pass `--skip-reference` to time only the descent engine (the reference
//! sweep is minutes of single-core work at 10k switches).
use std::time::Instant;

use fusion_bench::workloads::ExperimentConfig;
use fusion_core::algorithms::{alg2, SelectionQuery};
use fusion_core::SwapMode;
use fusion_telemetry::Registry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    let skip_reference = args.iter().any(|a| a == "--skip-reference");

    let config = ExperimentConfig::large_grid(n);
    let t0 = Instant::now();
    let (net, demands) = config.instance(0);
    eprintln!("instance({n}): {:?}", t0.elapsed());

    let caps = net.capacities();
    let max_width = net.max_switch_capacity();
    let t1 = Instant::now();
    let query = SelectionQuery {
        h: config.h,
        max_width,
        mode: SwapMode::NFusion,
    };
    let descent = alg2::paths_selection(&net, &demands, &caps, query, 1, &Registry::disabled());
    let descent_t = t1.elapsed();
    eprintln!(
        "width-descent alg2: {descent_t:?} ({} candidates)",
        descent.len()
    );

    if skip_reference {
        return;
    }
    let t2 = Instant::now();
    let reference = alg2::paths_selection_reference(
        &net,
        &demands,
        &caps,
        config.h,
        max_width,
        SwapMode::NFusion,
    );
    let ref_t = t2.elapsed();
    eprintln!("per-width sweep alg2: {ref_t:?}");
    assert_eq!(descent, reference, "descent must match reference");
    eprintln!(
        "speedup: {:.1}x",
        ref_t.as_secs_f64() / descent_t.as_secs_f64()
    );
}
