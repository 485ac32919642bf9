//! Profiles the Algorithm 3 merge at scale: times the incremental gain
//! queue against the full-re-scan reference on one `large-N-grid`
//! instance and asserts their outcomes are identical. Reproduces the
//! EXPERIMENTS.md "incremental gain queue" table:
//!
//! ```text
//! cargo run --release -p fusion-bench --example merge_profile -- 10000
//! ```
use std::time::Instant;

use fusion_bench::workloads::ExperimentConfig;
use fusion_core::algorithms::{alg2, alg3_greedy, MergeCounters, SelectionQuery};
use fusion_core::SwapMode;
use fusion_telemetry::Registry;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    let config = ExperimentConfig::large_grid(n);
    let t0 = Instant::now();
    let (net, demands) = config.instance(0);
    eprintln!("instance({n}): {:?}", t0.elapsed());

    let caps = net.capacities();
    let query = SelectionQuery {
        h: config.h,
        max_width: net.max_switch_capacity(),
        mode: SwapMode::NFusion,
    };
    let t1 = Instant::now();
    let candidates = alg2::paths_selection(&net, &demands, &caps, query, 1, &Registry::disabled());
    eprintln!("alg2: {:?} ({} candidates)", t1.elapsed(), candidates.len());

    let t2 = Instant::now();
    let out = alg3_greedy::paths_merge_greedy(
        &net,
        &demands,
        &candidates,
        SwapMode::NFusion,
        true,
        None,
        &caps,
        &MergeCounters::default(),
    );
    let queue_t = t2.elapsed();
    let accepted: usize = out.plans.iter().map(|p| p.paths.len()).sum();
    eprintln!("queue merge: {queue_t:?} ({accepted} accepted)");

    let t3 = Instant::now();
    let reference = alg3_greedy::paths_merge_greedy_reference(
        &net,
        &demands,
        &candidates,
        SwapMode::NFusion,
        true,
        None,
    );
    let ref_t = t3.elapsed();
    eprintln!("reference merge: {ref_t:?}");
    assert_eq!(out, reference, "queue must match reference");
    eprintln!(
        "speedup: {:.1}x",
        ref_t.as_secs_f64() / queue_t.as_secs_f64()
    );
}
