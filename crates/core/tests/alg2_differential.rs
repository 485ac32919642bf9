//! Differential-testing harness for the Algorithm 2 width-descent engine.
//!
//! The width-descent candidate construction (`paths_selection`) must
//! produce a byte-identical candidate list — same paths, same order, same
//! widths, same `f64` metrics — to the retained per-width sweep oracle
//! (`paths_selection_reference`) on every input. Its reuse claims rest on
//! exact arguments (goal-directed runs are truncated full runs; the
//! monotone-feasibility view only skips provably-empty searches), and
//! this harness is what holds them to it, over random Waxman/grid
//! networks × demand loads × seeds × swap modes × `h` × `max_width`.
//!
//! A second property drives the *whole* pipeline end-to-end — `route`
//! against `route_from_candidates` on the oracle's candidates — and
//! compares the merged plans, so an Algorithm 2 divergence cannot hide
//! behind an Algorithm 3 tie-break that happens to pick the same routes:
//! the plans, acceptance outcomes, leftover-qubit vectors, and
//! Algorithm 4 assignments must all match under both merge orders.
//!
//! Both properties draw the width descent's worker count, so sharded
//! selection is held to the oracle too.
//!
//! The reduced grids below run in tier-1 CI on every push; the wide
//! grids (`--ignored`) cover more cases, larger networks, and harsher
//! p/q corners for release validation:
//!
//! ```text
//! cargo test --release -p fusion-core --test alg2_differential -- --ignored
//! ```

use fusion_core::algorithms::alg2::{paths_selection, paths_selection_reference, SelectionQuery};
use fusion_core::algorithms::{route, route_from_candidates, MergeOrder, RoutingConfig};
use fusion_core::{Demand, NetworkParams, QuantumNetwork, SwapMode};
use fusion_telemetry::Registry;
use fusion_topology::{GeneratorKind, TopologyConfig};

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// Builds one sampled network instance with its demands.
fn instance(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
) -> (QuantumNetwork, Vec<Demand>) {
    let topo = TopologyConfig {
        num_switches: switches,
        num_user_pairs: pairs,
        avg_degree: 6.0,
        kind: if grid {
            GeneratorKind::Grid
        } else {
            GeneratorKind::default() // Waxman, the paper's family
        },
        ..TopologyConfig::default()
    }
    .generate(seed);
    let mut net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    net.set_uniform_link_success(Some(p));
    net.set_swap_success(q);
    let demands = Demand::from_topology(&topo);
    (net, demands)
}

/// One sampled selection case: descent on `threads` workers ==
/// reference, exactly.
#[allow(clippy::too_many_arguments)]
fn check_selection_case(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
    h: usize,
    max_width: u32,
    mode: SwapMode,
    threads: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (net, demands) = instance(switches, pairs, grid, seed, p, q);
    let caps = net.capacities();
    let query = SelectionQuery { h, max_width, mode };
    let descent = paths_selection(&net, &demands, &caps, query, threads, &Registry::disabled());
    let reference = paths_selection_reference(&net, &demands, &caps, h, max_width, mode);
    prop_assert_eq!(
        descent.len(),
        reference.len(),
        "candidate count diverged (grid {}, h {}, max_width {}, mode {:?}, threads {})",
        grid,
        h,
        max_width,
        mode,
        threads
    );
    for (i, (d, r)) in descent.iter().zip(&reference).enumerate() {
        prop_assert_eq!(
            d,
            r,
            "candidate {} diverged (grid {}, h {}, max_width {}, mode {:?}, threads {})",
            i,
            grid,
            h,
            max_width,
            mode,
            threads
        );
    }
    Ok(())
}

/// One sampled end-to-end case: `route`, with its width descent on
/// `threads` workers, must emit the same candidates and plan as
/// `route_from_candidates` on the per-width sweep's candidates, for both
/// merge orders and both route-cap regimes.
#[allow(clippy::too_many_arguments)]
fn check_route_case(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
    h: usize,
    mode: SwapMode,
    merge_order: MergeOrder,
    max_paths_per_demand: Option<usize>,
    threads: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (net, demands) = instance(switches, pairs, grid, seed, p, q);
    let config = RoutingConfig {
        h,
        mode,
        merge_order,
        max_paths_per_demand,
        ..RoutingConfig::n_fusion()
    };
    let caps = net.capacities();
    let disabled = Registry::disabled();
    let descent = route(&net, &demands, &config, &caps, threads, &disabled);
    let max_width = net.max_switch_capacity_in(&caps);
    let candidates = paths_selection_reference(&net, &demands, &caps, h, max_width, mode);
    let sweep = route_from_candidates(&net, &demands, &config, &caps, candidates, &disabled);
    prop_assert_eq!(
        descent.candidates == sweep.candidates,
        true,
        "candidates diverged (mode {:?}, threads {})",
        mode,
        threads
    );
    let (descent, sweep) = (descent.plan, sweep.plan);
    prop_assert_eq!(
        &descent.leftover,
        &sweep.leftover,
        "leftover qubits diverged (mode {:?}, order {:?}, cap {:?})",
        mode,
        merge_order,
        max_paths_per_demand
    );
    prop_assert_eq!(
        descent.alg4_links,
        sweep.alg4_links,
        "alg4 assignments diverged (mode {:?}, order {:?}, cap {:?})",
        mode,
        merge_order,
        max_paths_per_demand
    );
    prop_assert_eq!(descent.plans.len(), sweep.plans.len());
    for (i, (d, s)) in descent.plans.iter().zip(&sweep.plans).enumerate() {
        prop_assert_eq!(
            d == s,
            true,
            "demand {} plan diverged (mode {:?}, order {:?}, cap {:?})",
            i,
            mode,
            merge_order,
            max_paths_per_demand
        );
    }
    Ok(())
}

fn mode_of(classic: bool) -> SwapMode {
    if classic {
        SwapMode::Classic
    } else {
        SwapMode::NFusion
    }
}

fn order_of(width_major: bool) -> MergeOrder {
    if width_major {
        MergeOrder::WidthMajor
    } else {
        MergeOrder::GainPerQubit
    }
}

fn cap_of(cap: usize) -> Option<usize> {
    // 0 → unlimited; 1..3 → per-demand route cap (the classic pipeline
    // runs with Some(1)).
    if cap == 0 {
        None
    } else {
        Some(cap)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tier-1 reduced selection grid: small Waxman/grid networks,
    /// both swap modes, the h × max_width corners included.
    #[test]
    fn descent_selection_matches_reference_reduced(
        switches in 10usize..36,
        pairs in 2usize..7,
        grid in proptest::bool::ANY,
        seed in 0u64..1_000_000,
        p in 0.1f64..0.9,
        q in 0.6f64..1.0,
        h in 1usize..4,
        max_width in 1u32..6,
        classic in proptest::bool::ANY,
        threads in 1usize..4,
    ) {
        check_selection_case(
            switches,
            pairs,
            grid,
            seed,
            p,
            q,
            h,
            max_width,
            mode_of(classic),
            threads,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tier-1 reduced end-to-end grid: the full pipeline on the width
    /// descent and on the per-width sweep's candidates must merge to
    /// identical plans.
    #[test]
    fn route_with_descent_matches_sweep_reduced(
        switches in 10usize..30,
        pairs in 2usize..6,
        grid in proptest::bool::ANY,
        seed in 0u64..1_000_000,
        p in 0.1f64..0.9,
        q in 0.6f64..1.0,
        h in 1usize..4,
        classic in proptest::bool::ANY,
        width_major in proptest::bool::ANY,
        cap in 0usize..3,
        threads in 1usize..4,
    ) {
        check_route_case(
            switches,
            pairs,
            grid,
            seed,
            p,
            q,
            h,
            mode_of(classic),
            order_of(width_major),
            cap_of(cap),
            threads,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The wide selection grid: more cases, larger networks, wider
    /// channels, and the p/q corners. Run explicitly with `-- --ignored`.
    #[test]
    #[ignore = "wide differential grid; ~11 s under --release, run with -- --ignored"]
    fn descent_selection_matches_reference_wide(
        switches in 10usize..120,
        pairs in 2usize..12,
        grid in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
        p in 0.01f64..0.999,
        q in 0.3f64..1.0,
        h in 1usize..6,
        max_width in 1u32..8,
        classic in proptest::bool::ANY,
        threads in 1usize..4,
    ) {
        check_selection_case(
            switches,
            pairs,
            grid,
            seed,
            p,
            q,
            h,
            max_width,
            mode_of(classic),
            threads,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The wide end-to-end grid. Run explicitly with `-- --ignored`.
    #[test]
    #[ignore = "wide differential grid; ~5 s under --release, run with -- --ignored"]
    fn route_with_descent_matches_sweep_wide(
        switches in 10usize..90,
        pairs in 2usize..10,
        grid in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
        p in 0.01f64..0.999,
        q in 0.3f64..1.0,
        h in 1usize..6,
        classic in proptest::bool::ANY,
        width_major in proptest::bool::ANY,
        cap in 0usize..4,
        threads in 1usize..4,
    ) {
        check_route_case(
            switches,
            pairs,
            grid,
            seed,
            p,
            q,
            h,
            mode_of(classic),
            order_of(width_major),
            cap_of(cap),
            threads,
        )?;
    }
}
