//! Differential-testing harness for the Algorithm 3 gain-queue merge.
//!
//! The incremental gain queue (`paths_merge_greedy`) must produce a
//! byte-identical `MergeOutcome` — accepted paths in the same order with
//! the same widths, identical flow graphs, identical remaining-qubit
//! vectors — to the full re-scan oracle (`paths_merge_greedy_reference`)
//! on every input, including equal-gain tie-breaks. These properties
//! drive both implementations over random Waxman/grid networks × demand
//! loads × seeds × swap modes and compare outcomes with exact equality
//! (everything compared is integral, and both sides share the same f64
//! scoring arithmetic, so `==` is the right notion of "identical").
//!
//! The reduced grid below runs in tier-1 CI on every push; the wide grid
//! (`--ignored`) covers more cases, larger networks, and harsher p/q
//! corners for release validation:
//!
//! ```text
//! cargo test --release -p fusion-core --test merge_differential -- --ignored
//! ```

use fusion_core::algorithms::alg2::{paths_selection, SelectionQuery};
use fusion_core::algorithms::alg3_greedy::{
    paths_merge_greedy, paths_merge_greedy_reference, MergeCounters,
};
use fusion_core::{Demand, NetworkParams, QuantumNetwork, SwapMode};
use fusion_telemetry::Registry;
use fusion_topology::{GeneratorKind, TopologyConfig};

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// One sampled differential case: build the network, run Algorithm 2 for
/// a real candidate set, then check queue == reference for the given
/// merge knobs.
#[allow(clippy::too_many_arguments)]
fn check_case(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
    h: usize,
    max_width: u32,
    mode: SwapMode,
    share_edges: bool,
    max_paths_per_demand: Option<usize>,
) -> Result<(), proptest::test_runner::TestCaseError> {
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
    let caps = net.capacities();
    let query = SelectionQuery { h, max_width, mode };
    let candidates = paths_selection(&net, &demands, &caps, query, 1, &Registry::disabled());

    let queue = paths_merge_greedy(
        &net,
        &demands,
        &candidates,
        mode,
        share_edges,
        max_paths_per_demand,
        &caps,
        &MergeCounters::default(),
    );
    let reference = paths_merge_greedy_reference(
        &net,
        &demands,
        &candidates,
        mode,
        share_edges,
        max_paths_per_demand,
    );
    prop_assert_eq!(
        &queue.remaining,
        &reference.remaining,
        "remaining qubits diverged ({} candidates, mode {:?}, share {}, cap {:?})",
        candidates.len(),
        mode,
        share_edges,
        max_paths_per_demand
    );
    prop_assert_eq!(
        queue == reference,
        true,
        "plans diverged ({} candidates, mode {:?}, share {}, cap {:?})",
        candidates.len(),
        mode,
        share_edges,
        max_paths_per_demand
    );
    Ok(())
}

fn mode_of(classic: bool) -> SwapMode {
    if classic {
        SwapMode::Classic
    } else {
        SwapMode::NFusion
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

    /// The tier-1 reduced grid: small Waxman/grid networks, both swap
    /// modes, with and without sharing and per-demand caps.
    #[test]
    fn queue_merge_matches_reference_reduced(
        switches in 10usize..36,
        pairs in 2usize..7,
        grid in proptest::bool::ANY,
        seed in 0u64..1_000_000,
        p in 0.1f64..0.9,
        q in 0.6f64..1.0,
        h in 1usize..4,
        classic in proptest::bool::ANY,
        share in proptest::bool::ANY,
        cap in 0usize..3,
    ) {
        check_case(
            switches,
            pairs,
            grid,
            seed,
            p,
            q,
            h,
            4,
            mode_of(classic),
            share,
            cap_of(cap),
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wide grid: more cases, larger networks, wider channels, and
    /// the p/q corners where gains saturate (`MIN_GAIN` kills) or
    /// collapse. Run explicitly with `-- --ignored`.
    #[test]
    #[ignore = "wide differential grid; minutes of runtime, run with -- --ignored"]
    fn queue_merge_matches_reference_wide(
        switches in 10usize..120,
        pairs in 2usize..12,
        grid in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
        p in 0.01f64..0.999,
        q in 0.3f64..1.0,
        h in 1usize..6,
        max_width in 2u32..8,
        classic in proptest::bool::ANY,
        share in proptest::bool::ANY,
        cap in 0usize..4,
    ) {
        check_case(
            switches,
            pairs,
            grid,
            seed,
            p,
            q,
            h,
            max_width,
            mode_of(classic),
            share,
            cap_of(cap),
        )?;
    }
}
