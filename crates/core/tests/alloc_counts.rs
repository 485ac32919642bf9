//! Allocation-count regression guard for Algorithm 2's hot path.
//!
//! The width-descent engine builds each `WidthedPath` by move (no
//! per-candidate `path.clone()`) and reuses its scratch arenas, so one
//! `paths_selection` call must allocate strictly less than the retained
//! per-width sweep on the same input. A counting global allocator pins
//! that: reintroducing the per-candidate clone (or losing arena reuse)
//! pushes the descent's count back toward the reference's and fails the
//! margin below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fusion_core::algorithms::alg2::{paths_selection, paths_selection_reference, SelectionQuery};
use fusion_core::{Demand, NetworkParams, QuantumNetwork, SwapMode};
use fusion_telemetry::Registry;
use fusion_topology::TopologyConfig;

/// System allocator wrapper that counts allocation calls.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made while running `work`.
fn allocations_during<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn descent_allocates_less_than_reference_sweep() {
    let topo = TopologyConfig {
        num_switches: 30,
        num_user_pairs: 6,
        avg_degree: 6.0,
        ..TopologyConfig::default()
    }
    .generate(7);
    let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    let demands = Demand::from_topology(&topo);
    let caps = net.capacities();

    let (reference, ref_allocs) = allocations_during(|| {
        paths_selection_reference(&net, &demands, &caps, 3, 5, SwapMode::NFusion)
    });
    let query = SelectionQuery {
        h: 3,
        max_width: 5,
        mode: SwapMode::NFusion,
    };
    let disabled = Registry::disabled();
    let (descent, descent_allocs) =
        allocations_during(|| paths_selection(&net, &demands, &caps, query, 1, &disabled));

    assert_eq!(
        descent, reference,
        "engines must agree before comparing cost"
    );
    assert!(
        !reference.is_empty(),
        "instance must produce candidates for the comparison to mean anything"
    );
    // The descent drops one allocation per candidate by moving the path
    // into its WidthedPath; its own overhead (feasibility view, channel
    // tables, reach buckets) is O(max_width + demands), far below the
    // candidate count here. Reintroducing the per-candidate clone adds
    // `reference.len()` allocations back and flips this inequality.
    assert!(
        descent_allocs < ref_allocs,
        "width-descent allocations regressed: descent {descent_allocs}, \
         reference {ref_allocs}, candidates {}",
        reference.len()
    );
}
