//! Differential oracle for the flat Algorithm 2 search kernel.
//!
//! [`WidthSearch::run_to`] must compute exactly what the generic
//! [`max_product_resume`]`(..).run_to` computes with the equivalent
//! closures: the same `Option<(Path, Metric)>`, byte for byte, and the same
//! pops, relaxations and exhaustions. Equal counts mean the kernel settles
//! the same nodes and performs the same relaxations, which is the
//! contract Algorithm 2's fingerprints and work counters rest on.
//!
//! The generic side is written against plain hash sets and a raw relay
//! vector, so it shares neither the kernel's ban mask nor its
//! feasibility view. Every case runs several queries through one reused
//! scratch per side, so a label left behind by an earlier query would
//! show up as a difference. The cases cover:
//!
//! * random multigraphs with parallel edges and self-loops, and factors
//!   that tie exactly, round, reach subnormal metrics and underflow to 0;
//! * uniform-factor grids, where whole rectangles of paths tie exactly
//!   and only the heap's node tie-break picks the path;
//! * random node and hop bans, random relay widths and transit flags, and
//!   a destination that is often not relay-feasible (the exemption).
//!
//! The reduced grids run in tier-1; the wide grids (`--ignored`) cover
//! larger graphs and more cases:
//!
//! ```text
//! cargo test --release -p fusion-graph --test width_search_oracle -- --ignored
//! ```

use std::collections::HashSet;

use fusion_graph::search::max_product_resume;
use fusion_graph::{
    ArcView, BanMask, EdgeFactors, NodeId, SearchCounters, SearchScratch, UnGraph,
    WidthFeasibility, WidthSearch,
};
use fusion_telemetry::Registry;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// Edge factors of the random graphs: exact binary fractions that tie,
/// values that round, and 1e-170, whose powers go subnormal (two hops)
/// and underflow to 0 (three hops).
const FACTORS: [f64; 7] = [1.0, 0.5, 0.25, 0.9, 0.3, 0.7, 1e-170];

/// Per-transit factors.
const TRANSITS: [f64; 3] = [1.0, 0.5, 0.9];

/// One search query: source, destination, banned nodes, and banned hops
/// given as indices into the graph's edge list.
type Query = (usize, usize, Vec<usize>, Vec<usize>);

/// A graph with everything a width search reads besides its query.
struct Instance {
    graph: UnGraph<(), f64>,
    relay: Vec<u32>,
    transit_nodes: Vec<bool>,
    transit: f64,
    width: u32,
}

/// Normalized undirected hop key.
fn hop_key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

/// A counting scratch: its pops, relaxations and exhaustions record into
/// a registry of its own.
fn counted_scratch() -> (SearchScratch, Registry) {
    let registry = Registry::enabled();
    let mut scratch = SearchScratch::new();
    scratch.counters = SearchCounters::from_registry(&registry, "s");
    (scratch, registry)
}

/// `(pops, relaxations, exhaustions)` recorded so far.
fn counts(registry: &Registry) -> [u64; 3] {
    let snap = registry.snapshot();
    ["s.pops", "s.relaxations", "s.exhaustions"].map(|name| snap.value(name))
}

/// Runs every query through the kernel and through the generic run,
/// each side on one reused scratch, and compares results and counts.
fn check_queries(inst: &Instance, queries: &[Query]) -> Result<(), TestCaseError> {
    let g = &inst.graph;
    let n = g.node_count();
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.source, e.target)).collect();
    let arcs = ArcView::new(g);
    let factors: EdgeFactors = g.edges().map(|e| *e.weight).collect();
    let mut feas = WidthFeasibility::new(n);
    for v in g.node_ids() {
        feas.set_node(v, inst.relay[v.index()], 0);
    }
    let (mut kernel_scratch, kernel_counts) = counted_scratch();
    let (mut generic_scratch, generic_counts) = counted_scratch();
    let mut bans = BanMask::new();

    for (qi, (source, dest, banned, hops)) in queries.iter().enumerate() {
        let (source, dest) = (NodeId::new(source % n), NodeId::new(dest % n));
        let banned_nodes: HashSet<NodeId> = banned.iter().map(|&v| NodeId::new(v % n)).collect();
        let banned_hops: HashSet<(NodeId, NodeId)> = if edges.is_empty() {
            HashSet::new()
        } else {
            hops.iter()
                .map(|&i| {
                    let (u, v) = edges[i % edges.len()];
                    hop_key(u, v)
                })
                .collect()
        };
        bans.begin(n);
        for &v in &banned_nodes {
            bans.ban_node(v);
        }
        for &(u, v) in &banned_hops {
            bans.mark_hop(u, v);
        }

        let before = (counts(&kernel_counts), counts(&generic_counts));
        let kernel = WidthSearch {
            arcs: &arcs,
            factors: &factors,
            transit_nodes: &inst.transit_nodes,
            transit: inst.transit,
            feas: &feas,
            width: inst.width,
            bans: &bans,
        }
        .run_to(&mut kernel_scratch, source, dest, |u, v| {
            banned_hops.contains(&hop_key(u, v))
        });
        let generic = max_product_resume(
            &mut generic_scratch,
            g,
            source,
            |from, e| {
                let to = e.other(from);
                if banned_nodes.contains(&to) || banned_hops.contains(&hop_key(from, to)) {
                    return None;
                }
                if to != dest && inst.relay[to.index()] < inst.width {
                    return None;
                }
                Some(*e.weight)
            },
            |via| inst.transit_nodes[via.index()].then_some(inst.transit),
        )
        .run_to(dest);

        prop_assert_eq!(
            &kernel,
            &generic,
            "query {}: {:?} -> {:?}",
            qi,
            source,
            dest
        );
        if let Some((_, m)) = &kernel {
            let (_, g_m) = generic.as_ref().expect("equal results");
            prop_assert_eq!(m.value().to_bits(), g_m.value().to_bits(), "query {}", qi);
        }
        let delta = |now: [u64; 3], then: [u64; 3]| [0, 1, 2].map(|i| now[i] - then[i]);
        prop_assert_eq!(
            delta(counts(&kernel_counts), before.0),
            delta(counts(&generic_counts), before.1),
            "query {}: (pops, relaxations, exhaustions) differ",
            qi
        );
    }
    Ok(())
}

/// A random multigraph over `n` nodes: `(u, v, factor)` triples, self-loops
/// and repeats kept.
fn random_instance(
    n: usize,
    edges: &[(usize, usize, usize)],
    relay: Vec<u32>,
    transit_nodes: Vec<bool>,
    transit: usize,
    width: u32,
) -> Instance {
    let mut graph = UnGraph::new();
    for _ in 0..n {
        graph.add_node(());
    }
    for &(u, v, f) in edges {
        graph.add_edge(NodeId::new(u % n), NodeId::new(v % n), FACTORS[f]);
    }
    Instance {
        graph,
        relay: relay.into_iter().cycle().take(n).collect(),
        transit_nodes: transit_nodes.into_iter().cycle().take(n).collect(),
        transit: TRANSITS[transit],
        width,
    }
}

/// A `rows × cols` grid with one factor on every edge: equal-hop paths
/// tie exactly, so the heap's tie-break alone picks the path.
fn grid_instance(
    (rows, cols): (usize, usize),
    factor: f64,
    relay: Vec<u32>,
    transit: usize,
    width: u32,
) -> Instance {
    let mut graph = UnGraph::new();
    for _ in 0..rows * cols {
        graph.add_node(());
    }
    let at = |r: usize, c: usize| NodeId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                graph.add_edge(at(r, c), at(r, c + 1), factor);
            }
            if r + 1 < rows {
                graph.add_edge(at(r, c), at(r + 1, c), factor);
            }
        }
    }
    let n = rows * cols;
    Instance {
        graph,
        relay: relay.into_iter().cycle().take(n).collect(),
        transit_nodes: vec![true; n],
        transit: TRANSITS[transit],
        width,
    }
}

/// Query strategy over node indices below `n` and up to `bans` bans of
/// each kind.
fn queries(n: usize, bans: usize) -> impl Strategy<Value = Vec<Query>> {
    proptest::collection::vec(
        (
            0..n,
            0..n,
            proptest::collection::vec(0..n, 0..bans),
            proptest::collection::vec(0usize..256, 0..bans),
        ),
        1..6,
    )
}

/// Relay widths: mostly able to relay width 1, some not at all.
fn relays(n: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..4, n)
}

/// Uniform grid factors: exact (1, 1/2) and rounding (0.9).
const GRID_FACTORS: [f64; 3] = [1.0, 0.5, 0.9];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random multigraphs, bans, relay widths and transit flags.
    #[test]
    fn kernel_matches_generic_run_on_random_graphs(
        edges in proptest::collection::vec((0usize..10, 0usize..10, 0..FACTORS.len()), 0..30),
        relay in relays(10),
        transit_nodes in proptest::collection::vec(proptest::bool::ANY, 10),
        (transit, width) in (0..TRANSITS.len(), 1u32..4),
        qs in queries(10, 4),
    ) {
        let inst = random_instance(10, &edges, relay, transit_nodes, transit, width);
        check_queries(&inst, &qs)?;
    }

    /// Uniform-factor grids full of exact ties.
    #[test]
    fn kernel_matches_generic_run_on_tied_grids(
        shape in (1usize..6, 2usize..6),
        factor in 0..GRID_FACTORS.len(),
        relay in relays(36),
        (transit, width) in (0..TRANSITS.len(), 1u32..3),
        qs in queries(36, 3),
    ) {
        let inst = grid_instance(shape, GRID_FACTORS[factor], relay, transit, width);
        check_queries(&inst, &qs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The wide random-graph grid. Run explicitly with `-- --ignored`.
    #[test]
    #[ignore = "wide differential grid; run with -- --ignored"]
    fn kernel_matches_generic_run_on_random_graphs_wide(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 0..FACTORS.len()), 0..120),
        relay in relays(40),
        transit_nodes in proptest::collection::vec(proptest::bool::ANY, 40),
        (transit, width) in (0..TRANSITS.len(), 1u32..4),
        qs in queries(40, 8),
    ) {
        let inst = random_instance(n, &edges, relay, transit_nodes, transit, width);
        check_queries(&inst, &qs)?;
    }

    /// The wide tied-grid grid. Run explicitly with `-- --ignored`.
    #[test]
    #[ignore = "wide differential grid; run with -- --ignored"]
    fn kernel_matches_generic_run_on_tied_grids_wide(
        shape in (1usize..12, 2usize..12),
        factor in 0..GRID_FACTORS.len(),
        relay in relays(144),
        (transit, width) in (0..TRANSITS.len(), 1u32..3),
        qs in queries(144, 6),
    ) {
        let inst = grid_instance(shape, GRID_FACTORS[factor], relay, transit, width);
        check_queries(&inst, &qs)?;
    }
}
