//! Property tests for the core routing machinery:
//!
//! * Algorithm 1 is *optimal*: on random small networks it returns exactly
//!   the feasible simple path with the largest entanglement rate.
//! * Equation 1 is *exact on series-parallel flow graphs*: on randomly
//!   composed series/parallel structures it equals brute-force
//!   connectivity reliability.
//! * The merge never oversubscribes capacity on random candidate sets.

use ghz_entanglement_routing::core::algorithms::alg1::{largest_rate_path, PathConstraints};
use ghz_entanglement_routing::core::algorithms::{alg2, alg3};
use ghz_entanglement_routing::core::{
    metrics, Demand, DemandId, FlowGraph, QuantumNetwork, SwapMode,
};
use ghz_entanglement_routing::graph::{NodeId, Path, SearchScratch};
use ghz_entanglement_routing::sim;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Algorithm 1 optimality
// ---------------------------------------------------------------------

/// Random small network: users at index 0 (S) and 1 (D), switches 2..n.
fn arbitrary_network() -> impl Strategy<Value = (QuantumNetwork, Vec<u32>)> {
    let caps = proptest::collection::vec(2u32..10, 4);
    let edges = proptest::collection::vec((0usize..6, 0usize..6, 1u32..40), 4..14);
    (caps, edges, 1u32..10).prop_map(|(caps, edges, qx)| {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let d = b.user(10.0, 0.0);
        for (i, &c) in caps.iter().enumerate() {
            b.switch(1.0 + i as f64, 1.0, c);
        }
        for (u, v, len) in edges {
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            if u == v || (u == s && v == d) || (u == d && v == s) {
                continue;
            }
            // Duplicate links are rejected; ignore those samples.
            let _ = b.link_with_length(u, v, f64::from(len) * 500.0);
        }
        let mut net = b.build();
        net.set_swap_success(f64::from(qx) / 10.0);
        let capacities = net.capacities();
        (net, capacities)
    })
}

/// Enumerates every feasible simple S→D path (capacity and role rules of
/// Algorithm 1) and returns the best n-fusion rate.
fn brute_force_best(
    net: &QuantumNetwork,
    source: NodeId,
    dest: NodeId,
    width: u32,
    caps: &[u32],
) -> Option<f64> {
    fn dfs(
        net: &QuantumNetwork,
        dest: NodeId,
        width: u32,
        caps: &[u32],
        path: &mut Vec<NodeId>,
        best: &mut Option<f64>,
    ) {
        let cur = *path.last().expect("non-empty");
        if cur == dest {
            let rate = metrics::path_rate(net, &Path::new(path.clone()), width).value();
            if rate > 0.0 && best.is_none_or(|b| rate > b) {
                *best = Some(rate);
            }
            return;
        }
        for v in net.graph().neighbors(cur) {
            if path.contains(&v) {
                continue;
            }
            // Feasibility rules of Algorithm 1.
            if v != dest {
                if net.is_user(v) || caps[v.index()] < 2 * width {
                    continue;
                }
            } else if caps[v.index()] < width {
                continue;
            }
            path.push(v);
            dfs(net, dest, width, caps, path, best);
            path.pop();
        }
    }
    if caps[source.index()] < width || caps[dest.index()] < width {
        return None;
    }
    let mut best = None;
    let mut path = vec![source];
    dfs(net, dest, width, caps, &mut path, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn alg1_is_optimal((net, caps) in arbitrary_network(), width in 1u32..4) {
        let (s, d) = (NodeId::new(0), NodeId::new(1));
        let cons = PathConstraints::default();
        let ours = largest_rate_path(&mut SearchScratch::new(), &net, s, d, width, &caps, &cons);
        let truth = brute_force_best(&net, s, d, width, &caps);
        match (ours, truth) {
            (None, None) => {}
            (Some((path, metric)), Some(best)) => {
                prop_assert!(
                    (metric.value() - best).abs() < 1e-9,
                    "alg1 found {} via {path}, brute force best {best}",
                    metric.value()
                );
                // The returned metric must equal the path's actual rate.
                let actual = metrics::path_rate(&net, &path, width).value();
                prop_assert!((metric.value() - actual).abs() < 1e-9);
            }
            (ours, truth) => {
                prop_assert!(false, "feasibility mismatch: alg1 {ours:?} vs brute {truth:?}");
            }
        }
    }

    /// Algorithm 3 never oversubscribes any switch, whatever Algorithm 2
    /// produced, in either consumption order and with or without sharing.
    #[test]
    fn merge_respects_capacity(
        (net, caps) in arbitrary_network(),
        h in 1usize..4,
        share in proptest::bool::ANY,
    ) {
        let _ = caps;
        let (s, d) = (NodeId::new(0), NodeId::new(1));
        let demands = [
            Demand::new(DemandId::new(0), s, d),
            Demand::new(DemandId::new(1), d, s),
        ];
        let capacity = net.capacities();
        let query = alg2::SelectionQuery { h, max_width: 4, mode: SwapMode::NFusion };
        // The default telemetry registry is the disabled one.
        let candidates =
            alg2::paths_selection(&net, &demands, &capacity, query, 1, &Default::default());
        let outcome = alg3::paths_merge(
            &net,
            &demands,
            &candidates,
            SwapMode::NFusion,
            share,
            None,
            &capacity,
        );
        for node in net.graph().node_ids().filter(|&n| net.is_switch(n)) {
            let spent: u32 = outcome.plans.iter().map(|p| p.flow.qubits_at(node)).sum();
            prop_assert!(spent <= net.capacity(node));
            prop_assert_eq!(spent + outcome.remaining[node.index()], net.capacity(node));
        }
    }
}

// ---------------------------------------------------------------------
// Equation 1 exactness on branch-disjoint flows
// ---------------------------------------------------------------------
//
// Eq. 1's branch terms are independent only when parallel branches share
// nothing but their endpoints *and* reconverge at the sink: a shared
// suffix after a parallel section (e.g. the diamond S→{a,b}→m→D) is
// multiplied into every branch and double-counted. The exact class is
// therefore the "branch-disjoint" flows generated below: an edge, an edge
// followed by a branch-disjoint tail (divergence moves toward the sink),
// or a parallel composition of two branch-disjoint structures. The
// diamond, which an earlier draft of this test generated via general
// series composition, is exactly the counterexample — kept as a unit test
// in `fusion_sim::exact`.

/// A two-terminal structure on which Eq. 1 is exact.
#[derive(Debug, Clone)]
enum Sp {
    /// One channel with the given width.
    Edge(u32),
    /// One relay hop of the given width, then the tail structure.
    Hop(u32, Box<Sp>),
    /// Left and right as alternative branches (sharing only endpoints).
    Parallel(Box<Sp>, Box<Sp>),
}

fn sp_strategy() -> impl Strategy<Value = Sp> {
    let leaf = (1u32..4).prop_map(Sp::Edge);
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (1u32..4, inner.clone()).prop_map(|(w, t)| Sp::Hop(w, Box::new(t))),
            (inner.clone(), inner).prop_map(|(a, b)| Sp::Parallel(Box::new(a), Box::new(b))),
        ]
    })
}

/// Materializes the structure between `from` and `to`, creating relay
/// switches as needed, and records channel widths per node pair.
fn build_sp(
    sp: &Sp,
    from: usize,
    to: usize,
    next: &mut usize,
    edges: &mut Vec<(usize, usize, u32)>,
) {
    match sp {
        Sp::Edge(w) => edges.push((from, to, *w)),
        Sp::Hop(w, tail) => {
            let mid = *next;
            *next += 1;
            edges.push((from, mid, *w));
            build_sp(tail, mid, to, next, edges);
        }
        Sp::Parallel(a, b) => {
            build_sp(a, from, to, next, edges);
            build_sp(b, from, to, next, edges);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn eq1_is_exact_on_branch_disjoint_flows(
        sp in sp_strategy(),
        pq in (1u32..10, 1u32..10),
    ) {
        // Prepend one relay hop so the structure never degenerates into a
        // direct user-user channel (which the network model forbids).
        let sp = Sp::Hop(1, Box::new(sp));
        let mut edges = Vec::new();
        let mut next = 2usize;
        build_sp(&sp, 0, 1, &mut next, &mut edges);
        // Merge parallel channels between the same pair (a parallel
        // composition of bare edges is just a wider channel).
        let mut merged: std::collections::BTreeMap<(usize, usize), u32> =
            std::collections::BTreeMap::new();
        for (u, v, w) in edges {
            let key = (u.min(v), u.max(v));
            *merged.entry(key).or_insert(0) += w;
        }
        // Bound the exact-enumeration cost.
        let switches = next - 2;
        prop_assume!(merged.len() + switches <= 18);

        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let d = b.user(1.0, 0.0);
        for i in 0..switches {
            b.switch(2.0 + i as f64, 0.0, 1_000);
        }
        for &(u, v) in merged.keys() {
            b.link_with_length(NodeId::new(u), NodeId::new(v), 1.0).unwrap();
        }
        let mut net = b.build();
        net.set_uniform_link_success(Some(f64::from(pq.0) / 10.0));
        net.set_swap_success(f64::from(pq.1) / 10.0);

        let mut flow = FlowGraph::new(s, d);
        for (&(u, v), &w) in &merged {
            flow.add_parallel(NodeId::new(u), NodeId::new(v), w);
        }
        // Orientation: FlowGraph::children follows the stored direction;
        // series construction always goes from-side to to-side, so the
        // stored pairs are already source-to-sink oriented... except that
        // `merged` normalized keys by min/max. Re-orient by BFS from the
        // source before evaluating.
        let flow = reorient(&flow, s, d);

        let eq1 = metrics::flow_rate(&net, &flow).value();
        let exact = sim::exact::flow_reliability(&net, &flow);
        prop_assert!(
            (eq1 - exact).abs() < 1e-9,
            "Eq.1 {eq1} vs exact {exact} on {sp:?}"
        );
    }
}

/// Rebuilds a flow graph with every edge oriented away from the source
/// (BFS order) so Eq. 1's child recursion can traverse it.
fn reorient(flow: &FlowGraph, source: NodeId, sink: NodeId) -> FlowGraph {
    let mut out = FlowGraph::new(source, sink);
    let mut adjacency: std::collections::BTreeMap<NodeId, Vec<(NodeId, u32)>> =
        std::collections::BTreeMap::new();
    for (u, v, w) in flow.edges() {
        adjacency.entry(u).or_default().push((v, w));
        adjacency.entry(v).or_default().push((u, w));
    }
    let mut seen = std::collections::BTreeSet::new();
    seen.insert(source);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &(v, w) in adjacency.get(&u).into_iter().flatten() {
            if seen.insert(v) {
                queue.push_back(v);
            }
            if out.undirected_width(u, v).is_none() {
                // Edges touching the sink always point into it; everything
                // else follows discovery order.
                if u == sink {
                    out.add_parallel(v, u, w);
                } else {
                    out.add_parallel(u, v, w);
                }
            }
        }
    }
    out
}
