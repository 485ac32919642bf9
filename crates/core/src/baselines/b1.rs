//! B1 baseline (§V-B): Patil et al.'s percolation-style GHZ protocol \[21\]
//! extended from a single pair to multiple pairs.
//!
//! For each pair in demand order, B1 carves out a multi-path region (the
//! union of the `h` best unit-width paths under the *current* residual
//! capacity), pins one qubit per region-edge end, and lets every switch in
//! the region fuse all of its successful links for that pair. The consumed
//! qubits are removed before the next pair is served — exactly "for each
//! pair, we run the algorithm once and remove the occupied resources".
//!
//! Differences from `ALG-N-FUSION` that the evaluation isolates: widths are
//! fixed at 1, pairs are served in arrival order rather than metric order,
//! and no Algorithm 4 widening happens afterwards. See DESIGN.md §3 for the
//! substitution rationale (the original is defined on lattices only).

use crate::algorithms::alg2::{SelectionEngine, SelectionQuery};
use crate::demand::Demand;
use crate::network::QuantumNetwork;
use crate::plan::{NetworkPlan, SwapMode};

/// Number of unit-width paths whose union forms a pair's percolation
/// region. On the lattices Patil et al. evaluate, the region between two
/// endpoints decomposes into two edge-disjoint geodesic corridors (the two
/// sides of the bounding rectangle), so the general-topology analogue
/// takes the two best unit-width paths.
pub const DEFAULT_REGION_PATHS: usize = 2;

/// Routes all demands with the B1 strategy.
///
/// `region_paths` controls how many unit-width paths form each pair's
/// region (default [`DEFAULT_REGION_PATHS`]).
#[must_use]
pub fn route_b1(net: &QuantumNetwork, demands: &[Demand], region_paths: usize) -> NetworkPlan {
    let mut remaining = net.capacities();
    let mut plans = Vec::with_capacity(demands.len());
    // Region discovery at width 1 under the residual capacity, on one
    // engine: the network's channel tables and arc view are built once.
    let mut engine = SelectionEngine::new();
    let query = SelectionQuery {
        h: region_paths.max(1),
        max_width: 1,
        mode: SwapMode::NFusion,
    };
    for &demand in demands {
        let candidates = engine.select_demand(net, &demand, &remaining, query);
        // Merge the region paths for this single pair; sharing is the
        // essence of the protocol (every region edge is used once).
        let outcome = paths_merge_with_budget(&demand, &candidates, &remaining);
        remaining = outcome.1;
        plans.push(outcome.0);
    }
    NetworkPlan {
        mode: SwapMode::NFusion,
        plans,
        leftover: remaining,
        alg4_links: 0,
    }
}

/// Merges one pair's region paths against the running budget in a
/// single metric-ordered pass at width 1, every hop shared. Algorithm 3's
/// merges order and retry candidates differently, so B1 keeps its own.
fn paths_merge_with_budget(
    demand: &Demand,
    candidates: &[crate::algorithms::alg2::CandidatePath],
    budget: &[u32],
) -> (crate::plan::DemandPlan, Vec<u32>) {
    let mut remaining = budget.to_vec();
    let mut plan = crate::plan::DemandPlan::empty(*demand);
    let mut assigned: std::collections::HashSet<(fusion_graph::NodeId, fusion_graph::NodeId)> =
        std::collections::HashSet::new();

    let mut sorted: Vec<_> = candidates.iter().collect();
    sorted.sort_by(|a, b| {
        b.metric
            .cmp(&a.metric)
            .then_with(|| a.path.nodes().cmp(b.path.nodes()))
    });
    for cand in sorted {
        let mut need: std::collections::BTreeMap<fusion_graph::NodeId, u32> =
            std::collections::BTreeMap::new();
        let mut new_hops = 0;
        for (u, v) in cand.path.hops_iter() {
            let key = crate::algorithms::alg1::PathConstraints::hop_key(u, v);
            if !assigned.contains(&key) {
                *need.entry(u).or_insert(0) += 1;
                *need.entry(v).or_insert(0) += 1;
                new_hops += 1;
            }
        }
        if new_hops == 0 {
            continue;
        }
        if need.iter().any(|(&n, &a)| remaining[n.index()] < a) {
            continue;
        }
        for (&n, &a) in &need {
            remaining[n.index()] -= a;
        }
        for (u, v) in cand.path.hops_iter() {
            assigned.insert(crate::algorithms::alg1::PathConstraints::hop_key(u, v));
        }
        plan.flow.add_path(&cand.path, 1);
        plan.paths
            .push(crate::flow::WidthedPath::uniform(cand.path.clone(), 1));
    }
    (plan, remaining)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::alg_n_fusion;
    use crate::network::NetworkParams;
    use fusion_topology::TopologyConfig;

    fn setup(pairs: usize, seed: u64) -> (QuantumNetwork, Vec<Demand>) {
        let topo = TopologyConfig {
            num_switches: 30,
            num_user_pairs: pairs,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(seed);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        (net, Demand::from_topology(&topo))
    }

    #[test]
    fn unit_widths_only() {
        let (net, demands) = setup(4, 9);
        let plan = route_b1(&net, &demands, DEFAULT_REGION_PATHS);
        for dp in &plan.plans {
            for (_, _, w) in dp.flow.edges() {
                assert_eq!(w, 1, "B1 never widens channels");
            }
        }
    }

    #[test]
    fn resources_deplete_in_demand_order() {
        let (net, demands) = setup(8, 10);
        let plan = route_b1(&net, &demands, DEFAULT_REGION_PATHS);
        // Feasibility: no switch oversubscribed.
        for node in net.graph().node_ids().filter(|&v| net.is_switch(v)) {
            let spent: u32 = plan.plans.iter().map(|p| p.flow.qubits_at(node)).sum();
            assert!(spent <= net.capacity(node));
            assert_eq!(spent + plan.leftover[node.index()], net.capacity(node));
        }
        // Earlier demands are at least as likely to be served: the first
        // served demand index must not follow an unserved one with a
        // feasible region... weak proxy: demand 0 is served whenever
        // anything is.
        if plan.served_demands() > 0 {
            assert!(!plan.plans[0].is_unserved(), "B1 serves pairs in order");
        }
    }

    #[test]
    fn alg_n_fusion_dominates_b1() {
        // §V-C1: ALG-N-FUSION improves on B1 (up to 293% in the paper).
        let mut wins = 0;
        for seed in [11, 12, 13] {
            let (mut net, demands) = setup(6, seed);
            net.set_uniform_link_success(Some(0.25));
            let ours = alg_n_fusion(&net, &demands).total_rate(&net);
            let b1 = route_b1(&net, &demands, DEFAULT_REGION_PATHS).total_rate(&net);
            if ours >= b1 - 1e-9 {
                wins += 1;
            }
        }
        assert!(wins >= 2, "ALG-N-FUSION should dominate B1 on most seeds");
    }

    #[test]
    fn region_paths_parameter_bounds_paths() {
        let (net, demands) = setup(2, 14);
        let plan = route_b1(&net, &demands, 2);
        for dp in &plan.plans {
            assert!(dp.paths.len() <= 2);
        }
    }
}
