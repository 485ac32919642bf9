//! Algorithm 3 — Paths Merge: turn the candidate set into concrete routes
//! under the qubit-capacity constraint.
//!
//! Candidates are consumed width-major (widest first), sorted by metric
//! within a width. A candidate is accepted when every hop either fits into
//! the remaining qubits at both endpoints or — under n-fusion — is already
//! assigned to the *same* demand by an earlier accepted path, in which case
//! the hop's qubits are shared and the paths merge into a flow-like graph.
//!
//! One correction to the paper's pseudocode: feasibility is checked with
//! per-node *totals* over the path's unshared hops (an intermediate node
//! needs `w` qubits for each of its two hops), not hop-by-hop; the
//! hop-by-hop check would overcommit switches with `w ≤ remaining < 2w`.

use std::collections::{BTreeMap, HashMap, HashSet};

use fusion_graph::NodeId;

use crate::algorithms::alg1::PathConstraints;
use crate::algorithms::alg2::CandidatePath;
use crate::demand::{Demand, DemandId};
use crate::flow::WidthedPath;
use crate::network::QuantumNetwork;
use crate::plan::{DemandPlan, SwapMode};

/// Adds an accepted route to the demand's flow graph. With sharing, hops
/// already present keep their qubits (the paths merge); without sharing
/// every acceptance paid for fresh links, so widths on repeated hops stack
/// as parallel channels.
pub(crate) fn record_route(
    flow: &mut crate::flow::FlowGraph,
    path: &fusion_graph::Path,
    width: u32,
    share_edges: bool,
) {
    if share_edges {
        flow.add_path(path, width);
    } else {
        for (u, v) in path.hops_iter() {
            flow.add_parallel(u, v, width);
        }
    }
}

/// Output of the merge: per-demand plans plus the remaining qubit budget.
/// Equality is exact (widths, flows, and remaining qubits are all
/// integral), which is what the queue-vs-reference differential tests
/// compare.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// One plan per input demand, in input order.
    pub plans: Vec<DemandPlan>,
    /// Remaining qubits per node after all assignments.
    pub remaining: Vec<u32>,
}

/// Runs Algorithm 3 over the candidate set against a starting qubit
/// budget: the network's own [`QuantumNetwork::capacities`] for a batch
/// run, or the residual capacity left by live plans when the service
/// layer merges a new arrival.
///
/// With `share_edges` set (n-fusion), paths of the same demand may share
/// hops, merging into flow-like graphs; without it every path pays for its
/// own qubits — mandatory under [`SwapMode::Classic`], where BSM switches
/// cannot fuse more than two links per state, and available as an ablation
/// under n-fusion. `max_paths_per_demand` optionally caps the accepted
/// routes per demand (classic swapping routes one major path per request,
/// following Q-CAST).
///
/// # Panics
///
/// Panics if `capacity` is shorter than the node count.
#[must_use]
pub fn paths_merge(
    net: &QuantumNetwork,
    demands: &[Demand],
    candidates: &[CandidatePath],
    mode: SwapMode,
    share_edges: bool,
    max_paths_per_demand: Option<usize>,
    capacity: &[u32],
) -> MergeOutcome {
    assert!(
        capacity.len() >= net.node_count(),
        "capacity vector too short"
    );
    let share_edges = share_edges && mode == SwapMode::NFusion;
    let mut remaining = capacity[..net.node_count()].to_vec();
    let mut plans: Vec<DemandPlan> = demands.iter().map(|&d| DemandPlan::empty(d)).collect();
    let index_of: HashMap<DemandId, usize> =
        demands.iter().enumerate().map(|(i, d)| (d.id, i)).collect();

    // Hops already assigned per demand (n-fusion sharing), with widths.
    let mut assigned: HashSet<(DemandId, (NodeId, NodeId))> = HashSet::new();

    // Group by width, widest first.
    let mut by_width: BTreeMap<u32, Vec<&CandidatePath>> = BTreeMap::new();
    for c in candidates {
        by_width.entry(c.width).or_default().push(c);
    }

    for (&width, batch) in by_width.iter_mut().rev() {
        // Sort by decreasing metric; deterministic tie-break.
        batch.sort_by(|a, b| {
            b.metric
                .cmp(&a.metric)
                .then_with(|| a.demand.cmp(&b.demand))
                .then_with(|| a.path.nodes().cmp(b.path.nodes()))
        });
        // Fair rotation (second pseudocode correction): each pass accepts
        // at most one path per demand, and passes repeat until nothing
        // fits. A single metric-ordered sweep would let one demand's h
        // candidates all outrank another demand's first, hoarding qubits
        // on extra branches whose Eq.-1 gain has already saturated.
        let mut taken = vec![false; batch.len()];
        loop {
            let mut accepted_this_pass: HashSet<DemandId> = HashSet::new();
            let mut progress = false;
            for (ci, cand) in batch.iter().enumerate() {
                if taken[ci] || accepted_this_pass.contains(&cand.demand) {
                    continue;
                }
                let Some(&plan_idx) = index_of.get(&cand.demand) else {
                    taken[ci] = true;
                    continue;
                };
                if let Some(limit) = max_paths_per_demand {
                    if plans[plan_idx].paths.len() >= limit {
                        taken[ci] = true;
                        continue;
                    }
                }

                // Per-node qubit totals over this path's unshared hops.
                let mut need: BTreeMap<NodeId, u32> = BTreeMap::new();
                let mut new_hops = 0usize;
                for (u, v) in cand.path.hops_iter() {
                    let key = (cand.demand, PathConstraints::hop_key(u, v));
                    let shared = share_edges && assigned.contains(&key);
                    if !shared {
                        *need.entry(u).or_insert(0) += width;
                        *need.entry(v).or_insert(0) += width;
                        new_hops += 1;
                    }
                }
                if new_hops == 0 {
                    // Fully contained in earlier routes: contributes nothing.
                    taken[ci] = true;
                    continue;
                }
                let feasible = need
                    .iter()
                    .all(|(&node, &amount)| remaining[node.index()] >= amount);
                if !feasible {
                    continue;
                }

                // Accept: deduct qubits and record the route.
                for (&node, &amount) in &need {
                    remaining[node.index()] -= amount;
                }
                for (u, v) in cand.path.hops_iter() {
                    assigned.insert((cand.demand, PathConstraints::hop_key(u, v)));
                }
                let plan = &mut plans[plan_idx];
                record_route(&mut plan.flow, &cand.path, width, share_edges);
                plan.paths
                    .push(WidthedPath::uniform(cand.path.clone(), width));
                taken[ci] = true;
                accepted_this_pass.insert(cand.demand);
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }
    MergeOutcome { plans, remaining }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::alg2::{paths_selection, SelectionQuery};
    use crate::demand::DemandId;
    use fusion_graph::{Metric, Path};
    use fusion_telemetry::Registry;

    /// Unbounded merge on the network's own capacities.
    fn merge(
        net: &QuantumNetwork,
        demands: &[Demand],
        candidates: &[CandidatePath],
        mode: SwapMode,
        share_edges: bool,
    ) -> MergeOutcome {
        let caps = net.capacities();
        paths_merge(net, demands, candidates, mode, share_edges, None, &caps)
    }

    /// S and D joined by two disjoint 2-hop routes, plus a second demand
    /// sharing the same switches.
    fn contended_net() -> (QuantumNetwork, Vec<NodeId>) {
        let mut b = QuantumNetwork::builder();
        let s1 = b.user(0.0, 1.0);
        let d1 = b.user(4.0, 1.0);
        let s2 = b.user(0.0, -1.0);
        let d2 = b.user(4.0, -1.0);
        let va = b.switch(1.0, 0.0, 4);
        let vb = b.switch(3.0, 0.0, 4);
        for (u, v) in [(s1, va), (s2, va), (va, vb), (vb, d1), (vb, d2)] {
            b.link_with_length(u, v, 1_000.0).unwrap();
        }
        let mut net = b.build();
        net.set_uniform_link_success(Some(0.5));
        net.set_swap_success(0.9);
        (net, vec![s1, d1, s2, d2, va, vb])
    }

    fn cand(demand: usize, nodes: Vec<NodeId>, width: u32, metric: f64) -> CandidatePath {
        CandidatePath {
            demand: DemandId::new(demand),
            path: Path::new(nodes),
            width,
            metric: Metric::new(metric),
        }
    }

    #[test]
    fn capacity_is_conserved() {
        let (net, n) = contended_net();
        let demands = [
            Demand::new(DemandId::new(0), n[0], n[1]),
            Demand::new(DemandId::new(1), n[2], n[3]),
        ];
        let caps = net.capacities();
        let query = SelectionQuery {
            h: 3,
            max_width: 2,
            mode: SwapMode::NFusion,
        };
        let candidates = paths_selection(&net, &demands, &caps, query, 1, &Registry::disabled());
        let outcome = merge(&net, &demands, &candidates, SwapMode::NFusion, true);
        // Every switch's spend must equal capacity - remaining.
        for node in net.graph().node_ids().filter(|&v| net.is_switch(v)) {
            let spent: u32 = outcome.plans.iter().map(|p| p.flow.qubits_at(node)).sum();
            assert_eq!(
                spent + outcome.remaining[node.index()],
                net.capacity(node),
                "capacity violated at {node}"
            );
        }
    }

    #[test]
    fn sharing_merges_same_demand_paths() {
        // Two candidate paths for one demand sharing the middle hop: the
        // second must be accepted by sharing, not fresh qubits.
        let (net, n) = contended_net();
        let demands = [Demand::new(DemandId::new(0), n[0], n[1])];
        // Only route between s1,d1 runs via va-vb; construct two synthetic
        // candidates whose middle hop coincides.
        let c1 = cand(0, vec![n[0], n[4], n[5], n[1]], 2, 0.9);
        let c2 = cand(0, vec![n[0], n[4], n[5], n[1]], 1, 0.5);
        let outcome = merge(&net, &demands, &[c1, c2], SwapMode::NFusion, true);
        // The width-1 copy is fully shared: only one path accepted.
        assert_eq!(outcome.plans[0].paths.len(), 1);
        assert_eq!(outcome.plans[0].flow.undirected_width(n[4], n[5]), Some(2));
        // va spent 2 (toward s1) + 2 (toward vb) = 4 qubits.
        assert_eq!(outcome.remaining[n[4].index()], 0);
    }

    #[test]
    fn classic_mode_never_shares() {
        let (net, n) = contended_net();
        let demands = [Demand::new(DemandId::new(0), n[0], n[1])];
        let c1 = cand(0, vec![n[0], n[4], n[5], n[1]], 1, 0.9);
        let c2 = cand(0, vec![n[0], n[4], n[5], n[1]], 1, 0.5);
        let outcome = merge(&net, &demands, &[c1, c2], SwapMode::Classic, true);
        // Capacity 4 per switch: each width-1 path pins 2 qubits per
        // intermediate switch, so both fit — but with fresh qubits.
        assert_eq!(outcome.plans[0].paths.len(), 2);
        assert_eq!(outcome.remaining[n[4].index()], 0);
        assert_eq!(outcome.remaining[n[5].index()], 0);
    }

    #[test]
    fn per_node_totals_block_overcommit() {
        // A width-2 path through a capacity-4 switch needs all 4 qubits at
        // that switch; a second width-2 path through it must be rejected
        // even though each *hop* individually fits.
        let (net, n) = contended_net();
        let demands = [
            Demand::new(DemandId::new(0), n[0], n[1]),
            Demand::new(DemandId::new(1), n[2], n[3]),
        ];
        let c1 = cand(0, vec![n[0], n[4], n[5], n[1]], 2, 0.9);
        let c2 = cand(1, vec![n[2], n[4], n[5], n[3]], 2, 0.8);
        let outcome = merge(&net, &demands, &[c1, c2], SwapMode::NFusion, true);
        assert_eq!(outcome.plans[0].paths.len(), 1, "first candidate fits");
        assert!(outcome.plans[1].paths.is_empty(), "switches are exhausted");
    }

    #[test]
    fn higher_metric_wins_within_width() {
        let (net, n) = contended_net();
        let demands = [
            Demand::new(DemandId::new(0), n[0], n[1]),
            Demand::new(DemandId::new(1), n[2], n[3]),
        ];
        let weak = cand(0, vec![n[0], n[4], n[5], n[1]], 2, 0.2);
        let strong = cand(1, vec![n[2], n[4], n[5], n[3]], 2, 0.7);
        let outcome = merge(&net, &demands, &[weak, strong], SwapMode::NFusion, true);
        assert!(outcome.plans[0].paths.is_empty());
        assert_eq!(outcome.plans[1].paths.len(), 1);
    }

    #[test]
    fn wider_candidates_processed_first() {
        let (net, n) = contended_net();
        let demands = [Demand::new(DemandId::new(0), n[0], n[1])];
        // Width 1 has a better metric, but width 2 must still be placed
        // first (width-major order).
        let w1 = cand(0, vec![n[0], n[4], n[5], n[1]], 1, 0.99);
        let w2 = cand(0, vec![n[0], n[4], n[5], n[1]], 2, 0.5);
        let outcome = merge(&net, &demands, &[w1, w2], SwapMode::NFusion, true);
        assert_eq!(outcome.plans[0].flow.undirected_width(n[4], n[5]), Some(2));
    }

    #[test]
    fn users_never_run_out() {
        let (net, n) = contended_net();
        let demands = [Demand::new(DemandId::new(0), n[0], n[1])];
        let c = cand(0, vec![n[0], n[4], n[5], n[1]], 2, 0.9);
        let outcome = merge(&net, &demands, &[c], SwapMode::NFusion, true);
        assert!(outcome.remaining[n[0].index()] > 1_000_000);
    }
}
