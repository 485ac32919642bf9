//! Extension: multiparty GHZ-state distribution.
//!
//! The paper scopes demands to *pairs* of users ("a quantum state can only
//! be shared between two quantum-users", §III-A) but motivates n-fusion
//! with k-party GHZ states throughout §II — Fig. 2 shows three processor
//! sets fused into one 6-GHZ state, and GHZ-channel teleportation \[25\] is
//! the target application. This module implements that natural extension:
//! distributing one GHZ state among `k ≥ 2` users.
//!
//! Routing uses the *hub* pattern, the direct generalization of the
//! paper's flow-like graphs: pick a rendezvous switch, route one
//! (width-optimized) branch from every member to it, and let the hub's
//! single n-fusion stitch the k branches into a k-GHZ state. The state is
//! established when every member's branch survives and the hub fuses —
//! exactly the connectivity semantics of §III-C applied to a star:
//!
//! `P = Π_members P(member → hub)` (the hub's swap factor appears once,
//! inside the Eq.-1 recursion of whichever branch reaches it first —
//! handled by evaluating the star as one multi-terminal flow).

use std::fmt;

use fusion_graph::{Metric, NodeId, SearchScratch};
use serde::{Deserialize, Serialize};

use crate::algorithms::alg1::{largest_rate_path, PathConstraints};
use crate::demand::DemandId;
use crate::flow::WidthedPath;
use crate::metrics;
use crate::network::QuantumNetwork;
use crate::plan::DemandPlan;

/// One demanded k-party GHZ state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultipartyDemand {
    /// Stable identifier.
    pub id: DemandId,
    /// The quantum-users that must share the GHZ state (k ≥ 2, distinct).
    pub members: Vec<NodeId>,
}

impl MultipartyDemand {
    /// Creates a multiparty demand.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two members are given or members repeat.
    #[must_use]
    pub fn new(id: DemandId, members: Vec<NodeId>) -> Self {
        assert!(members.len() >= 2, "a GHZ state needs at least two members");
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "members must be distinct");
        MultipartyDemand { id, members }
    }

    /// Number of parties.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.members.len()
    }
}

impl fmt::Display for MultipartyDemand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: GHZ(", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, ")")
    }
}

/// A routed multiparty state: the hub switch plus one branch per member.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StarPlan {
    /// The demand served.
    pub demand: MultipartyDemand,
    /// The rendezvous switch whose n-fusion stitches the branches, or
    /// `None` when the demand could not be routed.
    pub hub: Option<NodeId>,
    /// One branch per member (member → hub), aligned with
    /// `demand.members`; unrouted members are absent.
    pub branches: Vec<WidthedPath>,
}

impl StarPlan {
    /// `true` when every member has a routed branch.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.hub.is_some() && self.branches.len() == self.demand.members.len()
    }

    /// Analytic success probability: every branch must deliver its member's
    /// qubit to the hub (each branch priced by the n-fusion path rate,
    /// which already charges `q` per intermediate switch), and the hub's
    /// own k-way fusion must succeed once.
    #[must_use]
    pub fn rate(&self, net: &QuantumNetwork) -> f64 {
        if !self.is_complete() {
            return 0.0;
        }
        let branches: f64 = self
            .branches
            .iter()
            .map(|wp| metrics::widthed_path_rate(net, wp).value())
            .product();
        branches * net.swap_success()
    }

    /// Total qubits this star pins at `node` across all branches.
    #[must_use]
    pub fn qubits_at(&self, node: NodeId) -> u32 {
        self.branches
            .iter()
            .flat_map(WidthedPath::hops)
            .filter(|&(u, v, _)| u == node || v == node)
            .map(|(_, _, w)| w)
            .sum()
    }
}

/// Tuning knobs for multiparty routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultipartyConfig {
    /// Hub candidates examined per demand (the best-connected switches).
    pub hub_candidates: usize,
    /// Channel width of each branch.
    pub branch_width: u32,
    /// Spend leftover qubits widening branch channels afterwards.
    pub use_alg4: bool,
}

impl Default for MultipartyConfig {
    fn default() -> Self {
        MultipartyConfig {
            hub_candidates: 8,
            branch_width: 1,
            use_alg4: true,
        }
    }
}

/// Result of routing a batch of multiparty demands.
#[derive(Debug, Clone)]
pub struct MultipartyOutcome {
    /// One star per demand, in input order.
    pub stars: Vec<StarPlan>,
    /// Remaining qubits per node.
    pub remaining: Vec<u32>,
}

impl MultipartyOutcome {
    /// Expected number of established GHZ states per attempt.
    #[must_use]
    pub fn total_rate(&self, net: &QuantumNetwork) -> f64 {
        self.stars.iter().map(|s| s.rate(net)).sum()
    }
}

/// Routes every multiparty demand greedily: for each demand (in input
/// order), evaluate the configured number of hub candidates — switches
/// ranked by their best-branch product — and keep the best feasible star,
/// deducting its qubits before the next demand.
///
/// # Panics
///
/// Panics if a member id is not a user, or the config is degenerate
/// (`hub_candidates == 0` or `branch_width == 0`).
#[must_use]
pub fn route_multiparty(
    net: &QuantumNetwork,
    demands: &[MultipartyDemand],
    config: &MultipartyConfig,
) -> MultipartyOutcome {
    assert!(config.hub_candidates > 0, "need at least one hub candidate");
    assert!(config.branch_width > 0, "branch width must be positive");
    for d in demands {
        for &m in &d.members {
            assert!(net.is_user(m), "GHZ member {m} must be a quantum-user");
        }
    }

    let mut remaining = net.capacities();
    let mut stars = Vec::with_capacity(demands.len());
    for demand in demands {
        let star = best_star(net, demand, config, &remaining);
        if let Some((hub, branches)) = star {
            commit(&mut remaining, &branches);
            stars.push(StarPlan {
                demand: demand.clone(),
                hub: Some(hub),
                branches,
            });
        } else {
            stars.push(StarPlan {
                demand: demand.clone(),
                hub: None,
                branches: Vec::new(),
            });
        }
    }

    if config.use_alg4 {
        widen_stars(net, &mut stars, &mut remaining);
    }
    MultipartyOutcome { stars, remaining }
}

/// Scores hubs and returns the best feasible star for one demand.
fn best_star(
    net: &QuantumNetwork,
    demand: &MultipartyDemand,
    config: &MultipartyConfig,
    remaining: &[u32],
) -> Option<(NodeId, Vec<WidthedPath>)> {
    // Rank hubs by the product of single-branch metrics against the
    // residual capacity.
    let w = config.branch_width;
    let cons = PathConstraints::default();
    let mut scratch = SearchScratch::new();
    let mut per_member: Vec<Vec<(NodeId, Metric)>> = Vec::new();
    for &m in &demand.members {
        // One Alg.-1 run per switch, probed as a pseudo-destination,
        // gives the member's best single-branch rate to that switch.
        let mut reach: Vec<(NodeId, Metric)> = net
            .graph()
            .node_ids()
            .filter(|&v| net.is_switch(v))
            .filter_map(|v| {
                largest_rate_path(&mut scratch, net, m, v, w, remaining, &cons)
                    .map(|(_, metric)| (v, metric))
            })
            .collect();
        reach.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        if reach.is_empty() {
            return None;
        }
        per_member.push(reach);
    }

    // Candidate hubs: reachable by every member, ranked by metric product.
    let mut hub_scores: std::collections::BTreeMap<NodeId, f64> = std::collections::BTreeMap::new();
    for reach in &per_member {
        for &(hub, m) in reach {
            *hub_scores.entry(hub).or_insert(1.0) *= m.value();
        }
    }
    let mut hubs: Vec<(NodeId, f64)> = hub_scores
        .into_iter()
        .filter(|&(hub, _)| {
            per_member
                .iter()
                .all(|reach| reach.iter().any(|&(h, _)| h == hub))
        })
        .collect();
    hubs.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite scores")
            .then(a.0.cmp(&b.0))
    });

    for (hub, _) in hubs.into_iter().take(config.hub_candidates) {
        if let Some(branches) = build_star(net, demand, config, remaining, hub) {
            return Some((hub, branches));
        }
    }
    None
}

/// Routes the k branches toward a fixed hub under the residual capacity,
/// deducting as it goes so branches do not overbook shared switches.
fn build_star(
    net: &QuantumNetwork,
    demand: &MultipartyDemand,
    config: &MultipartyConfig,
    remaining: &[u32],
    hub: NodeId,
) -> Option<Vec<WidthedPath>> {
    let w = config.branch_width;
    let mut budget = remaining.to_vec();
    // The hub terminates k branches: w qubits per branch, all fused at
    // once — reserve them up front.
    let hub_need = w * demand.members.len() as u32;
    if budget[hub.index()] < hub_need {
        return None;
    }
    let mut branches = Vec::with_capacity(demand.members.len());
    let mut cons = PathConstraints::default();
    let mut scratch = SearchScratch::new();
    for &m in &demand.members {
        let (path, _) = largest_rate_path(&mut scratch, net, m, hub, w, &budget, &cons)?;
        // Branches must be internally disjoint (each switch fuses for this
        // state exactly once, at the hub or inside one branch).
        for &node in path.intermediates() {
            cons.ban_node(node);
        }
        for (u, v) in path.hops_iter() {
            for node in [u, v] {
                if net.is_switch(node) {
                    budget[node.index()] = budget[node.index()].saturating_sub(w);
                }
            }
        }
        branches.push(WidthedPath::uniform(path, w));
    }
    Some(branches)
}

fn commit(remaining: &mut [u32], branches: &[WidthedPath]) {
    for wp in branches {
        for (u, v, w) in wp.hops() {
            for node in [u, v] {
                remaining[node.index()] = remaining[node.index()].saturating_sub(w);
            }
        }
    }
}

/// Alg.-4-style widening: offer each remaining qubit pair to the branch
/// hop with the largest marginal gain in star rate.
fn widen_stars(net: &QuantumNetwork, stars: &mut [StarPlan], remaining: &mut [u32]) {
    for edge in net.graph().edge_ids() {
        let (u, v) = net.graph().endpoints(edge);
        loop {
            if remaining[u.index()] == 0 || remaining[v.index()] == 0 {
                break;
            }
            let mut best: Option<(f64, usize, usize, usize)> = None;
            for (si, star) in stars.iter().enumerate() {
                let before = star.rate(net);
                for (bi, wp) in star.branches.iter().enumerate() {
                    for (hi, (a, b)) in wp.path.hops_iter().enumerate() {
                        if (a, b) != (u, v) && (a, b) != (v, u) {
                            continue;
                        }
                        let mut widened = star.clone();
                        widened.branches[bi].widen_hop(hi);
                        let gain = widened.rate(net) - before;
                        if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.0) {
                            best = Some((gain, si, bi, hi));
                        }
                    }
                }
            }
            let Some((_, si, bi, hi)) = best else { break };
            stars[si].branches[bi].widen_hop(hi);
            remaining[u.index()] -= 1;
            remaining[v.index()] -= 1;
        }
    }
}

/// Converts a completed star into the pairwise [`DemandPlan`] form used by
/// the Monte Carlo machinery, treating the first member as the source and
/// checking connectivity to the *hub-joined* remainder. Used by
/// `fusion-sim` to validate star rates by sampling.
#[must_use]
pub fn star_as_flow(star: &StarPlan) -> Option<DemandPlan> {
    let hub = star.hub?;
    if !star.is_complete() {
        return None;
    }
    let first = star.demand.members.first().copied()?;
    let last = star.demand.members.last().copied()?;
    let demand = crate::demand::Demand::new(star.demand.id, first, last);
    let mut plan = DemandPlan::empty(demand);
    for (i, wp) in star.branches.iter().enumerate() {
        // Orient member branches toward the hub; the flow graph is only
        // used for bookkeeping (nodes/edges/widths), while multiparty
        // rates come from StarPlan::rate.
        let _ = i;
        for (u, v, w) in wp.hops() {
            plan.flow.add_parallel(u, v, w);
        }
        plan.paths.push(wp.clone());
    }
    debug_assert!(plan.flow.nodes().contains(&hub));
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkParams;
    use fusion_topology::TopologyConfig;

    fn world(seed: u64) -> QuantumNetwork {
        let topo = TopologyConfig {
            num_switches: 30,
            num_user_pairs: 4, // 8 users to draw members from
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(seed);
        QuantumNetwork::from_topology(&topo, &NetworkParams::default())
    }

    fn users(net: &QuantumNetwork, k: usize) -> Vec<NodeId> {
        net.graph()
            .node_ids()
            .filter(|&n| net.is_user(n))
            .take(k)
            .collect()
    }

    #[test]
    fn routes_three_party_ghz() {
        let net = world(1);
        let demand = MultipartyDemand::new(DemandId::new(0), users(&net, 3));
        let out = route_multiparty(&net, &[demand], &MultipartyConfig::default());
        let star = &out.stars[0];
        assert!(
            star.is_complete(),
            "3-party demand should route in a 30-switch net"
        );
        assert_eq!(star.branches.len(), 3);
        let rate = star.rate(&net);
        assert!(rate > 0.0 && rate <= 1.0);
        // Every branch ends at the hub.
        let hub = star.hub.unwrap();
        for wp in &star.branches {
            assert_eq!(wp.path.destination(), hub);
        }
    }

    #[test]
    fn branches_are_internally_disjoint() {
        let net = world(2);
        let demand = MultipartyDemand::new(DemandId::new(0), users(&net, 4));
        let out = route_multiparty(&net, &[demand], &MultipartyConfig::default());
        let star = &out.stars[0];
        if !star.is_complete() {
            return; // 4-party may be infeasible on some seeds; other tests cover routing
        }
        let mut seen = std::collections::HashSet::new();
        for wp in &star.branches {
            for &node in wp.path.intermediates() {
                assert!(
                    seen.insert(node),
                    "switch {node} relays two branches of one GHZ state"
                );
            }
        }
    }

    #[test]
    fn capacity_is_respected() {
        let net = world(3);
        let demands: Vec<_> = (0..2)
            .map(|i| {
                MultipartyDemand::new(DemandId::new(i), users(&net, 6)[i * 3..i * 3 + 3].to_vec())
            })
            .collect();
        let out = route_multiparty(&net, &demands, &MultipartyConfig::default());
        for node in net.graph().node_ids().filter(|&n| net.is_switch(n)) {
            let spent: u32 = out.stars.iter().map(|s| s.qubits_at(node)).sum();
            assert!(
                spent <= net.capacity(node),
                "switch {node}: {spent} > {}",
                net.capacity(node)
            );
        }
    }

    #[test]
    fn pairwise_demand_reduces_to_paper_model() {
        // k = 2 must behave like an ordinary pairwise route: rate equals
        // branch-product × q, consistent with a 2-branch flow through the
        // hub.
        let net = world(4);
        let demand = MultipartyDemand::new(DemandId::new(0), users(&net, 2));
        let out = route_multiparty(&net, &[demand], &MultipartyConfig::default());
        let star = &out.stars[0];
        assert!(star.is_complete());
        let product: f64 = star
            .branches
            .iter()
            .map(|wp| metrics::widthed_path_rate(&net, wp).value())
            .product();
        assert!((star.rate(&net) - product * net.swap_success()).abs() < 1e-12);
    }

    #[test]
    fn higher_arity_is_harder() {
        let net = world(5);
        let all_users = users(&net, 4);
        let rate_for = |k: usize| {
            let demand = MultipartyDemand::new(DemandId::new(0), all_users[..k].to_vec());
            route_multiparty(&net, &[demand], &MultipartyConfig::default()).total_rate(&net)
        };
        let two = rate_for(2);
        let four = rate_for(4);
        assert!(
            four <= two + 1e-9,
            "a 4-party GHZ state cannot be easier than a Bell pair: {four} vs {two}"
        );
    }

    #[test]
    fn widening_improves_rates() {
        let net = world(6);
        let demand = MultipartyDemand::new(DemandId::new(0), users(&net, 3));
        let base = route_multiparty(
            &net,
            std::slice::from_ref(&demand),
            &MultipartyConfig {
                use_alg4: false,
                ..MultipartyConfig::default()
            },
        );
        let widened = route_multiparty(&net, &[demand], &MultipartyConfig::default());
        assert!(widened.total_rate(&net) >= base.total_rate(&net) - 1e-9);
    }

    #[test]
    fn unroutable_demand_gets_zero() {
        let mut b = QuantumNetwork::builder();
        let u1 = b.user(0.0, 0.0);
        let u2 = b.user(1.0, 0.0);
        let u3 = b.user(2.0, 0.0);
        let s1 = b.switch(0.5, 0.0, 10);
        b.link(u1, s1).unwrap();
        b.link(u2, s1).unwrap();
        // u3 is isolated.
        let net = b.build();
        let demand = MultipartyDemand::new(DemandId::new(0), vec![u1, u2, u3]);
        let out = route_multiparty(&net, &[demand], &MultipartyConfig::default());
        assert!(!out.stars[0].is_complete());
        assert_eq!(out.total_rate(&net), 0.0);
    }

    #[test]
    fn star_converts_to_flow_for_simulation() {
        let net = world(7);
        let demand = MultipartyDemand::new(DemandId::new(0), users(&net, 3));
        let out = route_multiparty(&net, &[demand], &MultipartyConfig::default());
        let plan = star_as_flow(&out.stars[0]).expect("complete star converts");
        assert_eq!(plan.paths.len(), 3);
        assert!(!plan.flow.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn rejects_single_member() {
        let _ = MultipartyDemand::new(DemandId::new(0), vec![NodeId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn rejects_duplicate_members() {
        let _ = MultipartyDemand::new(DemandId::new(0), vec![NodeId::new(0), NodeId::new(0)]);
    }
}
