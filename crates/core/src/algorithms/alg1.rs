//! Algorithm 1 — Largest Entanglement Rate path at a fixed width.
//!
//! A max-product Dijkstra over the network: edges contribute their
//! width-`w` channel success `1 - (1 - p_e)^w`, transited switches
//! contribute the swap success `q`. Because every factor lies in `(0, 1]`
//! the metric is monotonically non-increasing along a path, which is the
//! correctness condition the paper sketches.
//!
//! Capacity constraints (paper lines 2 and 9): both endpoints need `w`
//! qubits, every intermediate switch needs `2w` (it pins `w` qubits on each
//! side of the fused channel pair).

use std::collections::HashSet;

use fusion_graph::{search, Metric, NodeId, Path, SearchScratch};

use crate::network::QuantumNetwork;

/// Extra constraints used by Algorithm 2's Yen deviations.
#[derive(Debug, Clone, Default)]
pub struct PathConstraints {
    /// Nodes that may not appear anywhere in the path (root-prefix nodes).
    pub banned_nodes: HashSet<NodeId>,
    /// Undirected hops that may not be used, stored normalized
    /// `(min, max)`.
    pub banned_hops: HashSet<(NodeId, NodeId)>,
}

impl PathConstraints {
    /// Normalizes an undirected hop key.
    #[must_use]
    pub fn hop_key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if u <= v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Bans the undirected hop `{u, v}`.
    pub fn ban_hop(&mut self, u: NodeId, v: NodeId) {
        self.banned_hops.insert(Self::hop_key(u, v));
    }

    /// Bans `node` from appearing in the path.
    pub fn ban_node(&mut self, node: NodeId) {
        self.banned_nodes.insert(node);
    }

    /// `true` if the undirected hop `{u, v}` is banned.
    #[must_use]
    pub fn hop_banned(&self, u: NodeId, v: NodeId) -> bool {
        self.banned_hops.contains(&Self::hop_key(u, v))
    }
}

/// Finds the width-`w` path from `source` to `dest` with the largest
/// entanglement rate, subject to per-node remaining `capacity` and the
/// deviation `constraints`.
///
/// Returns `None` when no feasible path exists. The returned metric is the
/// product of channel successes and transit swap factors; when `source` is
/// a switch (Algorithm 2 spur searches) its own swap factor is *not*
/// included — the caller accounts for it when joining segments.
///
/// The search runs in the caller's `scratch`, so a loop of queries
/// (Algorithm 2's reference Yen deviations, a multiparty hub probe)
/// reuses one arena instead of allocating per call.
///
/// # Panics
///
/// Panics if `capacity` is shorter than the node count or `width == 0`.
#[must_use]
pub fn largest_rate_path(
    scratch: &mut SearchScratch,
    net: &QuantumNetwork,
    source: NodeId,
    dest: NodeId,
    width: u32,
    capacity: &[u32],
    constraints: &PathConstraints,
) -> Option<(Path, Metric)> {
    assert!(width > 0, "width must be positive");
    assert!(
        capacity.len() >= net.node_count(),
        "capacity vector too short"
    );
    if source == dest {
        return None;
    }
    // Paper line 2: endpoints must hold at least `w` qubits.
    if capacity[source.index()] < width || capacity[dest.index()] < width {
        return None;
    }
    if constraints.banned_nodes.contains(&source) || constraints.banned_nodes.contains(&dest) {
        return None;
    }

    let q = net.swap_success();
    let best = search::max_product_resume(
        scratch,
        net.graph(),
        source,
        |from, e| {
            let to = e.other(from);
            if constraints.banned_nodes.contains(&to) || constraints.hop_banned(from, to) {
                return None;
            }
            // Entering `to` as an intermediate pins 2w qubits there; only
            // the destination gets away with w (paper line 9). Users other
            // than the destination cannot relay at all.
            if to != dest {
                if net.is_user(to) {
                    return None;
                }
                if capacity[to.index()] < 2 * width {
                    return None;
                }
            }
            Some(net.channel_success(e.id, width))
        },
        |via| {
            // Transit through a node costs one fusion; users never relay.
            net.is_switch(via).then_some(q)
        },
    )
    .finish();
    best.path_to(dest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::path_rate;

    /// Algorithm 1 on a fresh scratch.
    fn fresh(
        net: &QuantumNetwork,
        s: NodeId,
        d: NodeId,
        w: u32,
        caps: &[u32],
        cons: &PathConstraints,
    ) -> Option<(Path, Metric)> {
        largest_rate_path(&mut SearchScratch::new(), net, s, d, w, caps, cons)
    }

    /// Network of Fig. 3 flavour: two users, four switches, a short lossy
    /// route and a longer reliable route.
    ///
    /// ```text
    ///   S -- v0 -- v1 -- D        (low per-link success)
    ///    \              /
    ///     v2 ---------- v3        (high per-link success)
    /// ```
    fn two_route_net(cap: u32) -> (QuantumNetwork, Vec<NodeId>) {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let v0 = b.switch(1.0, 1.0, cap);
        let v1 = b.switch(2.0, 1.0, cap);
        let v2 = b.switch(1.0, -1.0, cap);
        let v3 = b.switch(2.0, -1.0, cap);
        let d = b.user(3.0, 0.0);
        // Short route: S-v0-v1-D ; alternative: S-v2-v3-D.
        for (u, v, len) in [
            (s, v0, 8_000.0),
            (v0, v1, 8_000.0),
            (v1, d, 8_000.0),
            (s, v2, 1_000.0),
            (v2, v3, 1_000.0),
            (v3, d, 1_000.0),
        ] {
            b.link_with_length(u, v, len).unwrap();
        }
        let net = b.build();
        (net, vec![s, v0, v1, v2, v3, d])
    }

    #[test]
    fn picks_highest_rate_route() {
        let (net, n) = two_route_net(10);
        let caps = net.capacities();
        let (path, metric) =
            fresh(&net, n[0], n[5], 1, &caps, &PathConstraints::default()).unwrap();
        assert_eq!(path.nodes(), &[n[0], n[3], n[4], n[5]], "short fibers win");
        let expect = path_rate(&net, &path, 1);
        assert!((metric.value() - expect.value()).abs() < 1e-12);
    }

    #[test]
    fn respects_banned_hop() {
        let (net, n) = two_route_net(10);
        let caps = net.capacities();
        let mut cons = PathConstraints::default();
        cons.ban_hop(n[3], n[4]);
        let (path, _) = fresh(&net, n[0], n[5], 1, &caps, &cons).unwrap();
        assert_eq!(path.nodes(), &[n[0], n[1], n[2], n[5]]);
    }

    #[test]
    fn respects_banned_node() {
        let (net, n) = two_route_net(10);
        let caps = net.capacities();
        let mut cons = PathConstraints::default();
        cons.ban_node(n[3]);
        let (path, _) = fresh(&net, n[0], n[5], 1, &caps, &cons).unwrap();
        assert!(!path.contains_node(n[3]));
    }

    #[test]
    fn intermediate_needs_double_width() {
        // Capacity 4 supports width 2 paths (2w = 4) but not width 3.
        let (net, n) = two_route_net(4);
        let caps = net.capacities();
        assert!(fresh(&net, n[0], n[5], 2, &caps, &PathConstraints::default()).is_some());
        assert!(fresh(&net, n[0], n[5], 3, &caps, &PathConstraints::default()).is_none());
    }

    #[test]
    fn endpoint_capacity_checked() {
        let (net, n) = two_route_net(10);
        let mut caps = net.capacities();
        caps[n[0].index()] = 1; // throttle the source
        assert!(fresh(&net, n[0], n[5], 2, &caps, &PathConstraints::default()).is_none());
    }

    #[test]
    fn wider_paths_have_higher_metric() {
        let (net, n) = two_route_net(10);
        let caps = net.capacities();
        let m1 = fresh(&net, n[0], n[5], 1, &caps, &PathConstraints::default())
            .unwrap()
            .1;
        let m2 = fresh(&net, n[0], n[5], 2, &caps, &PathConstraints::default())
            .unwrap()
            .1;
        assert!(m2 > m1, "width 2 must beat width 1 on the same route");
    }

    #[test]
    fn users_cannot_relay() {
        // S - u(user) - D with a switch detour; the user route is shorter
        // but forbidden.
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let mid_user = b.user(1.0, 0.0);
        let sw = b.switch(1.0, 5_000.0, 10);
        let d = b.user(2.0, 0.0);
        b.link(s, sw).unwrap();
        b.link(sw, d).unwrap();
        b.link_with_length(s, mid_user, 1.0).unwrap_err(); // user-user rejected by builder
        let net = b.build();
        let caps = net.capacities();
        let (path, _) = fresh(&net, s, d, 1, &caps, &PathConstraints::default()).unwrap();
        assert_eq!(path.nodes(), &[s, sw, d]);
    }

    #[test]
    fn disconnected_or_same_returns_none() {
        let (net, n) = two_route_net(10);
        let caps = net.capacities();
        assert!(fresh(&net, n[0], n[0], 1, &caps, &PathConstraints::default()).is_none());
        let mut cons = PathConstraints::default();
        cons.ban_node(n[1]);
        cons.ban_node(n[3]);
        assert!(fresh(&net, n[0], n[5], 1, &caps, &cons).is_none());
    }

    #[test]
    fn reused_scratch_matches_fresh_calls() {
        let (net, n) = two_route_net(10);
        let caps = net.capacities();
        let mut scratch = SearchScratch::new();
        let mut cons = PathConstraints::default();
        // A query mix that exercises bans and infeasible widths on one
        // dirty scratch.
        for (width, banned) in [(1, None), (2, Some(n[3])), (3, None), (1, Some(n[1]))] {
            cons.banned_nodes.clear();
            if let Some(b) = banned {
                cons.ban_node(b);
            }
            let reused = largest_rate_path(&mut scratch, &net, n[0], n[5], width, &caps, &cons);
            assert_eq!(
                reused,
                fresh(&net, n[0], n[5], width, &caps, &cons),
                "width {width}, banned {banned:?}"
            );
        }
    }

    #[test]
    fn metric_is_monotone_in_length() {
        // Adding a hop can never increase the metric (§IV-C correctness
        // argument).
        let (net, n) = two_route_net(10);
        let caps = net.capacities();
        let (_, direct) = fresh(&net, n[0], n[5], 1, &caps, &PathConstraints::default()).unwrap();
        let (_, to_v3) = fresh(&net, n[0], n[4], 1, &caps, &PathConstraints::default()).unwrap();
        assert!(to_v3 >= direct, "prefix metric must dominate");
    }
}
