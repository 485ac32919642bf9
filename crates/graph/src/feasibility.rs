//! Width-indexed feasibility and incrementally-maintained reachability
//! for width-descent searches.
//!
//! The paper's Algorithm 2 evaluates candidate paths for every channel
//! width from `MAX_WIDTH` down to 1. Capacity feasibility is *monotone*
//! in the width: a node that can relay (or terminate) a width-`w+1`
//! channel can always relay (terminate) a width-`w` one, because both
//! thresholds are plain `capacity >= k·width` comparisons. Stepping the
//! width down therefore only ever *grows* the feasible subgraph, and
//! reachability under it can be repaired incrementally — only the region
//! activated by the newly-feasible nodes is re-searched — instead of
//! recomputed from scratch per width.
//!
//! [`WidthFeasibility`] is the width-indexed view: per node, the largest
//! width at which it may relay and the largest width at which it may act
//! as a path endpoint. [`DescentReach`] maintains, for one fixed target
//! and a descending width, the set of nodes from which the target is
//! reachable through relay-feasible intermediates. Membership is exact,
//! so a *negative* answer is a certificate that any search toward the
//! target from that node fails — even under additional constraints
//! (banned nodes or hops only shrink the graph) — which is what lets
//! Algorithm 2 skip provably-empty searches without changing results.

use crate::graph::{NodeId, UnGraph};
use crate::stamps::StampedSet;

/// Per-node width thresholds: the largest channel width each node can
/// relay, and the largest it can terminate as a path endpoint.
///
/// The intended mapping for the paper's networks: a switch of capacity
/// `c` relays width `w` channels while `c >= 2w` (it pins `w` qubits on
/// each side of the fused pair), so its relay width is `c / 2`; its
/// endpoint width is `c`. Users never relay (relay width 0) but
/// terminate up to their capacity. The view itself is agnostic — it just
/// stores thresholds — so updated capacities are applied with
/// [`set_node`](WidthFeasibility::set_node).
///
/// # Examples
///
/// ```
/// use fusion_graph::{NodeId, WidthFeasibility};
///
/// let mut feas = WidthFeasibility::new(2);
/// feas.set_node(NodeId::new(0), 5, 10); // switch, capacity 10
/// feas.set_node(NodeId::new(1), 0, 8); // user, capacity 8
/// assert!(feas.relay_feasible(NodeId::new(0), 5));
/// assert!(!feas.relay_feasible(NodeId::new(0), 6));
/// // Monotone: feasible at w + 1 implies feasible at w.
/// assert!(feas.relay_feasible(NodeId::new(0), 4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WidthFeasibility {
    relay: Vec<u32>,
    endpoint: Vec<u32>,
}

impl WidthFeasibility {
    /// Creates a view over `n` nodes with all thresholds zero (nothing
    /// relays, nothing terminates).
    #[must_use]
    pub fn new(n: usize) -> Self {
        WidthFeasibility {
            relay: vec![0; n],
            endpoint: vec![0; n],
        }
    }

    /// Number of nodes covered by the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.relay.len()
    }

    /// `true` if the view covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.relay.is_empty()
    }

    /// Sets `node`'s thresholds — the capacity-update entry point.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn set_node(&mut self, node: NodeId, relay_width: u32, endpoint_width: u32) {
        self.relay[node.index()] = relay_width;
        self.endpoint[node.index()] = endpoint_width;
    }

    /// Largest width `node` can relay.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn relay_width(&self, node: NodeId) -> u32 {
        self.relay[node.index()]
    }

    /// `true` if `node` can relay a width-`width` channel. Monotone:
    /// feasibility at `width + 1` implies feasibility at `width`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    #[must_use]
    pub fn relay_feasible(&self, node: NodeId, width: u32) -> bool {
        self.relay[node.index()] >= width
    }

    /// `true` if `node` can terminate a width-`width` channel. Monotone
    /// like [`relay_feasible`](WidthFeasibility::relay_feasible).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn endpoint_feasible(&self, node: NodeId, width: u32) -> bool {
        self.endpoint[node.index()] >= width
    }
}

/// Reachability toward one target under a descending width, repaired
/// incrementally at each descent step.
///
/// After [`begin`](DescentReach::begin) at the starting width,
/// [`can_reach`](DescentReach::can_reach) answers "does a path from this
/// node to the target exist whose intermediate nodes are all
/// relay-feasible at the current width?" — exactly. Each
/// [`descend`](DescentReach::descend) step activates only the nodes
/// whose relay threshold crosses the new width and re-searches only the
/// region they open up; everything else is carried over, which is the
/// monotone-growth property the width descent of Algorithm 2 exploits.
///
/// The structure is reusable: `begin` resets it for a new target in
/// O(starting width) (generational sets, no per-node fill), so a
/// per-worker instance serves many demands without reallocating. A node
/// that is reached but cannot relay yet is bucketed under its relay width
/// the first time the growth sweep reaches it, and expands when the
/// descent gets there; nodes never reached cost nothing.
///
/// # Examples
///
/// ```
/// use fusion_graph::{DescentReach, NodeId, UnGraph, WidthFeasibility};
///
/// // chain: a - r - t, where r relays only width 1.
/// let mut g: UnGraph<(), ()> = UnGraph::new();
/// let a = g.add_node(());
/// let r = g.add_node(());
/// let t = g.add_node(());
/// g.add_edge(a, r, ());
/// g.add_edge(r, t, ());
/// let mut feas = WidthFeasibility::new(3);
/// feas.set_node(a, 0, 2);
/// feas.set_node(r, 1, 2);
/// feas.set_node(t, 0, 2);
///
/// let mut reach = DescentReach::default();
/// reach.begin(&g, &feas, t, 2);
/// assert!(!reach.can_reach(a), "r cannot relay width 2");
/// reach.descend(&g, &feas, 1);
/// assert!(reach.can_reach(a), "width 1 activates r");
/// ```
#[derive(Debug, Clone, Default)]
pub struct DescentReach {
    reached: StampedSet,
    expanded: StampedSet,
    /// Reached nodes that cannot relay yet, grouped by relay width; bucket
    /// `w` is drained when the descent reaches width `w`.
    buckets: Vec<Vec<NodeId>>,
    queue: Vec<NodeId>,
    width: u32,
}

impl DescentReach {
    /// Creates an empty, reusable instance.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current width of the descent.
    ///
    /// # Panics
    ///
    /// Panics if called before [`begin`](DescentReach::begin).
    #[must_use]
    pub fn width(&self) -> u32 {
        assert!(self.width > 0, "DescentReach::begin has not run");
        self.width
    }

    /// Resets the structure for `target` and computes reachability at
    /// `width` (the descent's starting, i.e. largest, width).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, `target` is out of bounds, or `feas`
    /// covers fewer nodes than `graph`.
    pub fn begin<N, E>(
        &mut self,
        graph: &UnGraph<N, E>,
        feas: &WidthFeasibility,
        target: NodeId,
        width: u32,
    ) {
        assert!(width > 0, "descent widths are positive");
        let n = graph.node_count();
        assert!(target.index() < n, "target out of bounds");
        assert!(feas.len() >= n, "feasibility view too short");
        self.reached.clear(n);
        self.expanded.clear(n);
        self.width = width;
        self.buckets.resize_with(width as usize + 1, Vec::new);
        for bucket in &mut self.buckets {
            bucket.clear();
        }

        // The target expands unconditionally: it is the path endpoint, so
        // its own relay threshold does not gate paths that end there.
        self.reached.insert(target.index());
        self.expanded.insert(target.index());
        self.queue.push(target);
        self.grow(graph, feas);
    }

    /// Steps the descent down to `width` (exactly one below the current
    /// width) and repairs reachability: only nodes whose relay threshold
    /// activates at `width`, and the region they newly connect, are
    /// visited.
    ///
    /// # Panics
    ///
    /// Panics if `width + 1` is not the current width.
    pub fn descend<N, E>(&mut self, graph: &UnGraph<N, E>, feas: &WidthFeasibility, width: u32) {
        assert!(
            width > 0 && width + 1 == self.width,
            "descend one width at a time (current {}, requested {width})",
            self.width
        );
        self.width = width;
        // Activate the reached nodes crossing the threshold (each was
        // bucketed once, when first reached, and has not expanded since);
        // the rest stay dormant until some expansion reaches them (grow()
        // checks the *current* width). The bucket's allocation is kept.
        let mut bucket = std::mem::take(&mut self.buckets[width as usize]);
        for &v in &bucket {
            self.expanded.insert(v.index());
            self.queue.push(v);
        }
        bucket.clear();
        self.buckets[width as usize] = bucket;
        self.grow(graph, feas);
    }

    /// `true` if a path from `node` to the target exists whose
    /// intermediates are all relay-feasible at the current width
    /// (`node` itself only needs to be an endpoint; endpoint capacity is
    /// not checked here). Exact — `false` certifies that no such path
    /// exists even before banned-node/hop constraints shrink the graph.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn can_reach(&self, node: NodeId) -> bool {
        self.reached.contains(node.index())
    }

    /// Growth from the queued expansion seeds. A newly reached node that
    /// cannot relay at the current width is bucketed under its relay
    /// width (relay width 0 never activates).
    fn grow<N, E>(&mut self, graph: &UnGraph<N, E>, feas: &WidthFeasibility) {
        while let Some(u) = self.queue.pop() {
            for v in graph.neighbors(u) {
                if !self.reached.insert(v.index()) {
                    continue;
                }
                if feas.relay_feasible(v, self.width) {
                    self.expanded.insert(v.index());
                    self.queue.push(v);
                } else {
                    let rw = feas.relay_width(v);
                    if rw > 0 {
                        self.buckets[rw as usize].push(v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference reachability: fresh BFS from `target`, expanding through
    /// the target and every relay-feasible node.
    fn naive_reach<N, E>(
        graph: &UnGraph<N, E>,
        feas: &WidthFeasibility,
        target: NodeId,
        width: u32,
    ) -> Vec<bool> {
        let mut reached = vec![false; graph.node_count()];
        let mut stack = vec![target];
        reached[target.index()] = true;
        while let Some(u) = stack.pop() {
            if u != target && !feas.relay_feasible(u, width) {
                continue;
            }
            for v in graph.neighbors(u) {
                if !reached[v.index()] {
                    reached[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        reached
    }

    fn switch_feas(caps: &[u32], users: &[usize]) -> WidthFeasibility {
        let mut feas = WidthFeasibility::new(caps.len());
        for (i, &c) in caps.iter().enumerate() {
            if users.contains(&i) {
                feas.set_node(NodeId::new(i), 0, c);
            } else {
                feas.set_node(NodeId::new(i), c / 2, c);
            }
        }
        feas
    }

    #[test]
    fn monotone_feasibility_invariant() {
        // Feasible at w + 1 implies feasible at w, for relays and
        // endpoints alike — the invariant the width-descent reuse rests
        // on — and capacity updates preserve it.
        let mut feas = switch_feas(&[10, 7, 0, 3], &[2]);
        for round in 0..2 {
            for i in 0..4 {
                let v = NodeId::new(i);
                for w in 1..16u32 {
                    assert!(
                        !feas.relay_feasible(v, w + 1) || feas.relay_feasible(v, w),
                        "relay monotonicity broken at node {i}, width {w}, round {round}"
                    );
                    assert!(
                        !feas.endpoint_feasible(v, w + 1) || feas.endpoint_feasible(v, w),
                        "endpoint monotonicity broken at node {i}, width {w}, round {round}"
                    );
                }
            }
            // Apply a capacity update and re-check.
            feas.set_node(NodeId::new(1), 2, 4);
            feas.set_node(NodeId::new(3), 9, 18);
        }
    }

    #[test]
    fn users_never_relay() {
        // s - u - t with a user u: t is reachable from u (u is an
        // endpoint), but not from s at any width.
        let mut g: UnGraph<(), ()> = UnGraph::new();
        let s = g.add_node(());
        let u = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, u, ());
        g.add_edge(u, t, ());
        let feas = switch_feas(&[10, 10, 10], &[1]);
        let mut reach = DescentReach::new();
        reach.begin(&g, &feas, t, 3);
        for w in (1..3u32).rev() {
            reach.descend(&g, &feas, w);
            assert!(reach.can_reach(u), "u borders t at width {w}");
            assert!(!reach.can_reach(s), "user u must not relay at width {w}");
        }
    }

    #[test]
    fn dormant_node_activates_when_reached_later() {
        // chain a - r1 - r2 - t: r1 activates at width 2, r2 only at 1.
        // At width 2, r2 blocks; descending to 1 must propagate through
        // both, reaching a — exercising the dormant-until-reached path.
        let mut g: UnGraph<(), ()> = UnGraph::new();
        let a = g.add_node(());
        let r1 = g.add_node(());
        let r2 = g.add_node(());
        let t = g.add_node(());
        g.add_edge(a, r1, ());
        g.add_edge(r1, r2, ());
        g.add_edge(r2, t, ());
        let feas = switch_feas(&[10, 4, 2, 10], &[]);
        let mut reach = DescentReach::new();
        reach.begin(&g, &feas, t, 3);
        assert!(!reach.can_reach(a));
        assert!(reach.can_reach(r2), "r2 borders t");
        reach.descend(&g, &feas, 2);
        assert!(!reach.can_reach(a), "r2 still cannot relay at width 2");
        reach.descend(&g, &feas, 1);
        assert!(reach.can_reach(r1));
        assert!(reach.can_reach(a), "width 1 opens the whole chain");
    }

    #[test]
    fn reuse_across_begins_resets_state() {
        let mut g: UnGraph<(), ()> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(a, t, ());
        let feas = switch_feas(&[10, 10, 10], &[]);
        let mut reach = DescentReach::new();
        reach.begin(&g, &feas, t, 2);
        assert!(reach.can_reach(a) && !reach.can_reach(b));
        // New target on the same instance: old reachability must vanish.
        reach.begin(&g, &feas, b, 2);
        assert!(!reach.can_reach(a) && reach.can_reach(b));
        assert_eq!(reach.width(), 2);
    }

    proptest! {
        /// Incremental descent must agree with a fresh BFS at every
        /// width, on random graphs with random capacities and user sets.
        /// One instance serves every run in turn, each with its own
        /// capacities, target and starting width, and some runs stop
        /// before width 1: whatever a run leaves bucketed must not leak
        /// into the next `begin`.
        #[test]
        fn descend_matches_fresh_bfs(
            edges in proptest::collection::vec((0usize..10, 0usize..10), 1..30),
            users in proptest::collection::vec(0usize..10, 0..3),
            runs in proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..12, 10),
                    0usize..10,
                    1u32..6,
                    1u32..6,
                ),
                1..5,
            ),
        ) {
            let mut g: UnGraph<(), ()> = UnGraph::new();
            for _ in 0..10 {
                g.add_node(());
            }
            for (u, v) in edges {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), ());
                }
            }
            let mut reach = DescentReach::new();
            for (caps, target, start_width, stop_width) in runs {
                let feas = switch_feas(&caps, &users);
                let target = NodeId::new(target);
                reach.begin(&g, &feas, target, start_width);
                for width in (stop_width.min(start_width)..=start_width).rev() {
                    if width < start_width {
                        reach.descend(&g, &feas, width);
                    }
                    let naive = naive_reach(&g, &feas, target, width);
                    for v in g.node_ids() {
                        prop_assert_eq!(
                            reach.can_reach(v),
                            naive[v.index()],
                            "node {} at width {} (target {}, start {})",
                            v.index(), width, target.index(), start_width
                        );
                    }
                }
            }
        }

        /// Reachability depends only on the reached region `R ∪ ∂R`:
        /// changing the relay feasibility of a node the view never
        /// reached (and so never bucketed) leaves every `can_reach`
        /// answer unchanged, both in a fresh BFS and in the same instance
        /// begun again on the changed capacities.
        #[test]
        fn unrecorded_nodes_cannot_change_reachability(
            edges in proptest::collection::vec((0usize..10, 0usize..10), 1..30),
            caps in proptest::collection::vec(0u32..12, 10),
            users in proptest::collection::vec(0usize..10, 0..3),
            target in 0usize..10,
            width in 1u32..6,
            new_relay in 0u32..12,
        ) {
            let mut g: UnGraph<(), ()> = UnGraph::new();
            for _ in 0..10 {
                g.add_node(());
            }
            for (u, v) in edges {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), ());
                }
            }
            let mut feas = switch_feas(&caps, &users);
            let target = NodeId::new(target);
            let mut reach = DescentReach::new();
            reach.begin(&g, &feas, target, width);
            let recorded: Vec<bool> = g.node_ids().map(|v| reach.can_reach(v)).collect();
            prop_assert!(recorded[target.index()], "the target must reach itself");
            let before = naive_reach(&g, &feas, target, width);
            prop_assert_eq!(&recorded, &before);
            for v in g.node_ids() {
                if recorded[v.index()] {
                    continue;
                }
                let saved = feas.relay_width(v);
                feas.set_node(v, new_relay, new_relay);
                let after = naive_reach(&g, &feas, target, width);
                prop_assert_eq!(
                    &before, &after,
                    "changing unrecorded node {} altered reachability", v.index()
                );
                reach.begin(&g, &feas, target, width);
                for u in g.node_ids() {
                    prop_assert_eq!(
                        reach.can_reach(u),
                        recorded[u.index()],
                        "changing unrecorded node {} altered node {}", v.index(), u.index()
                    );
                }
                feas.set_node(v, saved, saved);
            }
        }
    }
}
