//! Certificate-based validity footprints for width-descent searches.
//!
//! A width slice's raw footprint is the [`RecordedSet`] of every node
//! whose feasibility a search *read* — the whole explored region. A
//! **certificate** is the minimal subset of those reads whose *answers*
//! the search results actually depend on, split per feasibility kind:
//!
//! * for a search that returned a path `P`: the endpoint answers of
//!   `P.first()` / `P.last()` (both endpoint-checked before the search
//!   ran) and the relay answers of `P`'s intermediate nodes — plus every
//!   *blocked* read (a node observed infeasible, which pruned an edge and
//!   thereby witnessed "no better alternative" for the explored region);
//! * for a search that returned `None`: only the blocked reads — an
//!   untracked read was feasible, and a feasible answer turning
//!   *infeasible* can only shrink the explored subgraph, never resurrect
//!   a path;
//! * for a search skipped by a negative reachability answer: the relay
//!   answers of the reach view's *blocked frontier* `∂R` (every
//!   reached-but-infeasible switch) — any path into the unexplored side
//!   would have to cross it.
//!
//! **Soundness invariant: a certificate is a subset of the raw
//! `RecordedSet` footprint, and as long as no tracked `(node, kind)`
//! answer flips, re-running the construction reproduces the same bytes.**
//! The subset direction is structural (every `track_*` call also raw-
//! records). The reproduction direction rests on the max-product search's
//! total order: heap entries are `(Metric, NodeId)` tuples, so the settle
//! sequence is the descending sort of final labels — a pure function of
//! the feasible subgraph, not of heap history. Removing a feasible
//! off-path node only shrinks that subgraph pointwise, which leaves every
//! on-path label (and the last-strict-improver predecessor chain that
//! *is* the returned path) pinned; nodes never read at all were never
//! reached and stay unreachable in the re-run. Users' relay answers are
//! width-0 constants and are never tracked. `certificate_untracked_flips_
//! preserve_results` below checks the whole claim end to end against
//! fresh searches.
//!
//! Tracking is stratified by *search ordinal*: an ordinal means "first
//! search whose **result depends** on this answer", not "first search
//! that read it", so searches before an entry's ordinal are invariant
//! under a flip of that answer by the same argument as above.
//!
//! No admission path records certificates any more: the serve layer's
//! candidate cache they invalidated is gone (`docs/ARCHITECTURE.md`,
//! "Tried, measured, removed: the candidate cache"), and Algorithm 2
//! runs without a recorder. The module stays a self-contained piece of
//! this crate until its own removal (`ROADMAP.md`).

use crate::graph::NodeId;
use crate::path::Path;
use crate::stamps::RecordedSet;

/// One certificate entry: a node plus, per feasibility kind, the ordinal
/// of the first search whose result depends on that kind's answer
/// (`None` = the slice never depended on it). At least one kind is
/// `Some` — kind-free nodes are simply not in the certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertEntry {
    /// The node whose feasibility answer is witnessed.
    pub node: NodeId,
    /// First dependent search ordinal of the node's *relay* answer.
    pub relay: Option<u32>,
    /// First dependent search ordinal of the node's *endpoint* answer.
    pub endpoint: Option<u32>,
}

impl CertEntry {
    /// The smallest ordinal across the tracked kinds — the deepest log
    /// prefix guaranteed intact if *any* tracked answer here flips.
    ///
    /// # Panics
    ///
    /// Panics if neither kind is tracked (no such entry is ever emitted).
    #[must_use]
    pub fn first_ordinal(&self) -> u32 {
        self.relay
            .iter()
            .chain(self.endpoint.iter())
            .copied()
            .min()
            .expect("certificate entries track at least one kind")
    }
}

/// Records one width slice's raw reads *and* its validity certificate
/// while the width's searches run (see the module docs for the tracking
/// rules and the soundness argument).
///
/// The recorder is reusable: [`begin`](CertificateRecorder::begin) resets
/// it in O(changed) via the generation-stamp discipline.
#[derive(Debug, Clone, Default)]
pub struct CertificateRecorder {
    /// Every feasibility read, tracked or not — the classic footprint.
    /// Kept for telemetry and as the superset the certificate must stay
    /// inside of.
    raw: RecordedSet,
    /// Nodes with a tracked relay answer, ordinals parallel to
    /// `relay.members()`.
    relay: RecordedSet,
    relay_ords: Vec<u32>,
    /// Nodes with a tracked endpoint answer, ordinals parallel to
    /// `endpoint.members()`.
    endpoint: RecordedSet,
    endpoint_ords: Vec<u32>,
    /// Ordinal of the search currently issuing reads.
    current: u32,
    reach_folded: bool,
}

impl CertificateRecorder {
    /// Resets the recorder for a new width slice over `nodes` nodes.
    pub fn begin(&mut self, nodes: usize) {
        self.raw.clear(nodes);
        self.relay.clear(nodes);
        self.relay_ords.clear();
        self.endpoint.clear(nodes);
        self.endpoint_ords.clear();
        self.current = 0;
        self.reach_folded = false;
    }

    /// Sets the ordinal subsequent tracking calls are attributed to.
    pub fn set_ordinal(&mut self, ordinal: u32) {
        self.current = ordinal;
    }

    /// Records a relay-feasibility read of `v` that answered `feasible`.
    /// Tracked only when the answer *blocked* the search (`!feasible`)
    /// and can ever flip (`can_flip` — `false` for users, whose relay
    /// threshold is 0 at every capacity). Feasible relay reads become
    /// tracked later only if `v` ends up on the returned path
    /// ([`commit_success`](CertificateRecorder::commit_success)).
    #[inline]
    pub fn read_relay(&mut self, v: NodeId, feasible: bool, can_flip: bool) {
        self.raw.insert(v.index());
        if !feasible && can_flip {
            self.track_relay(v);
        }
    }

    /// Records an endpoint-feasibility read of `v` that answered
    /// `feasible`. Tracked when blocked; a feasible endpoint read becomes
    /// tracked only via [`commit_success`](CertificateRecorder::commit_success).
    #[inline]
    pub fn read_endpoint(&mut self, v: NodeId, feasible: bool) {
        self.raw.insert(v.index());
        if !feasible {
            self.track_endpoint(v);
        }
    }

    /// Commits a successful search: the returned path's endpoints carry
    /// tracked endpoint answers, its intermediates tracked relay answers
    /// — the path's own threshold reads, the positive half of the
    /// certificate.
    pub fn commit_success(&mut self, path: &Path) {
        let nodes = path.nodes();
        if let (Some(&first), Some(&last)) = (nodes.first(), nodes.last()) {
            self.track_endpoint(first);
            self.track_endpoint(last);
        }
        if nodes.len() > 2 {
            for &v in &nodes[1..nodes.len() - 1] {
                self.track_relay(v);
            }
        }
    }

    /// Folds in a negative reachability certificate's dependency set,
    /// once per width: `all` (the reach view's `R ∪ ∂R`) enters the raw
    /// footprint; `blocked_switches` (the relay-infeasible frontier `∂R`
    /// restricted to nodes whose relay answer can flip) is tracked. Later
    /// searches skipped on the same certificate depend on the same set at
    /// ordinals ≥ this one, so folding once keeps stratification sound.
    pub fn fold_reach(
        &mut self,
        all: impl Iterator<Item = NodeId>,
        blocked_switches: impl Iterator<Item = NodeId>,
    ) {
        if self.reach_folded {
            return;
        }
        self.reach_folded = true;
        for v in all {
            self.raw.insert(v.index());
        }
        for v in blocked_switches {
            self.track_relay(v);
        }
    }

    /// Number of raw reads so far this width — the classic footprint
    /// cardinality, kept for telemetry comparability.
    #[must_use]
    pub fn raw_len(&self) -> usize {
        self.raw.len()
    }

    /// Whether `v` was raw-read this width.
    #[must_use]
    pub fn raw_contains(&self, v: NodeId) -> bool {
        self.raw.contains(v.index())
    }

    fn track_relay(&mut self, v: NodeId) {
        self.raw.insert(v.index());
        if self.relay.insert(v.index()) {
            self.relay_ords.push(self.current);
        }
    }

    fn track_endpoint(&mut self, v: NodeId) {
        self.raw.insert(v.index());
        if self.endpoint.insert(v.index()) {
            self.endpoint_ords.push(self.current);
        }
    }

    /// The width's certificate, sorted by node. First-tracked ordinals
    /// win (searches issue in ordinal order, so they are first-*dependent*
    /// ordinals). The recorder stays usable; the next
    /// [`begin`](CertificateRecorder::begin) resets it.
    #[must_use]
    pub fn drain(&mut self) -> Vec<CertEntry> {
        let mut out: Vec<CertEntry> = self
            .relay
            .members()
            .iter()
            .zip(&self.relay_ords)
            .map(|(&i, &o)| CertEntry {
                node: NodeId::new(i),
                relay: Some(o),
                endpoint: None,
            })
            .collect();
        out.sort_unstable_by_key(|e| e.node);
        for (&i, &o) in self.endpoint.members().iter().zip(&self.endpoint_ords) {
            let node = NodeId::new(i);
            match out.binary_search_by_key(&node, |e| e.node) {
                Ok(at) => out[at].endpoint = Some(o),
                Err(at) => out.insert(
                    at,
                    CertEntry {
                        node,
                        relay: None,
                        endpoint: Some(o),
                    },
                ),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::{DescentReach, WidthFeasibility};
    use crate::graph::UnGraph;
    use crate::metric::Metric;
    use crate::search::{max_product_resume, SearchScratch};
    use proptest::prelude::*;

    /// The swap-success factor every switch transit pays in the harness.
    const Q: f64 = 0.9;

    fn feas_for(caps: &[u32], users: &[bool]) -> WidthFeasibility {
        let mut feas = WidthFeasibility::new(caps.len());
        for (i, &c) in caps.iter().enumerate() {
            let relay = if users[i] { 0 } else { c / 2 };
            feas.set_node(NodeId::new(i), relay, c);
        }
        feas
    }

    /// A faithful miniature of the width-descent engine's single search:
    /// endpoint checks, optional negative-reachability skip, then the
    /// relay-gated goal-directed max-product run, with every read
    /// reported to the recorder under the tracking rules above.
    #[allow(clippy::too_many_arguments)]
    fn certified_search(
        scratch: &mut SearchScratch,
        g: &UnGraph<(), f64>,
        feas: &WidthFeasibility,
        users: &[bool],
        reach: Option<&DescentReach>,
        source: NodeId,
        dest: NodeId,
        width: u32,
        mut recorder: Option<&mut CertificateRecorder>,
    ) -> Option<(Path, Metric)> {
        if source == dest {
            return None;
        }
        if let Some(r) = recorder.as_deref_mut() {
            r.read_endpoint(source, feas.endpoint_feasible(source, width));
            r.read_endpoint(dest, feas.endpoint_feasible(dest, width));
        }
        if !feas.endpoint_feasible(source, width) || !feas.endpoint_feasible(dest, width) {
            return None;
        }
        if let Some(reach) = reach {
            if !reach.can_reach(source) {
                if let Some(r) = recorder.as_deref_mut() {
                    // R ∪ ∂R is everything the view reached; ∂R is the
                    // part that could not relay at this width (the
                    // target expands unconditionally).
                    let reached: Vec<NodeId> =
                        g.node_ids().filter(|&v| reach.can_reach(v)).collect();
                    r.fold_reach(
                        reached.iter().copied(),
                        reached.iter().copied().filter(|&v| {
                            v != dest && !users[v.index()] && !feas.relay_feasible(v, width)
                        }),
                    );
                }
                return None;
            }
        }
        let result = max_product_resume(
            scratch,
            g,
            source,
            |from, e| {
                let to = e.other(from);
                if to != dest {
                    if let Some(r) = recorder.as_deref_mut() {
                        r.read_relay(to, feas.relay_feasible(to, width), !users[to.index()]);
                    }
                    if !feas.relay_feasible(to, width) {
                        return None;
                    }
                }
                Some(*e.weight)
            },
            |via| (!users[via.index()]).then_some(Q),
        )
        .run_to(dest);
        if let (Some(r), Some((p, _))) = (recorder, result.as_ref()) {
            r.commit_success(p);
        }
        result
    }

    fn build_graph(n: usize, edges: &[(usize, usize, u8)]) -> UnGraph<(), f64> {
        let mut g: UnGraph<(), f64> = UnGraph::new();
        for _ in 0..n {
            g.add_node(());
        }
        for &(u, v, p) in edges {
            if u != v && !g.contains_edge(NodeId::new(u), NodeId::new(v)) {
                #[allow(clippy::cast_lossless)]
                g.add_edge(
                    NodeId::new(u),
                    NodeId::new(v),
                    0.05 + 0.9 * (p as f64 / 255.0),
                );
            }
        }
        g
    }

    #[test]
    fn drain_merges_kinds_sorted_by_node() {
        let mut r = CertificateRecorder::default();
        r.begin(8);
        r.set_ordinal(0);
        r.read_relay(NodeId::new(5), false, true); // tracked relay @0
        r.read_relay(NodeId::new(2), true, true); // feasible: untracked
        r.read_endpoint(NodeId::new(5), false); // tracked endpoint @0
        r.set_ordinal(3);
        r.read_endpoint(NodeId::new(1), false); // tracked endpoint @3
        r.read_relay(NodeId::new(5), false, true); // re-read: first wins
        r.read_relay(NodeId::new(7), false, false); // user: never tracked
        let cert = r.drain();
        assert_eq!(
            cert,
            vec![
                CertEntry {
                    node: NodeId::new(1),
                    relay: None,
                    endpoint: Some(3)
                },
                CertEntry {
                    node: NodeId::new(5),
                    relay: Some(0),
                    endpoint: Some(0)
                },
            ]
        );
        assert_eq!(cert[0].first_ordinal(), 3);
        assert_eq!(cert[1].first_ordinal(), 0);
        assert_eq!(r.raw_len(), 4, "raw keeps every read: nodes 1, 2, 5, 7");
        assert!(r.raw_contains(NodeId::new(2)) && r.raw_contains(NodeId::new(7)));
        // begin() resets everything.
        r.begin(8);
        assert_eq!(r.raw_len(), 0);
        assert!(r.drain().is_empty());
    }

    #[test]
    fn commit_success_tracks_path_thresholds_only() {
        let mut r = CertificateRecorder::default();
        r.begin(6);
        r.read_endpoint(NodeId::new(0), true);
        r.read_endpoint(NodeId::new(3), true);
        r.read_relay(NodeId::new(1), true, true);
        r.read_relay(NodeId::new(2), true, true);
        r.read_relay(NodeId::new(4), true, true); // feasible off-path
        let path = Path::new(vec![
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
        ]);
        r.commit_success(&path);
        let cert = r.drain();
        let by_node = |n: usize| cert.iter().find(|e| e.node == NodeId::new(n));
        assert_eq!(by_node(0).unwrap().endpoint, Some(0));
        assert_eq!(by_node(0).unwrap().relay, None);
        assert_eq!(by_node(1).unwrap().relay, Some(0));
        assert_eq!(by_node(2).unwrap().relay, Some(0));
        assert_eq!(by_node(3).unwrap().endpoint, Some(0));
        assert!(
            by_node(4).is_none(),
            "feasible off-path reads are untracked"
        );
        assert!(r.raw_contains(NodeId::new(4)));
    }

    #[test]
    fn fold_reach_tracks_only_the_blocked_frontier_and_folds_once() {
        let mut r = CertificateRecorder::default();
        r.begin(10);
        r.set_ordinal(2);
        let all = [0usize, 1, 2, 3, 4].map(NodeId::new);
        let blocked = [3usize, 4].map(NodeId::new);
        r.fold_reach(all.iter().copied(), blocked.iter().copied());
        // Second fold at a later ordinal is a no-op.
        r.set_ordinal(5);
        r.fold_reach(all.iter().copied(), [NodeId::new(1)].into_iter());
        let cert = r.drain();
        assert_eq!(cert.len(), 2);
        assert!(cert
            .iter()
            .all(|e| e.relay == Some(2) && e.endpoint.is_none()));
        assert_eq!(r.raw_len(), 5, "R ∪ ∂R enters raw in full");
    }

    proptest! {
        /// The soundness invariant, end to end, on random worlds: the
        /// certificate is a subset of the raw footprint, and flipping any
        /// untracked (node, kind) answer — via a capacity delta — leaves
        /// a fresh search's result byte-identical.
        #[test]
        fn certificate_untracked_flips_preserve_results(
            edges in proptest::collection::vec((0usize..12, 0usize..12, 0u8..255), 1..40),
            caps in proptest::collection::vec(0u32..12, 12),
            user_mask in proptest::collection::vec(proptest::bool::ANY, 12),
            source in 0usize..12,
            dest in 0usize..12,
            width in 1u32..5,
            new_cap in 0u32..12,
            use_reach in proptest::bool::ANY,
        ) {
            certificate_case(
                &edges, &caps, &user_mask, source, dest, width, new_cap, use_reach,
            )?;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn certificate_case(
        edges: &[(usize, usize, u8)],
        caps: &[u32],
        user_mask: &[bool],
        source: usize,
        dest: usize,
        width: u32,
        new_cap: u32,
        use_reach: bool,
    ) -> Result<(), TestCaseError> {
        let n = caps.len();
        let g = build_graph(n, edges);
        let users = user_mask.to_vec();
        let feas = feas_for(caps, &users);
        let source = NodeId::new(source);
        let dest = NodeId::new(dest);
        let mut reach_store = DescentReach::new();
        let reach = if use_reach {
            reach_store.begin(&g, &feas, dest, width);
            Some(&reach_store)
        } else {
            None
        };

        let mut scratch = SearchScratch::with_capacity(n);
        let mut recorder = CertificateRecorder::default();
        recorder.begin(n);
        let baseline = certified_search(
            &mut scratch,
            &g,
            &feas,
            &users,
            reach,
            source,
            dest,
            width,
            Some(&mut recorder),
        );
        let cert = recorder.drain();

        // Subset invariant: every certificate node is a raw read, and
        // every entry tracks at least one kind.
        for e in &cert {
            prop_assert!(
                recorder.raw_contains(e.node),
                "certificate node {} outside the raw footprint",
                e.node.index()
            );
            prop_assert!(e.relay.is_some() || e.endpoint.is_some());
            prop_assert!(
                e.relay.is_none() || !users[e.node.index()],
                "user {} relay-tracked; user relay answers never flip",
                e.node.index()
            );
        }

        // Revalidation equivalence: for every node, apply the capacity
        // delta `caps[v] -> new_cap`; if no tracked kind of v flips its
        // answer at this width, a fresh search must return the same
        // bytes.
        let by_node = |v: NodeId| cert.iter().find(|e| e.node == v);
        for vi in 0..n {
            let v = NodeId::new(vi);
            let old = caps[vi];
            let (relay_old, relay_new) = if users[vi] {
                (0, 0)
            } else {
                (old / 2, new_cap / 2)
            };
            let entry = by_node(v);
            let relay_flips = (relay_old >= width) != (relay_new >= width);
            let endpoint_flips = (old >= width) != (new_cap >= width);
            let tracked_flip = entry.is_some_and(|e| {
                (e.relay.is_some() && relay_flips) || (e.endpoint.is_some() && endpoint_flips)
            });
            if tracked_flip {
                continue; // the certificate claims nothing here
            }
            let mut caps2 = caps.to_vec();
            caps2[vi] = new_cap;
            let feas2 = feas_for(&caps2, &users);
            let mut reach2_store = DescentReach::new();
            let reach2 = if use_reach {
                reach2_store.begin(&g, &feas2, dest, width);
                Some(&reach2_store)
            } else {
                None
            };
            let fresh = certified_search(
                &mut scratch,
                &g,
                &feas2,
                &users,
                reach2,
                source,
                dest,
                width,
                None,
            );
            prop_assert_eq!(
                &fresh,
                &baseline,
                "untracked flip at node {} ({} -> {}) changed the result",
                vi,
                old,
                new_cap
            );
        }
        Ok(())
    }
}
