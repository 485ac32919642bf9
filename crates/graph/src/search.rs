//! Graph search primitives: Dijkstra (min-sum and max-product), BFS, and
//! connected components.
//!
//! The max-product variant is the skeleton of the paper's Algorithm 1: the
//! entanglement rate of a path is a product of per-channel success
//! probabilities and per-switch swap probabilities, all in `(0, 1]`, so the
//! greedy frontier argument of Dijkstra applies with `max`/`*` in place of
//! `min`/`+`.
//!
//! [`WidthSearch`] is the flat kernel every Algorithm 2 search runs on:
//! the goal-directed [`max_product_resume`] run specialised to one
//! width's feasibility rules over an [`ArcView`], counting the same pops
//! and relaxations in the same order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fusion_telemetry::{Counter, Registry};

use crate::feasibility::WidthFeasibility;
use crate::graph::{EdgeRef, NodeId, UnGraph};
use crate::metric::Metric;
use crate::path::Path;
use crate::stamps::BanMask;

const NO_PREV: usize = usize::MAX;

/// Counter handles for the Dijkstra hot paths. Default handles are
/// no-ops; wire real ones with [`SearchCounters::from_registry`] and
/// assign to [`SearchScratch::counters`]. Counts are a pure function of
/// the searches performed, so they live in the deterministic plane.
#[derive(Debug, Clone, Default)]
pub struct SearchCounters {
    /// Heap pops that settled a node (stale entries excluded).
    pub pops: Counter,
    /// Distance-label writes: initial labels plus relaxations.
    pub relaxations: Counter,
    /// `run_to` calls that exhausted the frontier without settling the
    /// target — the searches that prove unreachability.
    pub exhaustions: Counter,
}

impl SearchCounters {
    /// Creates handles named `<prefix>.pops`, `<prefix>.relaxations`,
    /// and `<prefix>.exhaustions` in `registry`.
    #[must_use]
    pub fn from_registry(registry: &Registry, prefix: &str) -> Self {
        if !registry.is_enabled() {
            return SearchCounters::default();
        }
        SearchCounters {
            pops: registry.counter(&format!("{prefix}.pops")),
            relaxations: registry.counter(&format!("{prefix}.relaxations")),
            exhaustions: registry.counter(&format!("{prefix}.exhaustions")),
        }
    }
}

/// Reusable scratch arenas for [`dijkstra_with`] and
/// [`max_product_dijkstra_with`].
///
/// A fresh Dijkstra run needs a distance array, a predecessor array, and a
/// frontier heap — three allocations that dominate the cost of short
/// queries on large graphs (Yen's algorithm issues hundreds of them per
/// demand). A `SearchScratch` owns those buffers and resets them
/// *generationally*: each run bumps a generation counter and entries are
/// considered unset until stamped with the current generation, so reset is
/// O(1) instead of O(nodes).
///
/// One scratch serves graphs of any size (buffers grow monotonically) but
/// must not be shared across threads; give each worker its own.
///
/// # Examples
///
/// ```
/// use fusion_graph::{search::SearchScratch, search, UnGraph};
///
/// let mut g: UnGraph<(), f64> = UnGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// g.add_edge(a, b, 2.0);
///
/// let mut scratch = SearchScratch::new();
/// for _ in 0..3 {
///     let run = search::dijkstra_with(&mut scratch, &g, a, |_, w| *w);
///     assert_eq!(run.distance(b), Some(2.0));
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    dist: Vec<f64>,
    prev: Vec<usize>,
    stamps: crate::stamps::GenerationStamps,
    settled: crate::stamps::StampedSet,
    min_heap: BinaryHeap<Reverse<(Metric, NodeId)>>,
    max_heap: BinaryHeap<(Metric, NodeId)>,
    /// [`WidthSearch`]'s frontier of packed `(metric, node)` keys.
    key_heap: BinaryHeap<u128>,
    /// Telemetry handles; disabled (free) by default.
    pub counters: SearchCounters,
}

impl SearchScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for graphs of up to `nodes` nodes.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        let mut scratch = SearchScratch {
            dist: vec![0.0; nodes],
            prev: vec![NO_PREV; nodes],
            stamps: crate::stamps::GenerationStamps::with_capacity(nodes),
            settled: crate::stamps::StampedSet::default(),
            min_heap: BinaryHeap::new(),
            max_heap: BinaryHeap::new(),
            key_heap: BinaryHeap::new(),
            counters: SearchCounters::default(),
        };
        scratch.settled.clear(nodes);
        scratch
    }

    /// Starts a new run over a graph with `n` nodes: grows buffers if
    /// needed and invalidates every entry of the previous run in O(1).
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.dist.resize(n, 0.0);
            self.prev.resize(n, NO_PREV);
        }
        self.stamps.advance(n);
        self.settled.clear(n);
        self.min_heap.clear();
        self.max_heap.clear();
        self.key_heap.clear();
    }

    /// `true` if `i` has been written during the current run.
    #[inline]
    fn is_set(&self, i: usize) -> bool {
        self.stamps.is_current(i)
    }

    /// `true` if `i` was popped with its final distance during the current
    /// run — its `(dist, prev)` entry can no longer change.
    #[inline]
    fn is_settled(&self, i: usize) -> bool {
        self.settled.contains(i)
    }

    /// Writes `(dist, prev)` for node `i` in the current generation.
    #[inline]
    fn set(&mut self, i: usize, dist: f64, prev: usize) {
        self.counters.relaxations.inc();
        self.dist[i] = dist;
        self.prev[i] = prev;
        self.stamps.mark(i);
    }
}

/// Borrowed result of a scratch-backed min-sum Dijkstra run.
#[derive(Debug)]
pub struct MinSumRun<'a> {
    source: NodeId,
    scratch: &'a SearchScratch,
}

impl MinSumRun<'_> {
    /// Distance from the source to `node`, or `None` if unreachable.
    #[must_use]
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        self.scratch
            .is_set(node.index())
            .then(|| self.scratch.dist[node.index()])
    }

    /// Reconstructs the shortest path from the source to `node`.
    #[must_use]
    pub fn path_to(&self, node: NodeId) -> Option<Path> {
        if !self.scratch.is_set(node.index()) {
            return None;
        }
        walk_back(self.source, node, &self.scratch.prev)
    }

    /// The source node of this run.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }
}

/// Borrowed result of a scratch-backed max-product Dijkstra run.
#[derive(Debug)]
pub struct MaxProductRun<'a> {
    source: NodeId,
    scratch: &'a SearchScratch,
}

impl MaxProductRun<'_> {
    /// Best (largest) product metric from the source to `node`; `0.0`
    /// means unreachable.
    #[must_use]
    pub fn metric(&self, node: NodeId) -> Metric {
        if self.scratch.is_set(node.index()) {
            Metric::new(self.scratch.dist[node.index()])
        } else {
            Metric::ZERO
        }
    }

    /// Reconstructs the best path to `node` together with its metric;
    /// `None` if unreachable.
    #[must_use]
    pub fn path_to(&self, node: NodeId) -> Option<(Path, Metric)> {
        let m = self.metric(node);
        if m <= Metric::ZERO && node != self.source {
            return None;
        }
        let path = walk_back(self.source, node, &self.scratch.prev)?;
        Some((path, m))
    }
}

/// Follows predecessor links from `node` back to `source`.
fn walk_back(source: NodeId, node: NodeId, prev: &[usize]) -> Option<Path> {
    let mut nodes = vec![node];
    let mut cur = node;
    while cur != source {
        let p = prev[cur.index()];
        if p == NO_PREV {
            return None;
        }
        cur = NodeId::new(p);
        nodes.push(cur);
    }
    nodes.reverse();
    Some(Path::new(nodes))
}

/// Result of a min-sum Dijkstra run from a single source.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<Option<f64>>,
    prev: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Distance from the source to `node`, or `None` if unreachable.
    #[must_use]
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        self.dist[node.index()]
    }

    /// Reconstructs the shortest path from the source to `node`.
    #[must_use]
    pub fn path_to(&self, node: NodeId) -> Option<Path> {
        self.dist[node.index()]?;
        let mut nodes = vec![node];
        let mut cur = node;
        while cur != self.source {
            cur = self.prev[cur.index()]?;
            nodes.push(cur);
        }
        nodes.reverse();
        Some(Path::new(nodes))
    }

    /// The source node of this run.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }
}

/// Classic min-sum Dijkstra with a per-edge cost closure.
///
/// Edges for which `cost` returns a negative value are treated as unusable.
///
/// # Panics
///
/// Panics if `source` is out of bounds or if a cost is NaN.
pub fn dijkstra<N, E>(
    graph: &UnGraph<N, E>,
    source: NodeId,
    cost: impl FnMut(EdgeRef<'_, E>, &E) -> f64,
) -> ShortestPaths {
    let mut scratch = SearchScratch::with_capacity(graph.node_count());
    dijkstra_with(&mut scratch, graph, source, cost);
    let n = graph.node_count();
    let dist = (0..n)
        .map(|i| scratch.is_set(i).then(|| scratch.dist[i]))
        .collect();
    let prev = (0..n)
        .map(|i| {
            (scratch.is_set(i) && scratch.prev[i] != NO_PREV).then(|| NodeId::new(scratch.prev[i]))
        })
        .collect();
    ShortestPaths { source, dist, prev }
}

/// Scratch-backed min-sum Dijkstra: identical semantics to [`dijkstra`],
/// but all working memory comes from the caller-provided `scratch`, so a
/// loop of queries performs no per-query allocation.
///
/// # Panics
///
/// Panics if `source` is out of bounds or if a cost is NaN.
pub fn dijkstra_with<'s, N, E>(
    scratch: &'s mut SearchScratch,
    graph: &UnGraph<N, E>,
    source: NodeId,
    cost: impl FnMut(EdgeRef<'_, E>, &E) -> f64,
) -> MinSumRun<'s> {
    dijkstra_resume(scratch, graph, source, cost).finish()
}

/// A paused, goal-directed min-sum Dijkstra run (see [`dijkstra_resume`]).
#[derive(Debug)]
pub struct MinSumResume<'s, 'g, N, E, F> {
    scratch: &'s mut SearchScratch,
    graph: &'g UnGraph<N, E>,
    source: NodeId,
    cost: F,
}

/// Starts a *resumable* min-sum Dijkstra run: the search settles nodes
/// lazily, one [`MinSumResume::run_to`] target at a time, instead of
/// exhausting the whole graph up front.
///
/// The settle order, tie-breaking, and relaxation arithmetic are exactly
/// those of [`dijkstra_with`] — a paused run is the same computation
/// stopped early, so `run_to(t)` returns byte-for-byte the path that
/// `dijkstra_with(..).path_to(t)` would, while touching only the nodes
/// whose distance does not exceed `t`'s. Hot goal-directed callers (Yen
/// spur searches, Algorithm 2's width descent) use this to avoid settling
/// the far side of a large graph they will never read.
///
/// # Examples
///
/// ```
/// use fusion_graph::{search, UnGraph};
///
/// let mut g: UnGraph<(), f64> = UnGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b, 1.0);
/// g.add_edge(b, c, 3.0);
///
/// let mut scratch = search::SearchScratch::new();
/// let mut run = search::dijkstra_resume(&mut scratch, &g, a, |_, w| *w);
/// let to_b = run.run_to(b).expect("b is reachable");
/// assert_eq!(to_b.nodes(), &[a, b]);
/// // Resuming the same run reuses everything settled so far.
/// let to_c = run.run_to(c).expect("c is reachable");
/// assert_eq!(to_c.nodes(), &[a, b, c]);
/// ```
///
/// # Panics
///
/// Panics if `source` is out of bounds; `run_to` panics if a cost is NaN.
pub fn dijkstra_resume<'s, 'g, N, E, F>(
    scratch: &'s mut SearchScratch,
    graph: &'g UnGraph<N, E>,
    source: NodeId,
    cost: F,
) -> MinSumResume<'s, 'g, N, E, F>
where
    F: FnMut(EdgeRef<'_, E>, &E) -> f64,
{
    scratch.begin(graph.node_count());
    scratch.set(source.index(), 0.0, NO_PREV);
    scratch.min_heap.push(Reverse((Metric::ZERO, source)));
    MinSumResume {
        scratch,
        graph,
        source,
        cost,
    }
}

impl<'s, N, E, F> MinSumResume<'s, '_, N, E, F>
where
    F: FnMut(EdgeRef<'_, E>, &E) -> f64,
{
    /// Pops and expands frontier nodes until `target` settles (when
    /// `Some`) or the frontier is exhausted.
    fn run_until(&mut self, target: Option<NodeId>) {
        while let Some(Reverse((d, u))) = self.scratch.min_heap.pop() {
            if self.scratch.dist[u.index()] != d.value() {
                continue; // stale entry
            }
            self.scratch.counters.pops.inc();
            self.scratch.settled.insert(u.index());
            for e in self.graph.incident_edges(u) {
                let w = (self.cost)(e, e.weight);
                if w < 0.0 {
                    continue;
                }
                assert!(!w.is_nan(), "edge cost must not be NaN");
                let v = e.other(u);
                let nd = d.value() + w;
                if !self.scratch.is_set(v.index()) || nd < self.scratch.dist[v.index()] {
                    self.scratch.set(v.index(), nd, u.index());
                    self.scratch.min_heap.push(Reverse((Metric::new(nd), v)));
                }
            }
            if target == Some(u) {
                return;
            }
        }
    }

    /// Settles nodes until `target` is final and returns its shortest
    /// path, or `None` when it is unreachable. Already-settled targets
    /// (from earlier `run_to` calls on this run) return without popping
    /// anything.
    pub fn run_to(&mut self, target: NodeId) -> Option<Path> {
        if !self.scratch.is_settled(target.index()) {
            self.run_until(Some(target));
        }
        if !self.scratch.is_settled(target.index()) {
            self.scratch.counters.exhaustions.inc();
            return None; // frontier exhausted: unreachable
        }
        walk_back(self.source, target, &self.scratch.prev)
    }

    /// Runs the remainder of the search to exhaustion, yielding the same
    /// borrowed result a plain [`dijkstra_with`] call produces.
    pub fn finish(mut self) -> MinSumRun<'s> {
        self.run_until(None);
        MinSumRun {
            source: self.source,
            scratch: self.scratch,
        }
    }
}

/// Result of a max-product Dijkstra run from a single source.
#[derive(Debug, Clone)]
pub struct BestRates {
    source: NodeId,
    metric: Vec<f64>,
    prev: Vec<Option<NodeId>>,
}

impl BestRates {
    /// Best (largest) product metric from the source to `node`; `0.0` means
    /// unreachable.
    #[must_use]
    pub fn metric(&self, node: NodeId) -> Metric {
        Metric::new(self.metric[node.index()])
    }

    /// Reconstructs the best path to `node`, together with its metric.
    /// Returns `None` if `node` is unreachable.
    #[must_use]
    pub fn path_to(&self, node: NodeId) -> Option<(Path, Metric)> {
        if self.metric[node.index()] <= 0.0 && node != self.source {
            return None;
        }
        let mut nodes = vec![node];
        let mut cur = node;
        while cur != self.source {
            cur = self.prev[cur.index()]?;
            nodes.push(cur);
        }
        nodes.reverse();
        Some((Path::new(nodes), Metric::new(self.metric[node.index()])))
    }
}

/// Max-product Dijkstra: finds, for every node, the path from `source`
/// maximizing the product of edge factors and transit factors.
///
/// * `edge_factor(from, e)` — multiplicative success factor in `(0, 1]` for
///   traversing edge `e` out of node `from`; return `None` to forbid the
///   traversal (e.g. the far endpoint lacks capacity).
/// * `transit_factor(u)` — factor charged when a path passes *through*
///   non-source node `u` (i.e. when an edge leaves `u` after one entered);
///   return `None` to forbid transit through `u` (it may still be a path
///   endpoint).
///
/// The greedy argument requires all factors to lie in `(0, 1]`, which holds
/// for probabilities; factors outside that range panic.
///
/// # Panics
///
/// Panics if `source` is out of bounds or a factor is outside `(0, 1]`.
pub fn max_product_dijkstra<N, E>(
    graph: &UnGraph<N, E>,
    source: NodeId,
    edge_factor: impl FnMut(NodeId, EdgeRef<'_, E>) -> Option<f64>,
    transit_factor: impl FnMut(NodeId) -> Option<f64>,
) -> BestRates {
    let mut scratch = SearchScratch::with_capacity(graph.node_count());
    max_product_dijkstra_with(&mut scratch, graph, source, edge_factor, transit_factor);
    let n = graph.node_count();
    let metric = (0..n)
        .map(|i| {
            if scratch.is_set(i) {
                scratch.dist[i]
            } else {
                0.0
            }
        })
        .collect();
    let prev = (0..n)
        .map(|i| {
            (scratch.is_set(i) && scratch.prev[i] != NO_PREV).then(|| NodeId::new(scratch.prev[i]))
        })
        .collect();
    BestRates {
        source,
        metric,
        prev,
    }
}

/// Scratch-backed max-product Dijkstra: identical semantics to
/// [`max_product_dijkstra`], but all working memory comes from the
/// caller-provided `scratch` (Algorithm 2's Yen deviations issue hundreds
/// of these per demand).
///
/// # Panics
///
/// Panics if `source` is out of bounds or a factor is outside `(0, 1]`.
pub fn max_product_dijkstra_with<'s, N, E, FE, FT>(
    scratch: &'s mut SearchScratch,
    graph: &UnGraph<N, E>,
    source: NodeId,
    edge_factor: FE,
    transit_factor: FT,
) -> MaxProductRun<'s>
where
    FE: FnMut(NodeId, EdgeRef<'_, E>) -> Option<f64>,
    FT: FnMut(NodeId) -> Option<f64>,
{
    max_product_resume(scratch, graph, source, edge_factor, transit_factor).finish()
}

/// A paused, goal-directed max-product Dijkstra run (see
/// [`max_product_resume`]).
#[derive(Debug)]
pub struct MaxProductResume<'s, 'g, N, E, FE, FT> {
    scratch: &'s mut SearchScratch,
    graph: &'g UnGraph<N, E>,
    source: NodeId,
    edge_factor: FE,
    transit_factor: FT,
}

/// Starts a *resumable* max-product Dijkstra run: the metric counterpart
/// of [`dijkstra_resume`], settling nodes in non-increasing metric order
/// only as far as each [`MaxProductResume::run_to`] target requires.
///
/// A paused run is [`max_product_dijkstra_with`] stopped early — same
/// factor evaluations in the same order, same tie-breaking, same `f64`
/// products — so the returned `(path, metric)` for a target is identical
/// to the full run's `path_to`, at a fraction of the settle work when the
/// target's metric is far above the graph's floor.
///
/// # Panics
///
/// Panics if `source` is out of bounds; `run_to` panics if a factor is
/// outside `(0, 1]`.
pub fn max_product_resume<'s, 'g, N, E, FE, FT>(
    scratch: &'s mut SearchScratch,
    graph: &'g UnGraph<N, E>,
    source: NodeId,
    edge_factor: FE,
    transit_factor: FT,
) -> MaxProductResume<'s, 'g, N, E, FE, FT>
where
    FE: FnMut(NodeId, EdgeRef<'_, E>) -> Option<f64>,
    FT: FnMut(NodeId) -> Option<f64>,
{
    scratch.begin(graph.node_count());
    scratch.set(source.index(), 1.0, NO_PREV);
    scratch.max_heap.push((Metric::ONE, source));
    MaxProductResume {
        scratch,
        graph,
        source,
        edge_factor,
        transit_factor,
    }
}

impl<'s, N, E, FE, FT> MaxProductResume<'s, '_, N, E, FE, FT>
where
    FE: FnMut(NodeId, EdgeRef<'_, E>) -> Option<f64>,
    FT: FnMut(NodeId) -> Option<f64>,
{
    /// Pops and expands frontier nodes until `target` settles (when
    /// `Some`) or the frontier is exhausted.
    fn run_until(&mut self, target: Option<NodeId>) {
        while let Some((m, u)) = self.scratch.max_heap.pop() {
            if self.scratch.dist[u.index()] != m.value() {
                continue; // stale entry
            }
            self.scratch.counters.pops.inc();
            self.scratch.settled.insert(u.index());
            // Transit factor applies when the path continues through u;
            // a forbidden transit settles u without expanding it.
            let through = if u == self.source {
                Some(1.0)
            } else {
                (self.transit_factor)(u).inspect(|&t| {
                    assert!(
                        t > 0.0 && t <= 1.0,
                        "transit factor must be in (0,1], got {t}"
                    );
                })
            };
            if let Some(through) = through {
                for e in self.graph.incident_edges(u) {
                    let Some(f) = (self.edge_factor)(u, e) else {
                        continue;
                    };
                    assert!(f > 0.0 && f <= 1.0, "edge factor must be in (0,1], got {f}");
                    let v = e.other(u);
                    let nm = m.value() * through * f;
                    if !self.scratch.is_set(v.index()) || nm > self.scratch.dist[v.index()] {
                        self.scratch.set(v.index(), nm, u.index());
                        self.scratch.max_heap.push((Metric::new(nm), v));
                    }
                }
            }
            if target == Some(u) {
                return;
            }
        }
    }

    /// Settles nodes until `target` is final and returns its best path
    /// and metric, or `None` when it is unreachable. Already-settled
    /// targets return without popping anything.
    pub fn run_to(&mut self, target: NodeId) -> Option<(Path, Metric)> {
        if !self.scratch.is_settled(target.index()) {
            self.run_until(Some(target));
        }
        if !self.scratch.is_settled(target.index()) {
            self.scratch.counters.exhaustions.inc();
            return None; // frontier exhausted: unreachable
        }
        let m = Metric::new(self.scratch.dist[target.index()]);
        if m <= Metric::ZERO && target != self.source {
            return None;
        }
        let path = walk_back(self.source, target, &self.scratch.prev)?;
        Some((path, m))
    }

    /// Runs the remainder of the search to exhaustion, yielding the same
    /// borrowed result a plain [`max_product_dijkstra_with`] call
    /// produces.
    pub fn finish(mut self) -> MaxProductRun<'s> {
        self.run_until(None);
        MaxProductRun {
            source: self.source,
            scratch: self.scratch,
        }
    }
}

/// Flat per-graph adjacency for [`WidthSearch`]: each node's
/// `(neighbour, edge)` arcs as `u32` pairs, in
/// [`UnGraph::incident_edges`] order, so a search over the view meets
/// edges — and breaks ties — exactly as a search over the graph does.
///
/// The view depends only on the graph's structure: build it once per
/// graph and keep it.
#[derive(Debug, Clone, Default)]
pub struct ArcView {
    /// Node `v`'s arcs are `arcs[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    /// `(neighbour, edge)` per arc.
    arcs: Vec<(u32, u32)>,
    /// Edge count of the viewed graph.
    edges: usize,
}

impl ArcView {
    /// Builds the view of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if a node or edge index does not fit in `u32`.
    #[must_use]
    pub fn new<N, E>(graph: &UnGraph<N, E>) -> Self {
        let mut start = Vec::with_capacity(graph.node_count() + 1);
        let mut arcs = Vec::with_capacity(2 * graph.edge_count());
        start.push(0);
        for u in graph.node_ids() {
            arcs.extend(
                graph
                    .incident_edges(u)
                    .map(|e| (index_u32(e.other(u).index()), index_u32(e.id.index()))),
            );
            start.push(arcs.len());
        }
        ArcView {
            start,
            arcs,
            edges: graph.edge_count(),
        }
    }

    /// Number of nodes the view covers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Node `u`'s arcs.
    #[inline]
    fn arcs_of(&self, u: usize) -> &[(u32, u32)] {
        &self.arcs[self.start[u]..self.start[u + 1]]
    }
}

/// A graph index as the `u32` the [`ArcView`] and frontier keys store.
fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("graph index must fit in u32")
}

/// A stored `u32` index back as a `usize`.
#[inline]
fn index_usize(i: u32) -> usize {
    usize::try_from(i).expect("u32 index must fit in usize")
}

/// Per-edge success factors for [`WidthSearch`], by edge id. Each factor
/// is checked to lie in `(0, 1]` once, when the row is collected, so the
/// search does not re-check it on every relaxation.
///
/// # Panics
///
/// Collecting panics if a factor is outside `(0, 1]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeFactors(Vec<f64>);

impl FromIterator<f64> for EdgeFactors {
    fn from_iter<I: IntoIterator<Item = f64>>(factors: I) -> Self {
        EdgeFactors(
            factors
                .into_iter()
                .inspect(|&f| assert!(f > 0.0 && f <= 1.0, "edge factor must be in (0,1], got {f}"))
                .collect(),
        )
    }
}

/// Packs a frontier entry into one `u128` whose integer order is the
/// `(Metric, NodeId)` order of [`max_product_resume`]'s heap: the
/// metric's bits above the node index. For finite metrics `>= +0.0` the
/// IEEE-754 bit pattern read as a `u64` grows with the value (subnormals
/// included), so comparing keys compares metrics first and breaks exact
/// ties on the node, as the tuple does.
///
/// # Panics
///
/// Panics unless `metric` is finite and non-negative. `-0.0` is rejected
/// too: its sign bit would sort it above every other metric.
#[inline]
fn frontier_key(metric: f64, node: u32) -> u128 {
    assert!(
        metric.is_finite() && metric.is_sign_positive(),
        "frontier metric must be finite and non-negative, got {metric}"
    );
    (u128::from(metric.to_bits()) << 64) | u128::from(node)
}

/// Splits a [`frontier_key`] into its metric bits and node index.
#[inline]
fn split_key(key: u128) -> (u64, usize) {
    let bits = u64::try_from(key >> 64).expect("the high half fits in u64");
    let node = u32::try_from(key & u128::from(u32::MAX)).expect("the low half is masked to u32");
    (bits, index_usize(node))
}

/// One goal-directed, width-feasible max-product search: the flat kernel
/// every Algorithm 2 search (first path and Yen spur) runs on.
///
/// [`run_to`](WidthSearch::run_to) computes exactly what the generic run
/// over the graph that `arcs` views computes:
///
/// ```text
/// max_product_resume(scratch, graph, source,
///     |from, e| {
///         let to = e.other(from);
///         if to != dest && !feas.relay_feasible(to, width) { return None; }
///         if bans.step_banned(from, to, &hop_banned) { return None; }
///         Some(factors[e.id])
///     },
///     |via| transit_nodes[via].then_some(transit),
/// ).run_to(dest)
/// ```
///
/// The kernel is *count-preserving*: it settles the same nodes in the
/// same order and performs the same relaxations (same `f64` products,
/// same label writes), so it adds the same pops, relaxations and
/// exhaustions to `scratch.counters`. It drops overhead, not work:
///
/// * the frontier holds packed `u128` keys, the metric's bits above the
///   node index. For finite metrics `>= +0.0` the bits read as an
///   integer grow with the value, so the keys' integer order is the
///   generic heap's `(Metric, NodeId)` order, ties included, and every
///   push asserts that condition. A node is re-pushed only with a
///   strictly larger metric, so no two entries are equal and both heaps
///   pop the same sequence;
/// * arcs come from the flat [`ArcView`], in `incident_edges` order;
/// * edge factors are checked once per row ([`EdgeFactors`]) and
///   `transit` once per search, not once per relaxation;
/// * the ban mask, the relay gate and the transit flags are read inline,
///   not through closures;
/// * counts accumulate locally and reach the counters once per search.
///
/// `crates/graph/tests/width_search_oracle.rs` holds the kernel to the
/// generic run.
#[derive(Debug, Clone, Copy)]
pub struct WidthSearch<'a> {
    /// The searched graph's arcs.
    pub arcs: &'a ArcView,
    /// Success factor of each edge at this width.
    pub factors: &'a EdgeFactors,
    /// Nodes a path may pass through; each transit multiplies the metric
    /// by `transit`. The source always expands.
    pub transit_nodes: &'a [bool],
    /// The per-transit factor, in `(0, 1]`.
    pub transit: f64,
    /// Relay thresholds: a node other than the destination is entered
    /// only if it can relay `width`.
    pub feas: &'a WidthFeasibility,
    /// The channel width the relay gate tests.
    pub width: u32,
    /// The search's banned nodes and hop marks.
    pub bans: &'a BanMask,
}

impl WidthSearch<'_> {
    /// Settles nodes from `source` until `dest` settles and returns its
    /// best path and metric; `None` when the frontier exhausts first
    /// (counted as an exhaustion) or `dest` settles at metric 0.
    /// `hop_banned(from, to)` decides the hops whose endpoints both carry
    /// a hop mark in `bans`.
    ///
    /// # Panics
    ///
    /// Panics if `transit` is outside `(0, 1]`, if `transit_nodes`,
    /// `feas` or `bans` covers fewer nodes than `arcs`, if `factors`
    /// covers fewer edges, or if `source` or `dest` is out of bounds.
    pub fn run_to(
        &self,
        scratch: &mut SearchScratch,
        source: NodeId,
        dest: NodeId,
        hop_banned: impl Fn(NodeId, NodeId) -> bool,
    ) -> Option<(Path, Metric)> {
        let WidthSearch {
            arcs,
            factors,
            transit_nodes,
            transit,
            feas,
            width,
            bans,
        } = *self;
        assert!(
            transit > 0.0 && transit <= 1.0,
            "transit factor must be in (0,1], got {transit}"
        );
        let n = arcs.node_count();
        assert!(
            transit_nodes.len() >= n && feas.len() >= n,
            "transit flags and feasibility must cover every node"
        );
        assert!(
            factors.0.len() >= arcs.edges,
            "edge factors must cover every edge"
        );
        let (src, dst) = (source.index(), dest.index());
        assert!(src < n && dst < n, "endpoints must be nodes of the view");

        scratch.begin(n);
        let SearchScratch {
            dist,
            prev,
            stamps,
            key_heap,
            counters,
            ..
        } = scratch;
        dist[src] = 1.0;
        prev[src] = NO_PREV;
        stamps.mark(src);
        key_heap.push(frontier_key(1.0, index_u32(src)));
        let (mut pops, mut relaxations) = (0u64, 1u64);
        let mut settled = false;
        while let Some(key) = key_heap.pop() {
            let (bits, u) = split_key(key);
            if dist[u].to_bits() != bits {
                continue; // stale entry
            }
            pops += 1;
            // The source expands at factor 1; a node the path may not
            // pass through settles without expanding.
            let through = if u == src {
                Some(1.0)
            } else {
                transit_nodes[u].then_some(transit)
            };
            if let Some(through) = through {
                let base = f64::from_bits(bits) * through;
                let from = NodeId::new(u);
                for &(to, edge) in arcs.arcs_of(u) {
                    let v = index_usize(to);
                    if v != dst && !feas.relay_feasible(NodeId::new(v), width) {
                        continue;
                    }
                    if bans.step_banned(from, NodeId::new(v), &hop_banned) {
                        continue;
                    }
                    let nm = base * factors.0[index_usize(edge)];
                    if !stamps.is_current(v) || nm > dist[v] {
                        dist[v] = nm;
                        prev[v] = u;
                        stamps.mark(v);
                        relaxations += 1;
                        key_heap.push(frontier_key(nm, to));
                    }
                }
            }
            if u == dst {
                settled = true;
                break;
            }
        }
        counters.pops.add(pops);
        counters.relaxations.add(relaxations);
        if !settled {
            counters.exhaustions.inc();
            return None; // frontier exhausted: unreachable
        }
        let m = dist[dst];
        if m <= 0.0 && dest != source {
            return None;
        }
        let path = walk_back(source, dest, prev)?;
        Some((path, Metric::new(m)))
    }
}

/// Hop distances from `source` by breadth-first search; `None` = unreachable.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
#[must_use]
pub fn bfs_hops<N, E>(graph: &UnGraph<N, E>, source: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; graph.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()].expect("queued nodes have distances");
        for v in graph.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(d + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Labels every node with a connected-component index in `0..k` and returns
/// `(labels, k)`.
#[must_use]
pub fn connected_components<N, E>(graph: &UnGraph<N, E>) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let mut labels = vec![usize::MAX; n];
    let mut next = 0;
    for start in graph.node_ids() {
        if labels[start.index()] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        labels[start.index()] = next;
        while let Some(u) = stack.pop() {
            for v in graph.neighbors(u) {
                if labels[v.index()] == usize::MAX {
                    labels[v.index()] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    (labels, next)
}

/// `true` if the graph is non-empty and every node is reachable from node 0.
#[must_use]
pub fn is_connected<N, E>(graph: &UnGraph<N, E>) -> bool {
    if graph.is_empty() {
        return false;
    }
    let (_, k) = connected_components(graph);
    k == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds the weighted graph
    /// `a --1-- b --1-- d`, `a --4-- c --1-- d`.
    fn diamond() -> (UnGraph<(), f64>, [NodeId; 4]) {
        let mut g = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, d, 1.0);
        g.add_edge(a, c, 4.0);
        g.add_edge(c, d, 1.0);
        (g, [a, b, c, d])
    }

    #[test]
    fn dijkstra_finds_min_sum() {
        let (g, [a, b, _c, d]) = diamond();
        let sp = dijkstra(&g, a, |_, w| *w);
        assert_eq!(sp.distance(d), Some(2.0));
        let p = sp.path_to(d).unwrap();
        assert_eq!(p.nodes(), &[a, b, d]);
        assert_eq!(sp.source(), a);
    }

    #[test]
    fn dijkstra_negative_cost_bans_edge() {
        let (g, [a, b, c, d]) = diamond();
        // Ban the a-b edge: the only route is via c.
        let sp = dijkstra(&g, a, |e, w| {
            if (e.source, e.target) == (a, b) || (e.source, e.target) == (b, a) {
                -1.0
            } else {
                *w
            }
        });
        assert_eq!(sp.distance(d), Some(5.0));
        assert_eq!(sp.path_to(d).unwrap().nodes(), &[a, c, d]);
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let sp = dijkstra(&g, a, |_, w| *w);
        assert_eq!(sp.distance(b), None);
        assert!(sp.path_to(b).is_none());
        assert_eq!(sp.distance(a), Some(0.0));
        assert_eq!(sp.path_to(a).unwrap().nodes(), &[a]);
    }

    #[test]
    fn max_product_prefers_fewer_lossy_hops() {
        // a-b-d: 0.9 * 0.9 = 0.81 through one transit (0.5) = 0.405
        // a-d direct: 0.5
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0.9);
        g.add_edge(b, d, 0.9);
        g.add_edge(a, d, 0.5);
        let best = max_product_dijkstra(&g, a, |_, e| Some(*e.weight), |_| Some(0.5));
        assert!((best.metric(d).value() - 0.5).abs() < 1e-12);
        assert_eq!(best.path_to(d).unwrap().0.nodes(), &[a, d]);
    }

    #[test]
    fn max_product_uses_transit_when_better() {
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0.9);
        g.add_edge(b, d, 0.9);
        g.add_edge(a, d, 0.5);
        // With q = 0.9 the two-hop route wins: 0.9^3 = 0.729 > 0.5.
        let best = max_product_dijkstra(&g, a, |_, e| Some(*e.weight), |_| Some(0.9));
        assert!((best.metric(d).value() - 0.729).abs() < 1e-12);
        assert_eq!(best.path_to(d).unwrap().0.nodes(), &[a, b, d]);
    }

    #[test]
    fn max_product_forbidden_transit() {
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0.9);
        g.add_edge(b, d, 0.9);
        let best = max_product_dijkstra(&g, a, |_, e| Some(*e.weight), |_| None);
        // b is reachable as an endpoint but cannot be transited.
        assert!(best.path_to(b).is_some());
        assert!(best.path_to(d).is_none());
    }

    #[test]
    fn max_product_forbidden_edge() {
        let (g, [a, b, _c, d]) = diamond();
        let best = max_product_dijkstra(
            &g,
            a,
            |_, e| {
                let banned = (e.source == a && e.target == b) || (e.source == b && e.target == a);
                (!banned).then_some(0.9)
            },
            |_| Some(1.0),
        );
        assert_eq!(best.path_to(d).unwrap().0.nodes(), &[a, _c, d]);
    }

    #[test]
    fn bfs_hops_counts() {
        let (g, [a, b, c, d]) = diamond();
        let hops = bfs_hops(&g, a);
        assert_eq!(hops[a.index()], Some(0));
        assert_eq!(hops[b.index()], Some(1));
        assert_eq!(hops[c.index()], Some(1));
        assert_eq!(hops[d.index()], Some(2));
    }

    #[test]
    fn scratch_runs_match_fresh_runs() {
        let (g, [a, b, c, d]) = diamond();
        let mut scratch = SearchScratch::new();
        // Interleave min-sum and max-product queries on one scratch: each
        // run must be independent of whatever the previous one left behind.
        for source in [a, d, b, a, c] {
            let run = dijkstra_with(&mut scratch, &g, source, |_, w| *w);
            let fresh = dijkstra(&g, source, |_, w| *w);
            for node in [a, b, c, d] {
                assert_eq!(run.distance(node), fresh.distance(node));
                assert_eq!(run.path_to(node), fresh.path_to(node));
            }
            assert_eq!(run.source(), source);
            let run = max_product_dijkstra_with(
                &mut scratch,
                &g,
                source,
                |_, _| Some(0.9),
                |_| Some(0.5),
            );
            let fresh = max_product_dijkstra(&g, source, |_, _| Some(0.9), |_| Some(0.5));
            for node in [a, b, c, d] {
                assert_eq!(run.metric(node), fresh.metric(node));
                assert_eq!(run.path_to(node), fresh.path_to(node));
            }
        }
    }

    proptest! {
        /// A dirty reused scratch must behave exactly like a fresh
        /// allocation for every query in a random sequence.
        #[test]
        fn scratch_reuse_matches_fresh_on_random_graphs(
            edges in proptest::collection::vec((0usize..8, 0usize..8, 1u32..9), 1..24),
            sources in proptest::collection::vec(0usize..8, 1..6),
        ) {
            let mut g: UnGraph<(), f64> = UnGraph::new();
            for _ in 0..8 {
                g.add_node(());
            }
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), f64::from(w));
                }
            }
            let mut scratch = SearchScratch::new();
            for s in sources {
                let s = NodeId::new(s);
                let run = dijkstra_with(&mut scratch, &g, s, |_, w| *w);
                let fresh = dijkstra(&g, s, |_, w| *w);
                for node in g.node_ids() {
                    prop_assert_eq!(run.distance(node), fresh.distance(node));
                    prop_assert_eq!(run.path_to(node), fresh.path_to(node));
                }
            }
        }
    }

    #[test]
    fn goal_directed_min_sum_matches_full_run() {
        let (g, [a, b, c, d]) = diamond();
        let mut scratch = SearchScratch::new();
        for (source, target) in [(a, d), (d, a), (b, c), (a, a)] {
            let fresh = dijkstra(&g, source, |_, w| *w);
            let mut run = dijkstra_resume(&mut scratch, &g, source, |_, w| *w);
            assert_eq!(run.run_to(target), fresh.path_to(target));
            // A second call for the same target is answered from the
            // settled state.
            assert_eq!(run.run_to(target), fresh.path_to(target));
        }
    }

    #[test]
    fn goal_directed_stops_before_far_nodes() {
        // a --1-- b --1-- c --1-- d: running to b must not settle d.
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 1.0);
        g.add_edge(c, d, 1.0);
        let mut scratch = SearchScratch::new();
        let mut run = dijkstra_resume(&mut scratch, &g, a, |_, w| *w);
        assert!(run.run_to(b).is_some());
        assert!(run.scratch.is_settled(b.index()));
        assert!(
            !run.scratch.is_settled(d.index()),
            "running to b must leave d unsettled"
        );
        // Resuming to d settles the remainder and matches a fresh run.
        assert_eq!(run.run_to(d), dijkstra(&g, a, |_, w| *w).path_to(d));
    }

    #[test]
    fn goal_directed_unreachable_is_none_and_resumable() {
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 1.0);
        let mut scratch = SearchScratch::new();
        let mut run = dijkstra_resume(&mut scratch, &g, a, |_, w| *w);
        assert!(run.run_to(c).is_none(), "c is disconnected");
        // The exhausted run still answers reachable targets.
        assert_eq!(run.run_to(b).unwrap().nodes(), &[a, b]);
    }

    #[test]
    fn goal_directed_max_product_matches_full_run() {
        let (g, [a, b, c, d]) = diamond();
        let mut scratch = SearchScratch::new();
        for (source, target) in [(a, d), (d, a), (b, c)] {
            let fresh = max_product_dijkstra(&g, source, |_, _| Some(0.9), |_| Some(0.5));
            let mut run =
                max_product_resume(&mut scratch, &g, source, |_, _| Some(0.9), |_| Some(0.5));
            assert_eq!(run.run_to(target), fresh.path_to(target));
            assert_eq!(run.run_to(target), fresh.path_to(target));
        }
    }

    #[test]
    fn goal_directed_max_product_forbidden_transit_target() {
        // The target itself may be transit-forbidden: it still settles and
        // returns a path, exactly like the full run.
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0.9);
        g.add_edge(b, d, 0.9);
        let fresh = max_product_dijkstra(&g, a, |_, _| Some(0.9), |_| None);
        let mut scratch = SearchScratch::new();
        let mut run = max_product_resume(&mut scratch, &g, a, |_, _| Some(0.9), |_| None);
        assert_eq!(run.run_to(b), fresh.path_to(b));
        assert_eq!(run.run_to(d), fresh.path_to(d));
        assert!(run.run_to(d).is_none(), "b cannot be transited");
    }

    proptest! {
        /// On random graphs, pausing at an arbitrary sequence of targets
        /// and resuming must return exactly what a fresh exhaustive run
        /// returns for every target — min-sum and max-product alike.
        #[test]
        fn resume_matches_exhaustive_on_random_graphs(
            edges in proptest::collection::vec((0usize..9, 0usize..9, 1u32..9), 1..28),
            source in 0usize..9,
            targets in proptest::collection::vec(0usize..9, 1..5),
        ) {
            let mut g: UnGraph<(), f64> = UnGraph::new();
            for _ in 0..9 {
                g.add_node(());
            }
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), f64::from(w));
                }
            }
            let source = NodeId::new(source);
            let mut scratch = SearchScratch::new();

            let fresh = dijkstra(&g, source, |_, w| *w);
            let mut run = dijkstra_resume(&mut scratch, &g, source, |_, w| *w);
            for &t in &targets {
                prop_assert_eq!(run.run_to(NodeId::new(t)), fresh.path_to(NodeId::new(t)));
            }

            let fresh = max_product_dijkstra(
                &g,
                source,
                |_, e| Some(*e.weight / 10.0),
                |_| Some(0.7),
            );
            let mut run = max_product_resume(
                &mut scratch,
                &g,
                source,
                |_, e| Some(*e.weight / 10.0),
                |_| Some(0.7),
            );
            for &t in &targets {
                prop_assert_eq!(run.run_to(NodeId::new(t)), fresh.path_to(NodeId::new(t)));
            }
        }
    }

    #[test]
    fn frontier_keys_order_like_metric_node_pairs() {
        let metrics = [
            0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE, // smallest normal
            1e-300,
            0.5,
            0.5 + f64::EPSILON / 2.0,
            1.0 - f64::EPSILON / 2.0,
            1.0,
        ];
        let nodes = [0u32, 1, 2, 7, u32::MAX];
        let entries: Vec<(f64, u32)> = metrics
            .iter()
            .flat_map(|&m| nodes.iter().map(move |&v| (m, v)))
            .collect();
        for &(ma, va) in &entries {
            let key = frontier_key(ma, va);
            assert_eq!(split_key(key), (ma.to_bits(), index_usize(va)));
            let tuple_a = (Metric::new(ma), NodeId::new(index_usize(va)));
            for &(mb, vb) in &entries {
                let tuple_b = (Metric::new(mb), NodeId::new(index_usize(vb)));
                assert_eq!(
                    key.cmp(&frontier_key(mb, vb)),
                    tuple_a.cmp(&tuple_b),
                    "({ma:e}, {va}) vs ({mb:e}, {vb})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn frontier_key_rejects_negative_zero() {
        let _ = frontier_key(-0.0, 0);
    }

    #[test]
    #[should_panic(expected = "edge factor must be in (0,1]")]
    fn edge_factors_reject_zero() {
        let _: EdgeFactors = [0.5, 0.0].into_iter().collect();
    }

    #[test]
    fn arc_view_keeps_incident_edge_order() {
        // Parallel edges and a self-loop keep their adjacency order.
        let mut g: UnGraph<(), ()> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(c, a, ());
        g.add_edge(a, a, ());
        g.add_edge(b, a, ());
        let view = ArcView::new(&g);
        assert_eq!(view.node_count(), 3);
        for u in g.node_ids() {
            let expected: Vec<(u32, u32)> = g
                .incident_edges(u)
                .map(|e| (index_u32(e.other(u).index()), index_u32(e.id.index())))
                .collect();
            assert_eq!(view.arcs_of(u.index()), expected.as_slice());
        }
        assert_eq!(view.arcs_of(a.index()), &[(1, 0), (2, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn scratch_grows_across_graph_sizes() {
        let mut scratch = SearchScratch::with_capacity(2);
        let (big, [a, _, _, d]) = diamond();
        let run = dijkstra_with(&mut scratch, &big, a, |_, w| *w);
        assert_eq!(run.distance(d), Some(2.0));
        // A smaller graph afterwards must not see the big graph's entries.
        let mut small: UnGraph<(), f64> = UnGraph::new();
        let x = small.add_node(());
        let y = small.add_node(());
        let run = dijkstra_with(&mut scratch, &small, x, |_, w| *w);
        assert_eq!(run.distance(y), None);
    }

    #[test]
    fn components_and_connectivity() {
        let (g, _) = diamond();
        assert!(is_connected(&g));
        let mut g2: UnGraph<(), f64> = UnGraph::new();
        let a = g2.add_node(());
        let _b = g2.add_node(());
        let c = g2.add_node(());
        g2.add_edge(a, c, 1.0);
        let (labels, k) = connected_components(&g2);
        assert_eq!(k, 2);
        assert_eq!(labels[a.index()], labels[c.index()]);
        assert!(!is_connected(&g2));
        let empty: UnGraph<(), ()> = UnGraph::new();
        assert!(!is_connected(&empty));
    }
}
