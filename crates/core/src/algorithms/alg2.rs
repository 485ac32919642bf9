//! Algorithm 2 — Paths Selection: Yen's deviation structure driven by
//! Algorithm 1, producing up to `h` candidate paths per (demand, width)
//! for every width from `MAX_WIDTH` down to 1.
//!
//! Candidates are discovered with the n-fusion path metric (which is
//! decomposable and therefore Dijkstra-compatible) and scored with the
//! caller's [`SwapMode`]; capacity during selection is the *full* network
//! capacity — contention is resolved later by Algorithm 3.
//!
//! # Width-descent engine
//!
//! The default engine ([`paths_selection`]) exploits how much the widths
//! share: stepping the width down only *grows* the capacity-feasible
//! subgraph (a node relaying width `w + 1` always relays `w`), so one
//! per-demand descent carries its state across widths instead of starting
//! over per width. Concretely, per demand it
//!
//! * keeps a [`DescentReach`] view that is repaired incrementally at each
//!   width step — only the newly-feasible region is re-searched — and
//!   whose negative answers are exact certificates that let provably-empty
//!   searches be skipped before they explore the graph;
//! * runs every remaining Yen/Dijkstra query *goal-directed*: the
//!   search stops the moment the destination settles, instead of
//!   exhausting all of a 10k-switch graph for a path that only needs its
//!   near side;
//! * reuses one [`SearchScratch`] arena and per-width channel-success
//!   tables (`1 - (1 - p_e)^w` per edge, computed once per width, not
//!   once per relaxation);
//! * stamps each search's Yen bans once into a reused [`BanMask`]: the
//!   banned nodes as a list the kernel turns into labels, and hop marks
//!   that settle most edges with an array compare instead of a hash
//!   lookup.
//!
//! All four are result-preserving: the settle order, tie-breaking, and
//! `f64` arithmetic are exactly those of the per-width sweep, so the
//! output is byte-identical to [`paths_selection_reference`] — the
//! retained original implementation — which the differential harness
//! (`crates/core/tests/alg2_differential.rs`) enforces over random
//! networks, loads, seeds, and modes.
//!
//! # Search kernel
//!
//! Every search runs on [`WidthSearch`], a flat goal-directed
//! max-product kernel in `fusion_graph::search`. Its contract is
//! *count-preserving*: it settles the same nodes in the same order and
//! performs the same relaxations as the generic
//! `max_product_resume(..).run_to(dest)` with this module's edge and
//! transit rules, so every path, `f64` metric and `alg2.search.*` counter
//! is unchanged. It saves time per pop and per arc visit, not pops:
//!
//! * its heap holds packed `u128` keys, the metric's bits above the node
//!   index. For finite metrics `>= +0.0` the bits read as an integer grow
//!   with the value, so the integer order is the `(Metric, NodeId)`
//!   order, ties included, and each push asserts that condition;
//! * it walks one [`WidthArcs`] list per (demand, width) slice. The
//!   slice's first search that gets past the endpoint, ban and
//!   reachability early-outs builds it from the network's [`ArcView`]
//!   (built once per network in `DescentContext`, like the channel
//!   tables): per node, the arcs whose head can relay the width or is the
//!   demand's destination, with the width's channel factor copied in, in
//!   `incident_edges` order. The relay gate depends only on the head, the
//!   width and the destination, so applying it once per slice drops
//!   exactly the arcs each search would skip and keeps the rest in order:
//!   every relaxation, parallel edges included, is unchanged. One buffer
//!   in `DescentState` is rebuilt in place for every slice, so widths the
//!   reach view skips, and arrivals rejected before any search, build
//!   nothing;
//! * banned nodes are labels: before each search the kernel labels them
//!   above every metric (metrics never exceed 1) and stamps them
//!   current, so its `nm > dist[v]` test rejects them exactly where a ban
//!   check would, without a per-arc ban load. Pre-labels are not
//!   relaxations and banned nodes are never pushed, so the counts stay;
//! * channel rows are checked in `(0, 1]` once, when built, and `q` once
//!   per search; hop marks and switch flags are read inline.
//!
//! `crates/graph/tests/width_search_oracle.rs` holds the kernel to the
//! generic run, counts included.

use std::collections::HashSet;

use fusion_graph::{
    ArcView, BanMask, DescentReach, EdgeFactors, Metric, NodeId, Path, SearchCounters,
    SearchScratch, WidthArcs, WidthFeasibility, WidthSearch,
};
use fusion_telemetry::{Counter, Registry};

use crate::algorithms::alg1::{largest_rate_path, PathConstraints};
use crate::demand::{Demand, DemandId};
use crate::flow::WidthedPath;
use crate::metrics::path_rate;
use crate::network::QuantumNetwork;
use crate::plan::SwapMode;

/// One candidate route emitted by Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePath {
    /// The demand this candidate serves.
    pub demand: DemandId,
    /// The loopless route.
    pub path: Path,
    /// Uniform channel width.
    pub width: u32,
    /// Mode-dependent success score used for Algorithm 3's ordering.
    pub metric: Metric,
}

/// Runs Algorithm 2 for every demand: for each width from
/// `query.max_width` down to 1, finds up to `query.h` highest-rate
/// loopless paths via Yen deviations over Algorithm 1, scored with
/// `query.mode`.
///
/// `capacity` is the per-node qubit budget used for feasibility during
/// selection (the paper uses the full capacity here; B1 passes its running
/// remainder).
///
/// This is a [`SelectionEngine`] used once: one context refresh for
/// `capacity`, then the width descent per demand (see the module docs).
/// With `threads > 1` the demands are sharded round-robin over that many
/// workers: worker 0 runs on the engine's own state, and every extra
/// worker borrows the same read-only context with its own descent state.
/// Every demand is evaluated against the same `capacity` (contention is
/// resolved later by Algorithm 3), so demands are independent and the
/// output is byte-identical for any thread count — and to
/// [`paths_selection_reference`].
///
/// Search and selection counters record into `registry` (under
/// `alg2.*`); pass [`Registry::disabled`] to record nothing. Counters
/// never influence the output, and their totals do not depend on
/// `threads`: each demand's counts are a pure function of that demand's
/// search, and atomic adds commute.
///
/// # Panics
///
/// Panics if `query.h == 0`, `query.max_width == 0`, `threads == 0`, or
/// `capacity` is shorter than the node count.
#[must_use]
pub fn paths_selection(
    net: &QuantumNetwork,
    demands: &[Demand],
    capacity: &[u32],
    query: SelectionQuery,
    threads: usize,
    registry: &Registry,
) -> Vec<CandidatePath> {
    assert!(threads > 0, "need at least one worker");
    let SelectionQuery { h, max_width, mode } = query;
    let mut engine = SelectionEngine {
        ctx: DescentContext::default(),
        state: DescentState::with_registry(net.node_count(), registry),
    };
    engine.prepare(net, capacity, query);
    let SelectionEngine { ctx, state } = &mut engine;
    let ctx = &*ctx;
    let select = |demand: &Demand, state: &mut DescentState| {
        demand_candidates(net, demand, h, max_width, mode, ctx, state)
    };
    if threads == 1 || demands.len() <= 1 {
        let per_demand = demands.iter().map(|d| select(d, state)).collect();
        return assemble_width_major(per_demand, max_width);
    }

    // Worker `t` takes demands `t, t + threads, ...`.
    let shard = |t: usize, state: &mut DescentState| -> Vec<(usize, Vec<Vec<CandidatePath>>)> {
        demands
            .iter()
            .enumerate()
            .skip(t)
            .step_by(threads)
            .map(|(di, d)| (di, select(d, state)))
            .collect()
    };
    let mut per_demand = vec![Vec::new(); demands.len()];
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (1..threads.min(demands.len()))
            .map(|t| {
                scope.spawn(move |_| {
                    shard(
                        t,
                        &mut DescentState::with_registry(net.node_count(), registry),
                    )
                })
            })
            .collect();
        let own = shard(0, state);
        let joined = handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("selection workers must not panic"));
        for (di, cands) in own.into_iter().chain(joined) {
            per_demand[di] = cands;
        }
    })
    .expect("selection scope must not panic");
    assemble_width_major(per_demand, max_width)
}

/// Read-only width-descent context shared by every demand (and every
/// worker): the width-indexed feasibility view over the caller's capacity
/// vector, per-width channel-success tables, and the network's arc view
/// and switch flags, from which each slice's [`WidthArcs`] and
/// [`WidthSearch`] are set up.
#[derive(Debug, Clone, Default)]
struct DescentContext {
    feas: WidthFeasibility,
    /// `channel[w - 1][e] = net.channel_success(e, w)` — the same
    /// expression Algorithm 1 evaluates inline, computed (and checked to
    /// lie in `(0, 1]`) once per (width, edge) instead of once per
    /// relaxation.
    channel: Vec<EdgeFactors>,
    /// The network graph's arcs, in `incident_edges` order: the source
    /// of every slice's arc list.
    arcs: ArcView,
    /// `switches[v] = net.is_switch(v)`: the nodes a path may pass
    /// through.
    switches: Vec<bool>,
}

impl DescentContext {
    /// Rebuilds the feasibility view for `capacity` and extends the
    /// channel tables to cover `max_width`. Channel success, the arc view
    /// and the switch flags depend only on the immutable network, so they
    /// are built once and kept — a persistent [`SelectionEngine`] pays
    /// for them once, not once per admission.
    fn refresh(&mut self, net: &QuantumNetwork, capacity: &[u32], max_width: u32) {
        if self.feas.len() != net.node_count() {
            self.feas = WidthFeasibility::new(net.node_count());
        }
        if self.arcs.node_count() != net.node_count() {
            self.arcs = ArcView::new(net.graph());
            self.switches = net.graph().node_ids().map(|v| net.is_switch(v)).collect();
        }
        for v in net.graph().node_ids() {
            // Paper line 9: an intermediate switch pins 2w qubits, so it
            // relays width cap / 2; users never relay. Endpoints need w.
            let cap = capacity[v.index()];
            let relay = if net.is_switch(v) { cap / 2 } else { 0 };
            self.feas.set_node(v, relay, cap);
        }
        for w in (self.channel.len() as u32 + 1)..=max_width {
            self.channel.push(
                net.graph()
                    .edge_ids()
                    .map(|e| net.channel_success(e, w))
                    .collect(),
            );
        }
    }
}

/// Counter handles for the width-descent engine's decision points.
/// Default handles are no-ops; wire real ones with
/// [`SelectionCounters::from_registry`]. Every count is a deterministic
/// function of the selection inputs, independent of worker sharding.
#[derive(Debug, Clone, Default)]
pub struct SelectionCounters {
    /// Searches skipped outright by the reachability certificate.
    pub reach_skips: Counter,
    /// Yen spur searches launched from deviation points.
    pub spur_searches: Counter,
    /// Width slices built.
    pub widths_searched: Counter,
}

impl SelectionCounters {
    /// Creates handles named `alg2.reach_skips`, `alg2.spur_searches`,
    /// and `alg2.widths_searched` in `registry`.
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return SelectionCounters::default();
        }
        SelectionCounters {
            reach_skips: registry.counter("alg2.reach_skips"),
            spur_searches: registry.counter("alg2.spur_searches"),
            widths_searched: registry.counter("alg2.widths_searched"),
        }
    }
}

/// Per-worker mutable width-descent state, reused across demands.
#[derive(Debug, Clone, Default)]
struct DescentState {
    scratch: SearchScratch,
    reach: DescentReach,
    /// The current width slice's arc list: one buffer, rebuilt on each
    /// slice's first search and reused across slices, demands and calls.
    slice_arcs: WidthArcs,
    /// `true` once `slice_arcs` holds the current slice's list.
    slice_built: bool,
    /// The current search's bans, stamped from its [`PathConstraints`].
    bans: BanMask,
    counters: SelectionCounters,
}

impl DescentState {
    /// A state whose search and selection counters record into
    /// `registry`. Counter handles are shared atomics, so states cloned
    /// or rebuilt from the same registry accumulate into the same cells
    /// regardless of worker sharding.
    fn with_registry(nodes: usize, registry: &Registry) -> Self {
        let mut scratch = SearchScratch::with_capacity(nodes);
        scratch.counters = SearchCounters::from_registry(registry, "alg2.search");
        DescentState {
            scratch,
            reach: DescentReach::new(),
            slice_arcs: WidthArcs::new(),
            slice_built: false,
            bans: BanMask::new(),
            counters: SelectionCounters::from_registry(registry),
        }
    }
}

/// One demand's candidates, grouped per width in descending-width order
/// (`out[i]` holds width `max_width - i`): the width-descent engine.
fn demand_candidates(
    net: &QuantumNetwork,
    demand: &Demand,
    h: usize,
    max_width: u32,
    mode: SwapMode,
    ctx: &DescentContext,
    state: &mut DescentState,
) -> Vec<Vec<CandidatePath>> {
    state
        .reach
        .begin(net.graph(), &ctx.feas, demand.dest, max_width);
    (1..=max_width)
        .rev()
        .map(|width| {
            if width < max_width {
                state.reach.descend(net.graph(), &ctx.feas, width);
            }
            width_candidates(net, demand, h, width, mode, ctx, state)
        })
        .collect()
}

/// One width's candidates under the descent state: Yen over Algorithm 1,
/// filtered and scored with the caller's mode.
fn width_candidates(
    net: &QuantumNetwork,
    demand: &Demand,
    h: usize,
    width: u32,
    mode: SwapMode,
    ctx: &DescentContext,
    state: &mut DescentState,
) -> Vec<CandidatePath> {
    state.counters.widths_searched.inc();
    state.slice_built = false;
    k_best_paths_descent(net, demand, h, width, ctx, state)
        .into_iter()
        .filter_map(|path| {
            let wp = WidthedPath::uniform(path, width);
            let metric = mode.score(net, &wp);
            if metric > Metric::ZERO {
                Some(CandidatePath {
                    demand: demand.id,
                    path: wp.path,
                    width,
                    metric,
                })
            } else {
                None
            }
        })
        .collect()
}

/// Flattens per-demand, per-width candidate groups into the pipeline's
/// canonical order: width-major (descending), demand order within a width.
fn assemble_width_major(
    per_demand: Vec<Vec<Vec<CandidatePath>>>,
    max_width: u32,
) -> Vec<CandidatePath> {
    let mut per_demand = per_demand;
    let mut out = Vec::new();
    for wi in 0..max_width as usize {
        for groups in &mut per_demand {
            out.append(&mut groups[wi]);
        }
    }
    out
}

/// Stamps `constraints` into `bans` for a graph of `n` nodes: every
/// banned node, and both endpoints of every banned hop.
fn stamp_bans(bans: &mut BanMask, constraints: &PathConstraints, n: usize) {
    bans.begin(n);
    for &v in &constraints.banned_nodes {
        bans.ban_node(v);
    }
    for &(u, v) in &constraints.banned_hops {
        bans.mark_hop(u, v);
    }
}

/// Width-`width` largest-rate search from `source` to the demand's
/// destination under the descent state: preconditions and feasibility
/// rules are exactly those of [`largest_rate_path`] (the width view
/// encodes them — `endpoint_feasible` is `capacity >= w`,
/// `relay_feasible` is "switch with `capacity >= 2w`"), but the search
/// runs on the [`WidthSearch`] kernel — goal-directed (it stops when the
/// destination settles), over the slice's [`WidthArcs`], built on the
/// slice's first search that gets past the early-outs, with bans from
/// the stamped [`BanMask`] — and is skipped outright when the
/// reachability view certifies it cannot succeed.
fn descent_search(
    net: &QuantumNetwork,
    source: NodeId,
    dest: NodeId,
    width: u32,
    constraints: &PathConstraints,
    ctx: &DescentContext,
    state: &mut DescentState,
) -> Option<(Path, Metric)> {
    debug_assert_eq!(state.reach.width(), width, "descent out of step");
    if source == dest {
        return None;
    }
    let DescentState {
        scratch,
        reach,
        slice_arcs,
        slice_built,
        bans,
        counters,
    } = state;
    // Paper line 2: endpoints must hold at least `w` qubits.
    if !ctx.feas.endpoint_feasible(source, width) || !ctx.feas.endpoint_feasible(dest, width) {
        return None;
    }
    if constraints.banned_nodes.contains(&source) || constraints.banned_nodes.contains(&dest) {
        return None;
    }
    // Monotone-feasibility certificate: banned nodes and hops only shrink
    // the graph, so an unreachable destination here is unreachable in the
    // constrained search too — skip it without exploring anything.
    if !reach.can_reach(source) {
        counters.reach_skips.inc();
        return None;
    }

    // Entering a node as an intermediate pins 2w qubits there; only the
    // destination gets away with w (paper line 9), which is the slice
    // list's relay gate. Transit through a switch costs one fusion, at
    // `q`; users never relay.
    if !*slice_built {
        slice_arcs.build(
            &ctx.arcs,
            &ctx.channel[(width - 1) as usize],
            &ctx.feas,
            width,
            dest,
        );
        *slice_built = true;
    }
    stamp_bans(bans, constraints, net.node_count());
    WidthSearch {
        arcs: slice_arcs,
        transit_nodes: &ctx.switches,
        transit: net.swap_success(),
        bans,
    }
    .run_to(scratch, source, dest, |from, to| {
        constraints.hop_banned(from, to)
    })
}

/// Yen's algorithm over Algorithm 1 for one demand at one width, driven
/// by the width-descent search. The deviation structure is identical to
/// [`k_best_paths`]; only how each underlying query is answered differs.
fn k_best_paths_descent(
    net: &QuantumNetwork,
    demand: &Demand,
    h: usize,
    width: u32,
    ctx: &DescentContext,
    state: &mut DescentState,
) -> Vec<Path> {
    let base = PathConstraints::default();
    let Some((first, metric)) =
        descent_search(net, demand.source, demand.dest, width, &base, ctx, state)
    else {
        return Vec::new();
    };

    // Pending deviation: discovery metric, path, and the banned hops
    // inherited along its deviation branch — the paper's E'.
    type Pending = (Metric, Path, HashSet<(NodeId, NodeId)>);
    let mut accepted: Vec<(Path, Metric)> = Vec::new();
    let mut queue: Vec<Pending> = vec![(metric, first, HashSet::new())];
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();

    while accepted.len() < h {
        // Pop the best pending candidate (deterministic tie-break on the
        // node sequence).
        let Some(best_idx) = queue
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.0.cmp(&b.0).then_with(|| b.1.nodes().cmp(a.1.nodes())))
            .map(|(i, _)| i)
        else {
            break;
        };
        let (_, path, banned) = queue.swap_remove(best_idx);
        if !seen.insert(path.nodes().to_vec()) {
            continue;
        }
        accepted.push((path.clone(), Metric::ZERO));
        if accepted.len() >= h {
            break;
        }

        // Deviations at every hop of the newly accepted path.
        for i in 0..path.hops() {
            let spur_node = path.nodes()[i];
            let root = path.prefix(i);

            // The paper's tuples carry E' and extend it with the deviated
            // edge e; the accepted-path bans below are recomputed per
            // deviation (classic Yen) and not inherited.
            let mut inherited = banned.clone();
            inherited.insert(PathConstraints::hop_key(
                path.nodes()[i],
                path.nodes()[i + 1],
            ));

            let mut cons = PathConstraints {
                banned_hops: inherited.clone(),
                ..Default::default()
            };
            // Classic Yen: also ban the next hop of every accepted path
            // sharing this root, so deviations cannot regenerate them.
            for (acc, _) in &accepted {
                if acc.len() > i + 1 && acc.nodes()[..=i] == *root.nodes() {
                    cons.ban_hop(acc.nodes()[i], acc.nodes()[i + 1]);
                }
            }
            for &n in &root.nodes()[..i] {
                cons.ban_node(n);
            }

            state.counters.spur_searches.inc();
            let Some((spur, _)) =
                descent_search(net, spur_node, demand.dest, width, &cons, ctx, state)
            else {
                continue;
            };
            let combined = root.join(&spur);
            if seen.contains(combined.nodes()) {
                continue;
            }
            if queue.iter().any(|(_, p, _)| p == &combined) {
                continue;
            }
            // Score the whole deviation with the discovery metric.
            let m = path_rate(net, &combined, width);
            if m == Metric::ZERO {
                continue;
            }
            queue.push((m, combined, inherited));
        }

        // Paper line 14: bound the frontier to h outstanding paths.
        while queue.len() + accepted.len() > h {
            let Some(worst_idx) = queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.cmp(&b.0).then_with(|| b.1.nodes().cmp(a.1.nodes())))
                .map(|(i, _)| i)
            else {
                break;
            };
            queue.swap_remove(worst_idx);
        }
    }
    accepted.into_iter().map(|(p, _)| p).collect()
}

/// The per-call knobs of Algorithm 2 ([`paths_selection`] and
/// [`SelectionEngine::select_demand`]): the candidate budget, the width
/// bound the descent starts from, and the swap mode scoring candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionQuery {
    /// Candidate paths per (demand, width) — Algorithm 2's `h`.
    pub h: usize,
    /// Largest channel width the descent starts from.
    pub max_width: u32,
    /// Swap mode scoring the candidates.
    pub mode: SwapMode,
}

/// A persistent width-descent engine for callers that route demands one
/// at a time against changing capacity vectors — the serve layer's
/// admission path.
///
/// [`paths_selection`] builds an engine per call: the feasibility view,
/// the per-width channel-success tables, the search arena and the
/// reachability view. A kept engine holds all of them between calls, so
/// an admission pays only the O(n) feasibility refresh for its capacity
/// vector plus its own searches; channel tables are extended on demand
/// and never rebuilt.
///
/// Each call runs exactly the code path of [`paths_selection`], so its
/// output equals the single-demand [`paths_selection`] result against the
/// same capacity vector, byte for byte.
#[derive(Debug, Clone, Default)]
pub struct SelectionEngine {
    ctx: DescentContext,
    state: DescentState,
}

impl SelectionEngine {
    /// Creates an empty engine. An engine must only ever be used with
    /// one network instance (channel-success tables are memoized), but
    /// capacity vectors may change freely between calls.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes this engine's search and selection counters into
    /// `registry` (under `alg2.*`). Call once after construction; a
    /// disabled registry restores free no-op handles.
    pub fn set_registry(&mut self, registry: &Registry) {
        self.state.scratch.counters = SearchCounters::from_registry(registry, "alg2.search");
        self.state.counters = SelectionCounters::from_registry(registry);
    }

    /// Checks `query` and `capacity` and refreshes the context for
    /// `capacity`.
    fn prepare(&mut self, net: &QuantumNetwork, capacity: &[u32], query: SelectionQuery) {
        assert!(query.h > 0, "need at least one candidate per width");
        assert!(query.max_width > 0, "max width must be positive");
        assert!(
            capacity.len() >= net.node_count(),
            "capacity vector too short"
        );
        self.ctx.refresh(net, capacity, query.max_width);
    }

    /// Runs the width descent for one demand against `capacity` and
    /// returns its candidates in the pipeline's canonical order
    /// (descending width) — the same output as
    /// `paths_selection(net, &[*demand], capacity, query, 1, registry)`.
    ///
    /// # Panics
    ///
    /// Panics if `query.h == 0`, `query.max_width == 0`, or `capacity`
    /// is shorter than the node count.
    pub fn select_demand(
        &mut self,
        net: &QuantumNetwork,
        demand: &Demand,
        capacity: &[u32],
        query: SelectionQuery,
    ) -> Vec<CandidatePath> {
        self.prepare(net, capacity, query);
        let SelectionQuery { h, max_width, mode } = query;
        let SelectionEngine { ctx, state } = self;
        demand_candidates(net, demand, h, max_width, mode, ctx, state)
            .into_iter()
            .flatten()
            .collect()
    }
}

/// The original per-width sweep, retained verbatim as the differential
/// oracle for the width-descent engine: every width runs an independent
/// exhaustive Yen/Dijkstra search. Same contract and output as
/// [`paths_selection`], at the cost the width descent exists to avoid.
///
/// # Panics
///
/// Panics if `h == 0` or `max_width == 0`.
#[must_use]
pub fn paths_selection_reference(
    net: &QuantumNetwork,
    demands: &[Demand],
    capacity: &[u32],
    h: usize,
    max_width: u32,
    mode: SwapMode,
) -> Vec<CandidatePath> {
    assert!(h > 0, "need at least one candidate per width");
    assert!(max_width > 0, "max width must be positive");
    let mut scratch = SearchScratch::with_capacity(net.node_count());
    let per_demand: Vec<Vec<Vec<CandidatePath>>> = demands
        .iter()
        .map(|d| demand_candidates_reference(net, d, capacity, h, max_width, mode, &mut scratch))
        .collect();
    assemble_width_major(per_demand, max_width)
}

/// One demand's candidates under the reference per-width sweep.
fn demand_candidates_reference(
    net: &QuantumNetwork,
    demand: &Demand,
    capacity: &[u32],
    h: usize,
    max_width: u32,
    mode: SwapMode,
    scratch: &mut SearchScratch,
) -> Vec<Vec<CandidatePath>> {
    (1..=max_width)
        .rev()
        .map(|width| {
            k_best_paths(net, demand, capacity, h, width, scratch)
                .into_iter()
                .filter_map(|path| {
                    let wp = WidthedPath::uniform(path.clone(), width);
                    let metric = mode.score(net, &wp);
                    (metric > Metric::ZERO).then_some(CandidatePath {
                        demand: demand.id,
                        path,
                        width,
                        metric,
                    })
                })
                .collect()
        })
        .collect()
}

/// Yen's algorithm over Algorithm 1 for one demand at one width — the
/// reference formulation with exhaustive per-query searches.
fn k_best_paths(
    net: &QuantumNetwork,
    demand: &Demand,
    capacity: &[u32],
    h: usize,
    width: u32,
    scratch: &mut SearchScratch,
) -> Vec<Path> {
    let base = PathConstraints::default();
    let Some((first, metric)) = largest_rate_path(
        scratch,
        net,
        demand.source,
        demand.dest,
        width,
        capacity,
        &base,
    ) else {
        return Vec::new();
    };

    // Pending deviation: discovery metric, path, and the banned hops
    // inherited along its deviation branch — the paper's E'.
    type Pending = (Metric, Path, HashSet<(NodeId, NodeId)>);
    let mut accepted: Vec<(Path, Metric)> = Vec::new();
    let mut queue: Vec<Pending> = vec![(metric, first, HashSet::new())];
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();

    while accepted.len() < h {
        // Pop the best pending candidate (deterministic tie-break on the
        // node sequence).
        let Some(best_idx) = queue
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.0.cmp(&b.0).then_with(|| b.1.nodes().cmp(a.1.nodes())))
            .map(|(i, _)| i)
        else {
            break;
        };
        let (_, path, banned) = queue.swap_remove(best_idx);
        if !seen.insert(path.nodes().to_vec()) {
            continue;
        }
        accepted.push((path.clone(), Metric::ZERO));
        if accepted.len() >= h {
            break;
        }

        // Deviations at every hop of the newly accepted path.
        for i in 0..path.hops() {
            let spur_node = path.nodes()[i];
            let root = path.prefix(i);

            // The paper's tuples carry E' and extend it with the deviated
            // edge e; the accepted-path bans below are recomputed per
            // deviation (classic Yen) and not inherited.
            let mut inherited = banned.clone();
            inherited.insert(PathConstraints::hop_key(
                path.nodes()[i],
                path.nodes()[i + 1],
            ));

            let mut cons = PathConstraints {
                banned_hops: inherited.clone(),
                ..Default::default()
            };
            // Classic Yen: also ban the next hop of every accepted path
            // sharing this root, so deviations cannot regenerate them.
            for (acc, _) in &accepted {
                if acc.len() > i + 1 && acc.nodes()[..=i] == *root.nodes() {
                    cons.ban_hop(acc.nodes()[i], acc.nodes()[i + 1]);
                }
            }
            for &n in &root.nodes()[..i] {
                cons.ban_node(n);
            }

            let Some((spur, _)) =
                largest_rate_path(scratch, net, spur_node, demand.dest, width, capacity, &cons)
            else {
                continue;
            };
            let combined = root.join(&spur);
            if seen.contains(combined.nodes()) {
                continue;
            }
            if queue.iter().any(|(_, p, _)| p == &combined) {
                continue;
            }
            // Score the whole deviation with the discovery metric.
            let m = path_rate(net, &combined, width);
            if m == Metric::ZERO {
                continue;
            }
            queue.push((m, combined, inherited));
        }

        // Paper line 14: bound the frontier to h outstanding paths.
        while queue.len() + accepted.len() > h {
            let Some(worst_idx) = queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.cmp(&b.0).then_with(|| b.1.nodes().cmp(a.1.nodes())))
                .map(|(i, _)| i)
            else {
                break;
            };
            queue.swap_remove(worst_idx);
        }
    }
    accepted.into_iter().map(|(p, _)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandId;

    /// Serial, uncounted [`paths_selection`].
    fn select(
        net: &QuantumNetwork,
        demands: &[Demand],
        capacity: &[u32],
        h: usize,
        max_width: u32,
        mode: SwapMode,
    ) -> Vec<CandidatePath> {
        let query = SelectionQuery { h, max_width, mode };
        paths_selection(net, demands, capacity, query, 1, &Registry::disabled())
    }

    /// Three disjoint routes of increasing length between one user pair.
    fn triple_route() -> (QuantumNetwork, Demand, Vec<NodeId>) {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let d = b.user(10.0, 0.0);
        let a = b.switch(1.0, 1.0, 10);
        let x1 = b.switch(1.0, 0.0, 10);
        let x2 = b.switch(2.0, 0.0, 10);
        let y1 = b.switch(1.0, -1.0, 10);
        let y2 = b.switch(2.0, -1.0, 10);
        let y3 = b.switch(3.0, -1.0, 10);
        for (u, v, len) in [
            // Route A: 2 hops through `a`.
            (s, a, 1_000.0),
            (a, d, 1_000.0),
            // Route B: 3 hops.
            (s, x1, 1_000.0),
            (x1, x2, 1_000.0),
            (x2, d, 1_000.0),
            // Route C: 4 hops.
            (s, y1, 1_000.0),
            (y1, y2, 1_000.0),
            (y2, y3, 1_000.0),
            (y3, d, 1_000.0),
        ] {
            b.link_with_length(u, v, len).unwrap();
        }
        let mut net = b.build();
        net.set_swap_success(0.9);
        let demand = Demand::new(DemandId::new(0), s, d);
        (net, demand, vec![s, d, a, x1, x2, y1, y2, y3])
    }

    #[test]
    fn finds_k_paths_in_rate_order() {
        let (net, demand, n) = triple_route();
        let caps = net.capacities();
        let paths = k_best_paths(&net, &demand, &caps, 3, 1, &mut SearchScratch::new());
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].nodes(), &[n[0], n[2], n[1]], "2-hop route first");
        assert_eq!(paths[1].hops(), 3);
        assert_eq!(paths[2].hops(), 4);
        // Rates must be non-increasing.
        let rates: Vec<f64> = paths
            .iter()
            .map(|p| path_rate(&net, p, 1).value())
            .collect();
        assert!(rates.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn h_bounds_output() {
        let (net, demand, _) = triple_route();
        let caps = net.capacities();
        let mut scratch = SearchScratch::new();
        assert_eq!(
            k_best_paths(&net, &demand, &caps, 1, 1, &mut scratch).len(),
            1
        );
        assert_eq!(
            k_best_paths(&net, &demand, &caps, 2, 1, &mut scratch).len(),
            2
        );
        // Only 3 loopless routes exist.
        assert_eq!(
            k_best_paths(&net, &demand, &caps, 10, 1, &mut scratch).len(),
            3
        );
    }

    #[test]
    fn paths_are_distinct_and_loopless() {
        let (net, demand, _) = triple_route();
        let caps = net.capacities();
        let paths = k_best_paths(&net, &demand, &caps, 10, 2, &mut SearchScratch::new());
        let mut seen = HashSet::new();
        for p in &paths {
            assert!(seen.insert(p.nodes().to_vec()), "duplicate path {p}");
        }
    }

    #[test]
    fn selection_covers_all_widths_and_demands() {
        let (net, demand, _) = triple_route();
        let caps = net.capacities();
        let candidates = select(&net, &[demand], &caps, 2, 3, SwapMode::NFusion);
        // Every returned width is in 1..=3 and has at most h = 2 entries.
        for w in 1..=3u32 {
            let count = candidates.iter().filter(|c| c.width == w).count();
            assert!(count <= 2, "width {w} produced {count} candidates");
            assert!(count >= 1, "width {w} missing");
        }
        // Widths above capacity/2 yield nothing.
        let too_wide = select(&net, &[demand], &caps, 2, 10, SwapMode::NFusion);
        assert!(too_wide.iter().all(|c| c.width <= 5));
    }

    #[test]
    fn candidate_metrics_match_mode() {
        let (net, demand, _) = triple_route();
        let caps = net.capacities();
        let nf = select(&net, &[demand], &caps, 1, 1, SwapMode::NFusion);
        let cl = select(&net, &[demand], &caps, 1, 1, SwapMode::Classic);
        assert_eq!(nf[0].path, cl[0].path);
        let wp = WidthedPath::uniform(nf[0].path.clone(), 1);
        assert_eq!(nf[0].metric, SwapMode::NFusion.score(&net, &wp));
        assert_eq!(cl[0].metric, SwapMode::Classic.score(&net, &wp));
    }

    #[test]
    fn descent_matches_reference_on_random_networks() {
        use crate::network::NetworkParams;
        use fusion_topology::TopologyConfig;

        for seed in [3, 17, 40] {
            let topo = TopologyConfig {
                num_switches: 24,
                num_user_pairs: 5,
                avg_degree: 5.0,
                ..TopologyConfig::default()
            }
            .generate(seed);
            let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
            let demands = Demand::from_topology(&topo);
            let caps = net.capacities();
            for mode in [SwapMode::NFusion, SwapMode::Classic] {
                let descent = select(&net, &demands, &caps, 3, 5, mode);
                let reference = paths_selection_reference(&net, &demands, &caps, 3, 5, mode);
                assert_eq!(descent, reference, "seed {seed}, mode {mode:?}");
            }
        }
    }

    #[test]
    fn descent_matches_reference_under_reduced_capacity() {
        // B1 passes a running capacity remainder; the descent must honour
        // the caller's vector, not the network's.
        let (net, demand, n) = triple_route();
        let mut caps = net.capacities();
        caps[n[2].index()] = 1; // route A's switch can no longer relay
        caps[n[3].index()] = 3; // route B limited to width 1
        let demands = [demand];
        for h in [1, 2, 4] {
            let descent = select(&net, &demands, &caps, h, 4, SwapMode::NFusion);
            let reference =
                paths_selection_reference(&net, &demands, &caps, h, 4, SwapMode::NFusion);
            assert_eq!(descent, reference, "h = {h}");
        }
    }

    #[test]
    fn parallel_selection_matches_serial_exactly() {
        use crate::network::NetworkParams;
        use fusion_topology::TopologyConfig;

        let topo = TopologyConfig {
            num_switches: 30,
            num_user_pairs: 7,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(17);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        let caps = net.capacities();
        let query = SelectionQuery {
            h: 3,
            max_width: 4,
            mode: SwapMode::NFusion,
        };
        let run = |threads: usize| {
            let registry = Registry::enabled();
            let out = paths_selection(&net, &demands, &caps, query, threads, &registry);
            (out, registry.snapshot())
        };
        let (serial, serial_counts) = run(1);
        assert_eq!(
            serial,
            paths_selection_reference(&net, &demands, &caps, 3, 4, SwapMode::NFusion)
        );
        for threads in [2, 3, 8, 32] {
            let (parallel, counts) = run(threads);
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(counts, serial_counts, "threads={threads}: counters");
        }
    }

    #[test]
    fn engine_reuse_round_trips_and_skips_searches() {
        let (net, demand, n) = triple_route();
        let registry = Registry::enabled();
        let mut engine = SelectionEngine::new();
        engine.set_registry(&registry);
        let q = SelectionQuery {
            h: 2,
            max_width: 3,
            mode: SwapMode::NFusion,
        };
        let batch = |caps: &[u32], max_width: u32| {
            select(
                &net,
                std::slice::from_ref(&demand),
                caps,
                2,
                max_width,
                SwapMode::NFusion,
            )
        };
        let caps = net.capacities();
        let first = engine.select_demand(&net, &demand, &caps, q);
        assert_eq!(first, batch(&caps, 3));
        assert!(!first.is_empty());

        // A run against other capacities in between leaves nothing
        // behind: the engine comes back to the first answer exactly.
        let mut smaller = caps.clone();
        smaller[n[2].index()] = 2;
        smaller[n[5].index()] = 0;
        let between = engine.select_demand(&net, &demand, &smaller, q);
        assert_eq!(between, batch(&smaller, 3));
        assert_ne!(between, first);
        assert_eq!(engine.select_demand(&net, &demand, &caps, q), first);

        // With every switch down to one relay qubit pair, widths 3 and 2
        // cannot reach the destination: the reachability view skips their
        // searches, which cost no heap pops at all.
        let narrow: Vec<u32> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| if net.is_switch(NodeId::new(i)) { 2 } else { c })
            .collect();
        let pops = || registry.snapshot().value("alg2.search.pops");
        let skips = || registry.snapshot().value("alg2.reach_skips");
        let (pops0, skips0) = (pops(), skips());
        let descended = engine.select_demand(&net, &demand, &narrow, q);
        assert_eq!(descended, batch(&narrow, 3));
        assert!(descended.iter().all(|c| c.width == 1));
        assert_eq!(skips() - skips0, 2, "one skipped first search per width");
        let (pops1, skips1) = (pops(), skips());
        let width_one =
            engine.select_demand(&net, &demand, &narrow, SelectionQuery { max_width: 1, ..q });
        assert_eq!(width_one, descended);
        assert_eq!(skips(), skips1);
        assert_eq!(
            pops() - pops1,
            pops1 - pops0,
            "skipped widths must add no pops to the width-1 searches"
        );

        // Width-1 calls search the same (width, destination) slice each
        // time, yet each must rebuild its arc list: with `a` dry, route A
        // is gone from the answer.
        let mut no_a = caps.clone();
        no_a[n[2].index()] = 0;
        let w1 = SelectionQuery { max_width: 1, ..q };
        for caps in [&caps, &no_a, &caps] {
            assert_eq!(
                engine.select_demand(&net, &demand, caps, w1),
                batch(caps, 1)
            );
        }
        assert_ne!(batch(&no_a, 1), batch(&caps, 1));
    }

    #[test]
    fn engine_without_reuse_matches_batch_selection() {
        use crate::network::NetworkParams;
        use fusion_topology::TopologyConfig;

        let topo = TopologyConfig {
            num_switches: 24,
            num_user_pairs: 5,
            avg_degree: 5.0,
            ..TopologyConfig::default()
        }
        .generate(11);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        let full = net.capacities();
        let halved: Vec<u32> = full
            .iter()
            .enumerate()
            .map(|(i, &c)| if i % 3 == 0 { c / 2 } else { c })
            .collect();
        let mut dry_endpoint = full.clone();
        dry_endpoint[demands[0].source.index()] = 0;
        // One engine across changing residuals, a shrinking and then a
        // growing width bound (the channel tables extend on demand), a
        // mode switch, and an endpoint with no qubits left.
        let steps: [(&[u32], u32, SwapMode); 5] = [
            (&full, 5, SwapMode::NFusion),
            (&halved, 5, SwapMode::NFusion),
            (&halved, 3, SwapMode::Classic),
            (&dry_endpoint, 3, SwapMode::NFusion),
            (&full, 7, SwapMode::NFusion),
        ];
        let mut engine = SelectionEngine::new();
        for (step, &(caps, max_width, mode)) in steps.iter().enumerate() {
            let query = SelectionQuery {
                h: 3,
                max_width,
                mode,
            };
            for demand in &demands {
                let selected = engine.select_demand(&net, demand, caps, query);
                let batch = select(&net, std::slice::from_ref(demand), caps, 3, max_width, mode);
                assert_eq!(
                    selected, batch,
                    "step {step}: engine must equal batch for {:?}",
                    demand.id
                );
            }
        }
        let dry = engine.select_demand(
            &net,
            &demands[0],
            &dry_endpoint,
            SelectionQuery {
                h: 3,
                max_width: 3,
                mode: SwapMode::NFusion,
            },
        );
        assert!(dry.is_empty(), "a dry endpoint has no candidates");
    }

    #[test]
    fn no_candidates_for_disconnected_demand() {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let d = b.user(1.0, 0.0);
        let _sw = b.switch(0.5, 0.0, 10);
        let net = b.build();
        let demand = Demand::new(DemandId::new(0), s, d);
        let caps = net.capacities();
        assert!(select(&net, &[demand], &caps, 3, 2, SwapMode::NFusion).is_empty());
    }

    proptest::proptest! {
        /// One ban mask, reused across many random ban sets, must hold
        /// exactly each set's banned nodes and mark exactly the
        /// endpoints of its banned hops, so no mark from an earlier
        /// search leaks into a later one.
        #[test]
        fn reused_ban_mask_matches_constraint_sets(
            sets in proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..12, 0..5),
                    proptest::collection::vec((0usize..12, 0usize..12), 0..6),
                ),
                1..10,
            ),
        ) {
            let n = 12;
            let mut bans = BanMask::new();
            for (nodes, hops) in sets {
                let mut cons = PathConstraints::default();
                for v in nodes {
                    cons.ban_node(NodeId::new(v));
                }
                for (u, v) in hops {
                    cons.ban_hop(NodeId::new(u), NodeId::new(v));
                }
                stamp_bans(&mut bans, &cons, n);
                let stamped: HashSet<NodeId> = bans.banned_nodes().iter().copied().collect();
                proptest::prop_assert_eq!(&stamped, &cons.banned_nodes);
                for v in (0..n).map(NodeId::new) {
                    let ends_a_hop = cons.banned_hops.iter().any(|&(a, b)| a == v || b == v);
                    proptest::prop_assert_eq!(bans.hop_end(v), ends_a_hop, "hop mark on {:?}", v);
                }
            }
        }
    }
}
