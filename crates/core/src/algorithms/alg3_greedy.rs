//! Gain-per-qubit variant of Algorithm 3 (the pipeline default).
//!
//! The paper's pseudocode consumes candidates width-major: every width-5
//! route in the network is placed before any width-4 route. In the
//! evaluation regime its own baseline numbers imply (short routes over
//! lossy links, per-link success ≈ 0.6-0.7), maximal-width channels buy
//! almost no extra rate per qubit — a width-5 hop costs five times a
//! width-1 hop for a channel-success gain that is already saturated — so a
//! literal width-major merge strands half the network's qubits on one
//! over-wide branch per demand and loses to even the B1 baseline
//! (see EXPERIMENTS.md, "merge-order ablation").
//!
//! This variant keeps everything else from Algorithm 3 — candidate set,
//! capacity accounting, same-demand edge sharing — but accepts candidates
//! greedily by *marginal Eq.-1 gain per qubit spent*, which directly
//! implements the paper's Main Idea 2 ("a shorter path will use fewer
//! resources in the network, allowing the network to handle more
//! demands"). Width-major order remains available as
//! [`super::alg3::paths_merge`] for the ablation bench.
//!
//! # The incremental gain queue
//!
//! A naive greedy merge re-evaluates every still-viable candidate on every
//! acceptance round — O(rounds × candidates) marginal-gain evaluations,
//! each of which walks the demand's flow graph twice. That full re-scan is
//! kept as [`paths_merge_greedy_reference`] (the differential-testing
//! oracle); the production [`paths_merge_greedy`] reaches the same plan
//! through an incremental priority queue built on one observation about
//! what an acceptance can actually change:
//!
//! * a candidate's `need`/`cost` depend only on its own hops and on which
//!   of its demand's hops are already assigned — a **same-demand** event;
//! * its marginal gain depends only on its own demand's current plan —
//!   again same-demand;
//! * its feasibility additionally depends on the remaining qubits at its
//!   own nodes, which an acceptance only shrinks at the **nodes of the
//!   accepted path**.
//!
//! So accepting a candidate invalidates exactly the union of its demand's
//! candidates and the node-overlapping candidates ([`CandidateIndex`]
//! holds both inverted indexes, built once up front). The two halves are
//! treated differently:
//!
//! * **Same-demand** candidates are *eagerly rescored* and re-pushed with
//!   fresh keys. Lazy pop-time revalidation is not enough here: sharing
//!   can make a sibling candidate's unshared remainder cheaper, so its
//!   score may *rise*, and a lazily-handled riser would stay buried under
//!   entries it now beats (classic lazy deletion only tolerates scores
//!   that fall, à la lazy Dijkstra).
//! * **Node-overlapping** candidates of other demands keep their key —
//!   their score cannot have changed — and only get a capacity-stale flag.
//!   The flag is resolved on pop: recheck the cached `need` against the
//!   current `remaining`, and on failure drop the candidate (no sharing)
//!   or park it aside (sharing, where a later same-demand acceptance can
//!   shrink its `need` and revive it through the eager rescore).
//!
//! Every heap entry carries the version of the evaluation that produced
//! it; rescoring bumps the candidate's version so superseded entries are
//! skipped when popped. Both implementations rank candidates with the
//! same [`MergeKey`] — score (gain per qubit) descending, then raw gain
//! descending, then qubit cost ascending, then candidate index ascending —
//! and share the same evaluation arithmetic, so their outcomes are
//! byte-identical (property-tested in `tests/merge_differential.rs`).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

use fusion_graph::NodeId;
use fusion_telemetry::{Counter, Registry};

use crate::algorithms::alg1::PathConstraints;
use crate::algorithms::alg2::CandidatePath;
use crate::algorithms::alg3::MergeOutcome;
use crate::demand::{Demand, DemandId};
use crate::flow::WidthedPath;
use crate::metrics;
use crate::network::QuantumNetwork;
use crate::plan::{DemandPlan, SwapMode};

/// Gains below this threshold are treated as saturation and not worth
/// qubits.
const MIN_GAIN: f64 = 1e-9;

/// Counter handles for the incremental gain queue. Default handles are
/// no-ops; wire real ones with [`MergeCounters::from_registry`]. All
/// counts are deterministic functions of the merge inputs.
#[derive(Debug, Clone, Default)]
pub struct MergeCounters {
    /// Entries pushed into the gain heap (initial scores + rescores).
    pub heap_pushes: Counter,
    /// Candidates invalidated by acceptances (same-demand rescores plus
    /// capacity-stale flags on node-overlapping candidates).
    pub invalidations: Counter,
    /// Popped entries skipped as superseded, killed, or capacity-stale.
    pub stale_pops: Counter,
    /// Candidates accepted into a plan.
    pub accepts: Counter,
}

impl MergeCounters {
    /// Creates handles named `alg3.heap_pushes`, `alg3.invalidations`,
    /// `alg3.stale_pops`, and `alg3.accepts` in `registry`.
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return MergeCounters::default();
        }
        MergeCounters {
            heap_pushes: registry.counter("alg3.heap_pushes"),
            invalidations: registry.counter("alg3.invalidations"),
            stale_pops: registry.counter("alg3.stale_pops"),
            accepts: registry.counter("alg3.accepts"),
        }
    }
}

/// The total acceptance order of the gain-per-qubit merge, shared by the
/// queue and the reference re-scan so equal-score ties break identically:
/// score (marginal gain per qubit) descending, then raw gain descending,
/// then qubit cost ascending, then candidate index ascending. The index
/// makes the order strict — no two candidates ever compare equal — which
/// is what pins the historically implicit "first scanned wins" tie-break.
#[derive(Debug, Clone, Copy)]
pub struct MergeKey {
    /// Marginal gain per switch qubit spent (`gain / max(cost, 1)`).
    pub score: f64,
    /// Marginal Eq.-1 (or classic success) gain of accepting now.
    pub gain: f64,
    /// Switch qubits the acceptance would consume.
    pub cost: u32,
    /// Index into the candidate slice.
    pub index: usize,
}

impl MergeKey {
    /// Builds the key for candidate `index` from its fresh evaluation.
    #[must_use]
    pub fn new(gain: f64, cost: u32, index: usize) -> Self {
        MergeKey {
            score: gain / f64::from(cost.max(1)),
            gain,
            cost,
            index,
        }
    }
}

impl Ord for MergeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Greater = accepted earlier. Gains are finite (flow rates are
        // clamped probabilities), so total_cmp agrees with the naive
        // partial order while keeping Ord's contract.
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.gain.total_cmp(&other.gain))
            .then_with(|| other.cost.cmp(&self.cost))
            .then_with(|| other.index.cmp(&self.index))
    }
}

impl PartialOrd for MergeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for MergeKey {}

/// Inverted indexes over a candidate set: which candidates visit a node,
/// and which belong to a demand. Built once per merge; used to compute the
/// exact invalidation set of an acceptance.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    by_node: HashMap<NodeId, Vec<usize>>,
    by_demand: HashMap<DemandId, Vec<usize>>,
}

impl CandidateIndex {
    /// Indexes `candidates` by visited node and by demand.
    #[must_use]
    pub fn build(candidates: &[CandidatePath]) -> Self {
        let mut by_node: HashMap<NodeId, Vec<usize>> = HashMap::new();
        let mut by_demand: HashMap<DemandId, Vec<usize>> = HashMap::new();
        for (ci, cand) in candidates.iter().enumerate() {
            by_demand.entry(cand.demand).or_default().push(ci);
            for &node in cand.path.nodes() {
                let bucket = by_node.entry(node).or_default();
                // A simple path visits each node once, but synthetic
                // candidates may not be simple; keep the bucket a set.
                if bucket.last() != Some(&ci) {
                    bucket.push(ci);
                }
            }
        }
        CandidateIndex { by_node, by_demand }
    }

    /// Candidates of `demand`, in ascending index order.
    #[must_use]
    pub fn same_demand(&self, demand: DemandId) -> &[usize] {
        self.by_demand.get(&demand).map_or(&[], Vec::as_slice)
    }

    /// The exact invalidation set of accepting `accepted`: candidates
    /// sharing at least one node with its path plus all candidates of its
    /// demand (including `accepted` itself), in ascending index order.
    /// Everything outside this set keeps a provably unchanged evaluation
    /// — its need, cost, gain, and feasibility are functions of state the
    /// acceptance did not touch.
    #[must_use]
    pub fn invalidated_by(&self, accepted: &CandidatePath) -> Vec<usize> {
        let mut set: Vec<usize> = self.same_demand(accepted.demand).to_vec();
        for &node in accepted.path.nodes() {
            if let Some(bucket) = self.by_node.get(&node) {
                set.extend_from_slice(bucket);
            }
        }
        set.sort_unstable();
        set.dedup();
        set
    }
}

/// Per-node qubit totals over the candidate's unshared hops, plus the
/// switch-qubit cost of accepting it now. Shared hops (already assigned to
/// the same demand) are free under n-fusion sharing.
fn need_and_cost(
    net: &QuantumNetwork,
    cand: &CandidatePath,
    assigned: &HashSet<(DemandId, (NodeId, NodeId))>,
    share_edges: bool,
) -> (BTreeMap<NodeId, u32>, u32) {
    let mut need: BTreeMap<NodeId, u32> = BTreeMap::new();
    let mut cost: u32 = 0;
    for (u, v) in cand.path.hops_iter() {
        let key = (cand.demand, PathConstraints::hop_key(u, v));
        if share_edges && assigned.contains(&key) {
            continue;
        }
        *need.entry(u).or_insert(0) += cand.width;
        *need.entry(v).or_insert(0) += cand.width;
        // Only switch qubits are scarce.
        cost += u32::from(net.is_switch(u)) * cand.width + u32::from(net.is_switch(v)) * cand.width;
    }
    (need, cost)
}

/// Marginal rate gain of accepting `cand` on top of `plan`, whose current
/// rate is `base` (passed in so a caller rescoring a whole demand pays for
/// the base evaluation once; `base` must equal `plan.rate(net, mode)`).
fn marginal_gain(
    net: &QuantumNetwork,
    cand: &CandidatePath,
    plan: &DemandPlan,
    base: f64,
    mode: SwapMode,
    share_edges: bool,
) -> f64 {
    match mode {
        SwapMode::NFusion => {
            let mut widened = plan.flow.clone();
            crate::algorithms::alg3::record_route(
                &mut widened,
                &cand.path,
                cand.width,
                share_edges,
            );
            metrics::flow_rate(net, &widened).value() - base
        }
        SwapMode::Classic => {
            // Independent alternative paths: gain of one more.
            let wp = WidthedPath::uniform(cand.path.clone(), cand.width);
            let s = metrics::classic::success_probability(net, &wp);
            (1.0 - (1.0 - base) * (1.0 - s)) - base
        }
    }
}

/// A heap entry: the key a candidate was scored with plus the evaluation
/// version it belongs to. Entries whose version fell behind are skipped on
/// pop (lazy deletion).
struct Entry {
    key: MergeKey,
    version: u32,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// The immutable knobs of one merge run, grouped so the queue internals
/// do not thread five parameters through every call.
struct MergeCtx<'a> {
    net: &'a QuantumNetwork,
    candidates: &'a [CandidatePath],
    mode: SwapMode,
    share_edges: bool,
    max_paths_per_demand: Option<usize>,
}

/// Mutable per-candidate queue state (see the module docs).
struct GainQueue {
    alive: Vec<bool>,
    /// Evaluation version per candidate; a push records it, a rescore
    /// bumps it, a pop skips entries that fell behind.
    version: Vec<u32>,
    /// Set when an acceptance elsewhere shrank `remaining` at one of this
    /// candidate's nodes: the score is still exact, only feasibility
    /// needs rechecking on pop.
    capacity_stale: Vec<bool>,
    /// Cached (key, need) of the live evaluation. `None` for candidates
    /// that are dead or parked (alive but currently infeasible under
    /// sharing, awaiting a same-demand rescore).
    eval: Vec<Option<(MergeKey, BTreeMap<NodeId, u32>)>>,
    heap: BinaryHeap<Entry>,
    counters: MergeCounters,
}

impl GainQueue {
    fn new(n: usize, counters: &MergeCounters) -> Self {
        GainQueue {
            alive: vec![true; n],
            version: vec![0; n],
            capacity_stale: vec![false; n],
            eval: vec![None; n],
            heap: BinaryHeap::with_capacity(n),
            counters: counters.clone(),
        }
    }

    /// Scores candidate `ci` against the current merge state and either
    /// pushes it, parks it (sharing + infeasible), or kills it. Mirrors
    /// one reference-scan visit exactly, including the order of the kill
    /// checks. `base` must equal `plan.rate(ctx.net, ctx.mode)`.
    fn rescore(
        &mut self,
        ctx: &MergeCtx<'_>,
        ci: usize,
        plan: &DemandPlan,
        base: f64,
        assigned: &HashSet<(DemandId, (NodeId, NodeId))>,
        remaining: &[u32],
    ) {
        // Supersede any live entry for this candidate.
        self.version[ci] += 1;
        self.eval[ci] = None;
        let cand = &ctx.candidates[ci];
        if let Some(limit) = ctx.max_paths_per_demand {
            if plan.paths.len() >= limit {
                self.alive[ci] = false;
                return;
            }
        }
        let (need, cost) = need_and_cost(ctx.net, cand, assigned, ctx.share_edges);
        if need.is_empty() {
            self.alive[ci] = false; // fully shared: nothing to add
            return;
        }
        if need
            .iter()
            .any(|(&node, &amount)| remaining[node.index()] < amount)
        {
            // Capacity only shrinks within a run unless sharing opens up;
            // keep the candidate alive (parked) only in sharing mode.
            if !ctx.share_edges {
                self.alive[ci] = false;
            }
            return;
        }
        let gain = marginal_gain(ctx.net, cand, plan, base, ctx.mode, ctx.share_edges);
        if gain < MIN_GAIN {
            self.alive[ci] = false;
            return;
        }
        let key = MergeKey::new(gain, cost, ci);
        self.eval[ci] = Some((key, need));
        self.capacity_stale[ci] = false;
        self.counters.heap_pushes.inc();
        self.heap.push(Entry {
            key,
            version: self.version[ci],
        });
    }
}

/// Runs the gain-per-qubit merge over the candidate set through the
/// incremental gain queue (see the module docs for the design and the
/// equivalence argument). Parameters are as in
/// [`super::alg3::paths_merge`]: `capacity` only seeds `remaining`, so the
/// outcome against a residual budget is byte-identical to a run on a
/// network whose capacities equal `capacity`. Queue counters record into
/// `counters` (`MergeCounters::default()` records nothing); they never
/// influence the outcome.
///
/// # Panics
///
/// Panics if `capacity` is shorter than the node count.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn paths_merge_greedy(
    net: &QuantumNetwork,
    demands: &[Demand],
    candidates: &[CandidatePath],
    mode: SwapMode,
    share_edges: bool,
    max_paths_per_demand: Option<usize>,
    capacity: &[u32],
    counters: &MergeCounters,
) -> MergeOutcome {
    assert!(
        capacity.len() >= net.node_count(),
        "capacity vector too short"
    );
    let ctx = MergeCtx {
        net,
        candidates,
        mode,
        share_edges: share_edges && mode == SwapMode::NFusion,
        max_paths_per_demand,
    };
    let mut remaining = capacity[..net.node_count()].to_vec();
    let mut plans: Vec<DemandPlan> = demands.iter().map(|&d| DemandPlan::empty(d)).collect();
    let index_of: HashMap<DemandId, usize> =
        demands.iter().enumerate().map(|(i, d)| (d.id, i)).collect();
    let mut assigned: HashSet<(DemandId, (NodeId, NodeId))> = HashSet::new();
    let index = CandidateIndex::build(candidates);
    let mut queue = GainQueue::new(candidates.len(), counters);

    // Initial build: score every candidate against the empty plans.
    for (ci, cand) in candidates.iter().enumerate() {
        let Some(&plan_idx) = index_of.get(&cand.demand) else {
            queue.alive[ci] = false;
            continue;
        };
        let plan = &plans[plan_idx];
        let base = plan.rate(net, mode);
        queue.rescore(&ctx, ci, plan, base, &assigned, &remaining);
    }

    while let Some(entry) = queue.heap.pop() {
        let ci = entry.key.index;
        if !queue.alive[ci] || entry.version != queue.version[ci] {
            queue.counters.stale_pops.inc();
            continue; // superseded by a rescore, or killed
        }
        if queue.capacity_stale[ci] {
            // The score is exact; only remaining capacity moved under it.
            let need = &queue.eval[ci]
                .as_ref()
                .expect("live entry has an evaluation")
                .1;
            if need
                .iter()
                .any(|(&node, &amount)| remaining[node.index()] < amount)
            {
                queue.counters.stale_pops.inc();
                if ctx.share_edges {
                    // Park: a same-demand acceptance may shrink its need
                    // and revive it via the eager rescore.
                    queue.eval[ci] = None;
                } else {
                    queue.alive[ci] = false;
                }
                continue;
            }
            queue.capacity_stale[ci] = false;
        }

        // Accept: highest current MergeKey among all feasible candidates.
        queue.counters.accepts.inc();
        let (_, need) = queue.eval[ci].take().expect("live entry has an evaluation");
        let cand = &candidates[ci];
        let plan_idx = index_of[&cand.demand];
        for (&node, &amount) in &need {
            remaining[node.index()] -= amount;
        }
        for (u, v) in cand.path.hops_iter() {
            assigned.insert((cand.demand, PathConstraints::hop_key(u, v)));
        }
        let plan = &mut plans[plan_idx];
        crate::algorithms::alg3::record_route(
            &mut plan.flow,
            &cand.path,
            cand.width,
            ctx.share_edges,
        );
        plan.paths
            .push(WidthedPath::uniform(cand.path.clone(), cand.width));
        queue.alive[ci] = false;

        // Invalidate exactly what the acceptance can have changed:
        // same-demand candidates are rescored eagerly (their score may
        // rise), node-overlapping candidates of other demands only get
        // the capacity-stale flag (their score is provably unchanged).
        let plan = &plans[plan_idx];
        let base = plan.rate(net, mode);
        for cj in index.invalidated_by(cand) {
            if !queue.alive[cj] {
                continue;
            }
            queue.counters.invalidations.inc();
            if candidates[cj].demand == cand.demand {
                queue.rescore(&ctx, cj, plan, base, &assigned, &remaining);
            } else {
                queue.capacity_stale[cj] = true;
            }
        }
    }
    MergeOutcome { plans, remaining }
}

/// The original full re-scan merge: re-ranks every still-viable candidate
/// on every acceptance round. O(rounds × candidates) marginal-gain
/// evaluations — kept verbatim (modulo the shared [`MergeKey`] tie-break)
/// as the differential-testing oracle for [`paths_merge_greedy`] and as
/// the baseline of the `alg3_merge` perfbench workload.
#[must_use]
pub fn paths_merge_greedy_reference(
    net: &QuantumNetwork,
    demands: &[Demand],
    candidates: &[CandidatePath],
    mode: SwapMode,
    share_edges: bool,
    max_paths_per_demand: Option<usize>,
) -> MergeOutcome {
    let share_edges = share_edges && mode == SwapMode::NFusion;
    let mut remaining = net.capacities();
    let mut plans: Vec<DemandPlan> = demands.iter().map(|&d| DemandPlan::empty(d)).collect();
    let index_of: HashMap<DemandId, usize> =
        demands.iter().enumerate().map(|(i, d)| (d.id, i)).collect();
    let mut assigned: HashSet<(DemandId, (NodeId, NodeId))> = HashSet::new();
    let mut alive: Vec<bool> = vec![true; candidates.len()];

    loop {
        // Rank every still-viable candidate by marginal gain per qubit.
        let mut best: Option<(MergeKey, BTreeMap<NodeId, u32>)> = None;
        for (ci, cand) in candidates.iter().enumerate() {
            if !alive[ci] {
                continue;
            }
            let Some(&plan_idx) = index_of.get(&cand.demand) else {
                alive[ci] = false;
                continue;
            };
            let plan = &plans[plan_idx];
            if let Some(limit) = max_paths_per_demand {
                if plan.paths.len() >= limit {
                    alive[ci] = false;
                    continue;
                }
            }
            let (need, cost) = need_and_cost(net, cand, &assigned, share_edges);
            if need.is_empty() {
                alive[ci] = false; // fully shared: nothing to add
                continue;
            }
            if need
                .iter()
                .any(|(&node, &amount)| remaining[node.index()] < amount)
            {
                // Capacity only shrinks within a run unless sharing opens
                // up; keep the candidate alive only in sharing mode.
                if !share_edges {
                    alive[ci] = false;
                }
                continue;
            }
            let gain = marginal_gain(net, cand, plan, plan.rate(net, mode), mode, share_edges);
            if gain < MIN_GAIN {
                alive[ci] = false;
                continue;
            }
            let key = MergeKey::new(gain, cost, ci);
            if best.as_ref().is_none_or(|(b, _)| key > *b) {
                best = Some((key, need));
            }
        }

        let Some((key, need)) = best else { break };
        let ci = key.index;
        let cand = &candidates[ci];
        let plan_idx = index_of[&cand.demand];
        for (&node, &amount) in &need {
            remaining[node.index()] -= amount;
        }
        for (u, v) in cand.path.hops_iter() {
            assigned.insert((cand.demand, PathConstraints::hop_key(u, v)));
        }
        let plan = &mut plans[plan_idx];
        crate::algorithms::alg3::record_route(&mut plan.flow, &cand.path, cand.width, share_edges);
        plan.paths
            .push(WidthedPath::uniform(cand.path.clone(), cand.width));
        alive[ci] = false;
    }
    MergeOutcome { plans, remaining }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::alg2::{paths_selection, SelectionQuery};
    use crate::demand::DemandId;
    use fusion_graph::{Metric, Path};

    /// Uncounted queue merge on the network's own capacities.
    fn queue_merge(
        net: &QuantumNetwork,
        demands: &[Demand],
        candidates: &[CandidatePath],
        mode: SwapMode,
        share_edges: bool,
        limit: Option<usize>,
    ) -> MergeOutcome {
        let caps = net.capacities();
        let counters = MergeCounters::default();
        paths_merge_greedy(
            net,
            demands,
            candidates,
            mode,
            share_edges,
            limit,
            &caps,
            &counters,
        )
    }

    /// Serial, uncounted width-descent selection on full capacity.
    fn select(
        net: &QuantumNetwork,
        demands: &[Demand],
        h: usize,
        max_width: u32,
    ) -> Vec<CandidatePath> {
        let query = SelectionQuery {
            h,
            max_width,
            mode: SwapMode::NFusion,
        };
        paths_selection(
            net,
            demands,
            &net.capacities(),
            query,
            1,
            &Registry::disabled(),
        )
    }

    fn cand(demand: usize, nodes: Vec<NodeId>, width: u32, metric: f64) -> CandidatePath {
        CandidatePath {
            demand: DemandId::new(demand),
            path: Path::new(nodes),
            width,
            metric: Metric::new(metric),
        }
    }

    /// One demand, one route, offered at widths 1, 2 and 5; p high enough
    /// that width-5 wastes qubits.
    fn high_p_net() -> (QuantumNetwork, Vec<NodeId>) {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let v1 = b.switch(1.0, 0.0, 10);
        let v2 = b.switch(2.0, 0.0, 10);
        let d = b.user(3.0, 0.0);
        for (u, v) in [(s, v1), (v1, v2), (v2, d)] {
            b.link(u, v).unwrap();
        }
        let mut net = b.build();
        net.set_uniform_link_success(Some(0.8));
        net.set_swap_success(0.9);
        (net, vec![s, v1, v2, d])
    }

    #[test]
    fn prefers_cheap_width_when_links_are_good() {
        let (net, n) = high_p_net();
        let demands = [Demand::new(DemandId::new(0), n[0], n[3])];
        let route = vec![n[0], n[1], n[2], n[3]];
        let candidates = vec![
            cand(0, route.clone(), 5, 0.80),
            cand(0, route.clone(), 2, 0.78),
            cand(0, route, 1, 0.52),
        ];
        let out = queue_merge(&net, &demands, &candidates, SwapMode::NFusion, true, None);
        // The first accepted path must be a narrow one (gain per qubit),
        // leaving capacity for Algorithm 4 / other demands.
        let first_width = out.plans[0].paths[0].widths[0];
        assert!(first_width <= 2, "greedy picked width {first_width}");
    }

    #[test]
    fn prefers_wide_when_links_are_bad() {
        let (mut net, n) = high_p_net();
        net.set_uniform_link_success(Some(0.1));
        let demands = [Demand::new(DemandId::new(0), n[0], n[3])];
        let route = vec![n[0], n[1], n[2], n[3]];
        // Width-1: (0.1)^3 q^2 ~ 8e-4; width-5: (0.41)^3 q^2 ~ 0.056.
        // Gain per qubit: wide wins by ~14x even at 5x the cost.
        let candidates = vec![cand(0, route.clone(), 5, 0.056), cand(0, route, 1, 8.1e-4)];
        let out = queue_merge(&net, &demands, &candidates, SwapMode::NFusion, true, None);
        assert_eq!(out.plans[0].paths[0].widths[0], 5);
    }

    #[test]
    fn capacity_conserved_and_no_oversubscription() {
        let (net, n) = high_p_net();
        let demands = [
            Demand::new(DemandId::new(0), n[0], n[3]),
            Demand::new(DemandId::new(1), n[3], n[0]),
        ];
        let candidates = select(&net, &demands, 3, 5);
        let out = queue_merge(&net, &demands, &candidates, SwapMode::NFusion, true, None);
        for node in [n[1], n[2]] {
            let spent: u32 = out.plans.iter().map(|p| p.flow.qubits_at(node)).sum();
            assert!(spent <= net.capacity(node));
            assert_eq!(spent + out.remaining[node.index()], net.capacity(node));
        }
    }

    #[test]
    fn respects_path_cap() {
        let (net, n) = high_p_net();
        let demands = [Demand::new(DemandId::new(0), n[0], n[3])];
        let route = vec![n[0], n[1], n[2], n[3]];
        let candidates = vec![cand(0, route.clone(), 1, 0.5), cand(0, route, 2, 0.7)];
        let out = queue_merge(
            &net,
            &demands,
            &candidates,
            SwapMode::NFusion,
            true,
            Some(1),
        );
        assert_eq!(out.plans[0].paths.len(), 1);
    }

    #[test]
    fn saturated_demands_stop_consuming() {
        let (mut net, n) = high_p_net();
        net.set_uniform_link_success(Some(1.0));
        net.set_swap_success(1.0);
        let demands = [Demand::new(DemandId::new(0), n[0], n[3])];
        let route = vec![n[0], n[1], n[2], n[3]];
        let candidates = vec![
            cand(0, route.clone(), 1, 1.0),
            cand(0, route.clone(), 2, 1.0),
            cand(0, route, 5, 1.0),
        ];
        let out = queue_merge(&net, &demands, &candidates, SwapMode::NFusion, true, None);
        // Rate 1.0 after the first width-1 path; everything else is
        // saturation and must be declined.
        assert_eq!(out.plans[0].paths.len(), 1);
        assert_eq!(out.plans[0].paths[0].widths[0], 1);
    }

    #[test]
    fn merge_key_orders_by_score_gain_cost_index() {
        // Score dominates.
        assert!(MergeKey::new(0.8, 2, 5) > MergeKey::new(0.9, 4, 0));
        // Equal score: higher raw gain wins (cost 0 clamps to 1, so a
        // free-hop candidate can tie a costed one at half the gain).
        assert!(MergeKey::new(0.8, 2, 5) > MergeKey::new(0.4, 1, 0));
        // Equal score and gain: lower cost wins (cost 0 clamps to 1).
        assert!(MergeKey::new(0.4, 0, 5) > MergeKey::new(0.4, 1, 0));
        // Full tie: lower candidate index wins.
        assert!(MergeKey::new(0.4, 1, 0) > MergeKey::new(0.4, 1, 1));
        assert_eq!(MergeKey::new(0.4, 1, 3), MergeKey::new(0.4, 1, 3));
    }

    /// Two disjoint routes with manufactured *identical* gain and cost:
    /// the explicit tie-break must hand the first acceptance to the lower
    /// candidate index, in both the queue and the reference — and
    /// swapping the candidates must swap the winner.
    #[test]
    fn equal_gain_ties_break_by_candidate_index() {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let va = b.switch(1.0, 1.0, 2);
        let vb = b.switch(1.0, -1.0, 2);
        let d = b.user(2.0, 0.0);
        for (u, v) in [(s, va), (va, d), (s, vb), (vb, d)] {
            b.link_with_length(u, v, 1_000.0).unwrap();
        }
        let mut net = b.build();
        net.set_uniform_link_success(Some(0.5));
        net.set_swap_success(0.9);
        let demands = [Demand::new(DemandId::new(0), s, d)];
        // Same length, same width, same per-link success: byte-identical
        // gain and cost, distinguishable only by route.
        let via_a = cand(0, vec![s, va, d], 1, 0.5);
        let via_b = cand(0, vec![s, vb, d], 1, 0.5);

        for (cands, first_hop) in [
            (vec![via_a.clone(), via_b.clone()], va),
            (vec![via_b, via_a], vb),
        ] {
            for merge in [queue_merge, paths_merge_greedy_reference] {
                let out = merge(&net, &demands, &cands, SwapMode::NFusion, true, Some(1));
                assert_eq!(out.plans[0].paths.len(), 1);
                assert_eq!(
                    out.plans[0].paths[0].path.nodes()[1],
                    first_hop,
                    "equal-gain tie must go to the lower candidate index"
                );
            }
        }
    }

    #[test]
    fn invalidation_set_is_exactly_node_overlap_plus_same_demand() {
        // Disjoint star: candidate 0 (demand 0) on nodes {0,1,2};
        // candidate 1 shares node 1; candidate 2 is node-disjoint but same
        // demand as 0; candidate 3 is disjoint in both senses.
        let mut b = QuantumNetwork::builder();
        let mut nodes = Vec::new();
        for i in 0..10 {
            nodes.push(b.switch(f64::from(i), 0.0, 4));
        }
        let n = &nodes;
        let candidates = vec![
            cand(0, vec![n[0], n[1], n[2]], 1, 0.9),
            cand(1, vec![n[1], n[3], n[4]], 1, 0.8),
            cand(0, vec![n[5], n[6], n[7]], 1, 0.7),
            cand(2, vec![n[8], n[9]], 1, 0.6),
        ];
        let index = CandidateIndex::build(&candidates);
        assert_eq!(
            index.invalidated_by(&candidates[0]),
            vec![0, 1, 2],
            "node overlap (1) and same demand (2) and itself, nothing more"
        );
        assert_eq!(
            index.invalidated_by(&candidates[3]),
            vec![3],
            "a fully disjoint acceptance invalidates only itself"
        );
        assert_eq!(index.same_demand(DemandId::new(0)), &[0, 2]);
        assert_eq!(index.same_demand(DemandId::new(7)), &[] as &[usize]);
    }

    /// A candidate that starts infeasible must be parked, not killed, in
    /// sharing mode: once its demand's earlier acceptance shares its
    /// first hop, the cheaper remainder fits and must still be accepted.
    #[test]
    fn parked_candidate_revives_when_sharing_opens_capacity() {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let v1 = b.switch(1.0, 0.0, 5);
        let v2 = b.switch(2.0, 0.0, 6);
        let v3 = b.switch(2.0, 1.0, 10);
        let d = b.user(3.0, 0.0);
        for (u, v) in [(s, v1), (v1, v2), (v2, d), (v1, v3), (v3, d)] {
            b.link_with_length(u, v, 1_000.0).unwrap();
        }
        let mut net = b.build();
        net.set_uniform_link_success(Some(0.2));
        net.set_swap_success(0.9);
        let demands = [Demand::new(DemandId::new(0), s, d)];
        // The width-3 branch s-v1-v3-d needs 6 qubits at v1 (capacity 5):
        // infeasible against the *full* network, so it is parked at build
        // time. Accepting the width-1 stem s-v1-v2-d shares the s-v1 hop,
        // dropping the branch's need at v1 to 3 ≤ 5 - 2 remaining: the
        // parked candidate must come back and be accepted.
        let stem = cand(0, vec![s, v1, v2, d], 1, 0.5);
        let branch = cand(0, vec![s, v1, v3, d], 3, 0.4);
        let candidates = vec![stem, branch];
        let queue = queue_merge(&net, &demands, &candidates, SwapMode::NFusion, true, None);
        let reference = paths_merge_greedy_reference(
            &net,
            &demands,
            &candidates,
            SwapMode::NFusion,
            true,
            None,
        );
        assert_eq!(queue, reference);
        assert_eq!(
            queue.plans[0].paths.len(),
            2,
            "the parked branch must be revived by the shared s-v1 hop"
        );
    }

    /// Cross-check on a real selection run: byte-identical outcomes in
    /// both modes (the reduced differential grid lives in
    /// `tests/merge_differential.rs`; this is the in-module smoke case).
    #[test]
    fn queue_matches_reference_on_selection_output() {
        let (net, n) = high_p_net();
        let demands = [
            Demand::new(DemandId::new(0), n[0], n[3]),
            Demand::new(DemandId::new(1), n[3], n[0]),
        ];
        let candidates = select(&net, &demands, 3, 5);
        for (mode, share, limit) in [
            (SwapMode::NFusion, true, None),
            (SwapMode::NFusion, false, None),
            (SwapMode::Classic, false, Some(1)),
        ] {
            let queue = queue_merge(&net, &demands, &candidates, mode, share, limit);
            let reference =
                paths_merge_greedy_reference(&net, &demands, &candidates, mode, share, limit);
            assert_eq!(queue, reference, "mode {mode:?} share {share}");
        }
    }
}
