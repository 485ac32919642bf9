//! The per-demand candidate cache behind incremental admission.
//!
//! Admitting `source -> dest` runs a width descent whose per-width output
//! is a pure function of the width's *feasible subgraph* — and the
//! [`SelectionEngine`](fusion_core::algorithms::SelectionEngine) reports,
//! for every width it computes, a *validity certificate*
//! ([`CertEntry`]): the minimal per-kind set of feasibility answers the
//! slice's results depend on — O(path), not O(explored region) (see
//! [`fusion_graph::certificate`] for the derivation and soundness
//! argument). This module stores those per-(pair, width) slices and keeps
//! two inverted indexes over them, the Algorithm 3 `CandidateIndex` trick
//! lifted to the service layer:
//!
//! * **node → slots** over certificates: when a residual capacity changes
//!   `old -> new` at a node, only slots whose certificate *tracks the
//!   kind whose answer actually flips* at their width are touched (the
//!   relay threshold moves through `(min/2, max/2]`, the endpoint
//!   threshold through `(min, max]` — see [`node_width_thresholds`]).
//!   A flip of an answer the slice read but never depended on — the
//!   common case under churn, e.g. a probed-but-off-path user's endpoint
//!   — retains the slot (`serve.cache.cert_saves`). Everything untouched
//!   provably reproduces the same bytes.
//! * **edge → slots** over cached candidate paths: a
//!   [`fail_link`](crate::state::ServiceState::fail_link) drops every
//!   slot whose cached candidates cross the cut fiber. This one is a
//!   freshness policy, not a soundness requirement — the network model
//!   never mutates on a transient cut — and it keeps cached routes from
//!   silently outliving the fiber they were planned over.
//!
//! Stale-posting hygiene follows the repo's generation discipline (see
//! `docs/ARCHITECTURE.md`): every stored slot gets a fresh generation
//! number, postings carry the generation they indexed, and a posting
//! whose generation no longer matches the live slot is dropped lazily
//! whenever a scan touches it (plus an amortized global sweep, so dead
//! postings cannot accumulate without bound).
//!
//! Over-invalidation is always *correct* here — recomputing a still-valid
//! slot reproduces identical candidates — so every policy in this module
//! errs on the side of dropping. Only a *missed* invalidation could break
//! the byte-identity contract, and the footprint rule above is exactly
//! the dependency set recorded by the engine. The differential oracle
//! (`tests/incremental_oracle.rs`) enforces this end to end.

use std::collections::BTreeMap;

use fusion_core::algorithms::{
    node_width_thresholds, CandidatePath, RepairSeed, SelectedWidth, WidthReuse,
};
use fusion_core::{DemandId, QuantumNetwork};
use fusion_graph::{CertEntry, EdgeId, Metric, NodeId, Path};
use fusion_telemetry::{Counter, Histogram, Registry};

/// Telemetry handles of the incremental admission cache, registered under
/// `serve.cache.*`; `serve replay --stats` reports them from the
/// registry snapshot.
///
/// Deliberately *not* part of [`ReplayStats`](crate::replay::ReplayStats)
/// or the state digest: the oracles byte-compare those across strategies,
/// and cache behavior is exactly the thing that differs.
#[derive(Debug, Clone, Default)]
pub struct CacheCounters {
    /// Incremental admissions that consulted the cache
    /// (`serve.cache.admissions`).
    pub admissions: Counter,
    /// Admissions served entirely from cached widths — no search ran
    /// (`serve.cache.full_hits`).
    pub full_hits: Counter,
    /// Admissions that reused at least one width and recomputed at least
    /// one (`serve.cache.partial_hits`).
    pub partial_hits: Counter,
    /// Admissions that recomputed every width (`serve.cache.misses`).
    pub misses: Counter,
    /// Width slices served from cache, across all admissions
    /// (`serve.cache.widths_reused`).
    pub widths_reused: Counter,
    /// Width slices recomputed by the engine, across all admissions
    /// (`serve.cache.widths_recomputed`).
    pub widths_recomputed: Counter,
    /// Slots dropped because a residual delta flipped a feasibility
    /// answer on their footprint (`serve.cache.invalidated_by_node`).
    pub invalidated_by_node: Counter,
    /// Slots dropped because a cached candidate crossed a failed link
    /// (`serve.cache.invalidated_by_edge`).
    pub invalidated_by_edge: Counter,
    /// Whole pair entries evicted by the entry cap
    /// (`serve.cache.entries_evicted`).
    pub entries_evicted: Counter,
    /// Slots *damaged* by a residual delta — demoted to repairable
    /// instead of dropped, because the flipped node was first read after
    /// search ordinal 0 (`serve.cache.damaged`).
    pub damaged: Counter,
    /// Repaired slices stored: admissions that replayed a damaged slot's
    /// intact search prefix instead of starting over
    /// (`serve.cache.repairs`).
    pub repairs: Counter,
    /// Distribution of replayed-prefix lengths (searches served from the
    /// log) across repairs (`serve.cache.repair_depth`).
    pub repair_depth: Histogram,
    /// Distribution of *raw* read-set sizes per stored slice, in nodes —
    /// the pre-certificate footprint cardinality, kept for comparability
    /// across versions (`serve.cache.footprint_nodes`).
    pub footprint_nodes: Histogram,
    /// Distribution of stored certificate sizes, in entries
    /// (`serve.cache.cert_size`).
    pub cert_size: Histogram,
    /// Slot retentions the certificate bought: a delta flipped an answer
    /// the slot *read* but never depended on, so the slot survived where
    /// the raw footprint would have dropped it (`serve.cache.cert_saves`).
    pub cert_saves: Counter,
    /// Distribution of the damage/kill ordinals of certificate-matched
    /// flips (`serve.cache.flip_ordinal`): mass at bucket 0 means flips
    /// still kill; mass past it means the repair lattice carries churn.
    pub flip_ordinal: Histogram,
    /// Distribution of slots killed per applied ledger delta
    /// (`serve.cache.killed_per_delta`).
    pub killed_per_delta: Histogram,
}

impl CacheCounters {
    /// Creates the `serve.cache.*` handles in `registry`.
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return CacheCounters::default();
        }
        CacheCounters {
            admissions: registry.counter("serve.cache.admissions"),
            full_hits: registry.counter("serve.cache.full_hits"),
            partial_hits: registry.counter("serve.cache.partial_hits"),
            misses: registry.counter("serve.cache.misses"),
            widths_reused: registry.counter("serve.cache.widths_reused"),
            widths_recomputed: registry.counter("serve.cache.widths_recomputed"),
            invalidated_by_node: registry.counter("serve.cache.invalidated_by_node"),
            invalidated_by_edge: registry.counter("serve.cache.invalidated_by_edge"),
            entries_evicted: registry.counter("serve.cache.entries_evicted"),
            damaged: registry.counter("serve.cache.damaged"),
            repairs: registry.counter("serve.cache.repairs"),
            footprint_nodes: registry.histogram("serve.cache.footprint_nodes"),
            cert_size: registry.histogram("serve.cache.cert_size"),
            cert_saves: registry.counter("serve.cache.cert_saves"),
            flip_ordinal: registry.histogram("serve.cache.flip_ordinal"),
            killed_per_delta: registry.histogram("serve.cache.killed_per_delta"),
            repair_depth: registry.histogram("serve.cache.repair_depth"),
        }
    }
}

/// One inverted-index posting: slot `(key, width)` stored at generation
/// `gen` depends on (node index) / crosses (edge index) the list this
/// posting lives in. Valid only while the live slot still has `gen`.
///
/// Node postings carry the certificate entry's per-kind first-dependent
/// ordinals inline, so the delta scan classifies a flip without touching
/// the slot at all — the entry map is only consulted (for the staleness
/// check) once a flip actually lands on the posting's width. The
/// ordinals are frozen per generation: any store that changes the
/// certificate bumps `gen` and pushes fresh postings, and the old ones
/// die on the staleness check. Edge postings carry `None`s (fail-edge is
/// unconditional).
#[derive(Debug, Clone, Copy)]
struct Posting {
    key: (NodeId, NodeId),
    width: u32,
    gen: u64,
    relay_ord: Option<u32>,
    endpoint_ord: Option<u32>,
}

/// One cached width slice of a pair's descent — a point on the repair
/// lattice (see `docs/ARCHITECTURE.md`): **live** (`damage == None`,
/// candidates servable byte-for-byte), **repairable** (`damage ==
/// Some(k)`, `k > 0`: the first `k` entries of `log` are still exactly
/// reproducible, the candidates are not), or **dead** (the slot is
/// dropped entirely).
#[derive(Debug, Clone)]
struct Slot {
    gen: u64,
    candidates: Vec<CandidatePath>,
    /// The slice's recorded search log (first path, then each Yen spur in
    /// issue order) — the deviation state a repair replays.
    log: Vec<Option<(Path, Metric)>>,
    /// The slice's validity certificate: per node, the per-kind
    /// first-dependent search ordinals, sorted by node.
    footprint: Vec<CertEntry>,
    /// `Some(k)`: a delta flipped a *tracked* feasibility answer whose
    /// first-dependent ordinal is `k > 0`; log entries `0..k` remain
    /// valid (searches before `k` never depended on the answer). Flips
    /// at ordinal 0 kill the slot instead.
    damage: Option<u32>,
}

/// All cached widths of one ordered `(source, dest)` pair.
#[derive(Debug, Clone, Default)]
struct Entry {
    /// `slots[w - 1]` holds width `w`.
    slots: Vec<Option<Slot>>,
    last_touch: u64,
}

/// The footprint-invalidated candidate cache (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CandidateCache {
    entries: BTreeMap<(NodeId, NodeId), Entry>,
    /// Footprint postings per node index.
    node_postings: Vec<Vec<Posting>>,
    /// Path-crossing postings per canonical edge index.
    edge_postings: Vec<Vec<Posting>>,
    next_gen: u64,
    clock: u64,
    max_entries: usize,
    postings_since_sweep: usize,
    sweep_threshold: usize,
    counters: CacheCounters,
}

impl CandidateCache {
    /// An empty cache sized for `net`, keeping at most `max_entries`
    /// pair entries (least-recently-stored evicted first), recording its
    /// `serve.cache.*` telemetry into `registry`.
    pub(crate) fn new(net: &QuantumNetwork, max_entries: usize, registry: &Registry) -> Self {
        assert!(max_entries > 0, "cache needs room for at least one pair");
        let nodes = net.node_count();
        let edges = net.graph().edge_count();
        CandidateCache {
            entries: BTreeMap::new(),
            node_postings: vec![Vec::new(); nodes],
            edge_postings: vec![Vec::new(); edges],
            next_gen: 0,
            clock: 0,
            max_entries,
            postings_since_sweep: 0,
            // Fixed at construction *intentionally*: the sweep bound is
            // sized to the network's structure, and the structure never
            // mutates — `fail_link` is a routing-layer freshness event
            // (the graph keeps the fiber; no admission may route over
            // it), not an edge removal, so the posting-list universe the
            // threshold amortizes over is constant for the cache's
            // lifetime. Pinned by `sweep_threshold_is_construction_fixed`.
            sweep_threshold: (8 * (nodes + edges)).max(4096),
            counters: CacheCounters::from_registry(registry),
        }
    }

    /// The reuse verdict for `(key, width)`: a live slot's candidates
    /// re-stamped with the current `demand` id (cached bytes carry the id
    /// they were computed under; the id is the only demand-dependent
    /// field and every admission gets a fresh one), a damaged slot's
    /// repair seed, or a miss.
    ///
    /// `width == 0` is rejected outright (a degenerate demand or future
    /// N-party caller could ask; slots are indexed `width - 1`).
    pub(crate) fn reuse(&self, key: (NodeId, NodeId), width: u32, demand: DemandId) -> WidthReuse {
        let slot = (width as usize)
            .checked_sub(1)
            .and_then(|wi| self.entries.get(&key)?.slots.get(wi)?.as_ref());
        let Some(slot) = slot else {
            return WidthReuse::Miss;
        };
        match slot.damage {
            None => {
                let mut candidates = slot.candidates.clone();
                for c in &mut candidates {
                    c.demand = demand;
                }
                WidthReuse::Full(candidates)
            }
            Some(intact) => WidthReuse::Repair(RepairSeed {
                log: slot.log.clone(),
                intact,
            }),
        }
    }

    /// Records one admission's engine output: stores every recomputed
    /// width slice with its footprint indexed, bumps the hit/miss
    /// counters, and enforces the entry cap.
    pub(crate) fn store(
        &mut self,
        net: &QuantumNetwork,
        key: (NodeId, NodeId),
        selected: &[SelectedWidth],
    ) {
        self.clock += 1;
        self.counters.admissions.inc();
        let reused = selected.iter().filter(|s| s.footprint.is_none()).count() as u64;
        let recomputed = selected.len() as u64 - reused;
        self.counters.widths_reused.add(reused);
        self.counters.widths_recomputed.add(recomputed);
        if recomputed == 0 {
            self.counters.full_hits.inc();
            // Nothing new to store; cached slots stay as they are.
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.last_touch = self.clock;
            }
            return;
        } else if reused > 0 {
            self.counters.partial_hits.inc();
        } else {
            self.counters.misses.inc();
        }

        let clock = self.clock;
        let mut added = 0usize;
        let mut edge_scratch: Vec<EdgeId> = Vec::new();
        let entry = self.entries.entry(key).or_default();
        entry.last_touch = clock;
        for sel in selected {
            let Some(footprint) = &sel.footprint else {
                continue;
            };
            // Slots are indexed `width - 1`; reject degenerate width-0
            // slices instead of underflowing.
            let Some(wi) = (sel.width as usize).checked_sub(1) else {
                continue;
            };
            if entry.slots.len() <= wi {
                entry.slots.resize_with(wi + 1, || None);
            }
            let footprint = if sel.served > 0 {
                // Repaired slice: the served prefix issued no live reads,
                // so its dependencies carry over from the damaged slot's
                // sub-`served` strata and merge with the live tail's.
                self.counters.repairs.inc();
                self.counters.repair_depth.record(u64::from(sel.served));
                let prior = entry.slots[wi]
                    .as_ref()
                    .map_or(&[][..], |s| s.footprint.as_slice());
                merge_repair_footprint(prior, sel.served, footprint)
            } else {
                footprint.clone()
            };
            self.counters
                .footprint_nodes
                .record(u64::from(sel.raw_reads));
            self.counters.cert_size.record(footprint.len() as u64);
            self.next_gen += 1;
            let gen = self.next_gen;
            entry.slots[wi] = Some(Slot {
                gen,
                candidates: sel.candidates.clone(),
                log: sel.log.clone().unwrap_or_default(),
                footprint: footprint.clone(),
                damage: None,
            });
            for e in &footprint {
                self.node_postings[e.node.index()].push(Posting {
                    key,
                    width: sel.width,
                    gen,
                    relay_ord: e.relay,
                    endpoint_ord: e.endpoint,
                });
                added += 1;
            }
            // Edge postings: every link some cached candidate crosses,
            // canonicalized through `find_edge` so parallel fibers share
            // one bucket (fail_link victims are matched by endpoint pair
            // for the same reason).
            edge_scratch.clear();
            for c in &sel.candidates {
                for hop in c.path.nodes().windows(2) {
                    if let Some(e) = net.graph().find_edge(hop[0], hop[1]) {
                        edge_scratch.push(e);
                    }
                }
            }
            edge_scratch.sort_unstable();
            edge_scratch.dedup();
            for &e in &edge_scratch {
                self.edge_postings[e.index()].push(Posting {
                    key,
                    width: sel.width,
                    gen,
                    relay_ord: None,
                    endpoint_ord: None,
                });
                added += 1;
            }
        }

        if self.entries.len() > self.max_entries {
            // Evict the least-recently-stored pair (never the one just
            // written). Its postings die lazily via generation mismatch.
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(k, _)| *k);
            if let Some(k) = victim {
                self.entries.remove(&k);
                self.counters.entries_evicted.inc();
            }
        }

        self.postings_since_sweep += added;
        if self.postings_since_sweep >= self.sweep_threshold {
            self.sweep();
        }
    }

    /// Applies one residual-capacity delta `old -> new` at `node`.
    ///
    /// Slots whose certificate *tracks a kind the delta flips* at their
    /// width move down the repair lattice: a flip whose first-dependent
    /// search ordinal is 0 kills the slot (nothing of its construction
    /// survives), while one first depended on at ordinal `k > 0`
    /// *damages* it to `min(damage, k)` — searches before `k` never
    /// depended on the answer, so the log prefix `0..k` stays exactly
    /// reproducible and seeds a later repair. Widths outside the flip
    /// bands, and slots that read the node without ever depending on the
    /// flipped kind (`cert_saves`), keep byte-exact candidates.
    pub(crate) fn apply_node_delta(
        &mut self,
        net: &QuantumNetwork,
        node: NodeId,
        old: u32,
        new: u32,
    ) {
        if old == new {
            return;
        }
        let (relay_old, endpoint_old) = node_width_thresholds(net, node, old);
        let (relay_new, endpoint_new) = node_width_thresholds(net, node, new);
        let mut postings = std::mem::take(&mut self.node_postings[node.index()]);
        let mut killed = 0u64;
        let mut damaged = 0u64;
        let mut saved = 0u64;
        postings.retain(|p| {
            let relay_flip = flips(p.width, relay_old, relay_new);
            let endpoint_flip = flips(p.width, endpoint_old, endpoint_new);
            if !relay_flip && !endpoint_flip {
                // Nothing to classify — keep the posting without touching
                // the entry map. A stale posting retained here is
                // harmless: it never reaches a counter, and the periodic
                // sweep reclaims it.
                return true;
            }
            if self.slot_gen(p.key, p.width) != Some(p.gen) {
                return false; // stale: slot replaced, dropped, or evicted
            }
            // The damage point is the first search that depended on any
            // *flipped, tracked* answer. A flip of an untracked kind is
            // exactly what certificates exist to survive.
            let k = match (
                relay_flip.then_some(p.relay_ord).flatten(),
                endpoint_flip.then_some(p.endpoint_ord).flatten(),
            ) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let Some(k) = k else {
                saved += 1;
                return true;
            };
            self.counters.flip_ordinal.record(u64::from(k));
            if k > 0 {
                self.damage_slot(p.key, p.width, k);
                damaged += 1;
                // Keep the posting: the slot lives on (damaged) and a
                // deeper flip must still be able to reach it. Re-damaging
                // at the same ordinal is a no-op.
                true
            } else {
                self.kill_slot(p.key, p.width);
                killed += 1;
                false
            }
        });
        self.counters.invalidated_by_node.add(killed);
        self.counters.damaged.add(damaged);
        self.counters.cert_saves.add(saved);
        self.counters.killed_per_delta.record(killed);
        self.node_postings[node.index()] = postings;
    }

    /// Drops every slot with a cached candidate crossing `edge` (see the
    /// module docs for why this is a freshness policy).
    pub(crate) fn fail_edge(&mut self, net: &QuantumNetwork, edge: EdgeId) {
        let (u, v) = net.graph().endpoints(edge);
        let canon = net.graph().find_edge(u, v).unwrap_or(edge);
        let mut postings = std::mem::take(&mut self.edge_postings[canon.index()]);
        for p in postings.drain(..) {
            if self.slot_gen(p.key, p.width) == Some(p.gen) {
                self.kill_slot(p.key, p.width);
                self.counters.invalidated_by_edge.inc();
            }
        }
        self.edge_postings[canon.index()] = postings;
    }

    /// The live generation of slot `(key, width)`, if present. Width 0
    /// never has a slot (slots index `width - 1`).
    fn slot_gen(&self, key: (NodeId, NodeId), width: u32) -> Option<u64> {
        self.entries
            .get(&key)?
            .slots
            .get((width as usize).checked_sub(1)?)?
            .as_ref()
            .map(|s| s.gen)
    }

    fn kill_slot(&mut self, key: (NodeId, NodeId), width: u32) {
        let Some(wi) = (width as usize).checked_sub(1) else {
            return;
        };
        if let Some(entry) = self.entries.get_mut(&key) {
            if let Some(slot) = entry.slots.get_mut(wi) {
                *slot = None;
            }
        }
    }

    /// Demotes slot `(key, width)` to repairable at ordinal `k` (or
    /// deepens existing damage to `min(damage, k)`).
    fn damage_slot(&mut self, key: (NodeId, NodeId), width: u32, k: u32) {
        let Some(wi) = (width as usize).checked_sub(1) else {
            return;
        };
        if let Some(slot) = self
            .entries
            .get_mut(&key)
            .and_then(|e| e.slots.get_mut(wi))
            .and_then(|s| s.as_mut())
        {
            slot.damage = Some(slot.damage.map_or(k, |d| d.min(k)));
        }
    }

    /// Drops every stale posting; runs once per ~`sweep_threshold` new
    /// postings so hygiene cost stays amortized-constant per store.
    fn sweep(&mut self) {
        self.postings_since_sweep = 0;
        for i in 0..self.node_postings.len() {
            let mut list = std::mem::take(&mut self.node_postings[i]);
            list.retain(|p| self.slot_gen(p.key, p.width) == Some(p.gen));
            self.node_postings[i] = list;
        }
        for i in 0..self.edge_postings.len() {
            let mut list = std::mem::take(&mut self.edge_postings[i]);
            list.retain(|p| self.slot_gen(p.key, p.width) == Some(p.gen));
            self.edge_postings[i] = list;
        }
    }
}

/// `true` if moving a feasibility threshold from `a` to `b` changes the
/// answer `threshold >= width`: exactly the widths in `(min, max]`.
#[inline]
fn flips(width: u32, a: u32, b: u32) -> bool {
    let (lo, hi) = (a.min(b), a.max(b));
    lo < width && width <= hi
}

/// Merges a repaired slice's dependency set: the damaged slot's
/// certificate strata first depended on *before* the replayed prefix
/// ended (`ordinal < served` per kind — the only strata the served
/// results depend on) together with the live tail's certificate, keeping
/// the smaller first-dependent ordinal per kind for nodes in both.
/// Entries whose every kind falls at or past `served` drop out entirely.
/// Inputs and output are sorted by node.
fn merge_repair_footprint(prior: &[CertEntry], served: u32, live: &[CertEntry]) -> Vec<CertEntry> {
    let keep = |o: Option<u32>| o.filter(|&k| k < served);
    let min_kind = |a: Option<u32>, b: Option<u32>| match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    };
    let mut out: Vec<CertEntry> = Vec::with_capacity(prior.len() + live.len());
    let mut prior = prior
        .iter()
        .filter_map(|e| {
            let relay = keep(e.relay);
            let endpoint = keep(e.endpoint);
            (relay.is_some() || endpoint.is_some()).then_some(CertEntry {
                node: e.node,
                relay,
                endpoint,
            })
        })
        .peekable();
    let mut live = live.iter().copied().peekable();
    loop {
        match (prior.peek().copied(), live.peek().copied()) {
            (Some(p), Some(l)) => match p.node.cmp(&l.node) {
                std::cmp::Ordering::Less => {
                    out.push(p);
                    prior.next();
                }
                std::cmp::Ordering::Greater => {
                    out.push(l);
                    live.next();
                }
                std::cmp::Ordering::Equal => {
                    out.push(CertEntry {
                        node: p.node,
                        relay: min_kind(p.relay, l.relay),
                        endpoint: min_kind(p.endpoint, l.endpoint),
                    });
                    prior.next();
                    live.next();
                }
            },
            (Some(p), None) => {
                out.push(p);
                prior.next();
            }
            (None, Some(l)) => {
                out.push(l);
                live.next();
            }
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::algorithms::{SelectionEngine, SelectionQuery};
    use fusion_core::{Demand, NetworkParams, SwapMode};
    use fusion_topology::TopologyConfig;

    fn world() -> (QuantumNetwork, Vec<Demand>) {
        let topo = TopologyConfig {
            num_switches: 20,
            num_user_pairs: 3,
            avg_degree: 5.0,
            ..TopologyConfig::default()
        }
        .generate(13);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        (net, demands)
    }

    fn select_and_store(
        cache: &mut CandidateCache,
        engine: &mut SelectionEngine,
        net: &QuantumNetwork,
        demand: &Demand,
        caps: &[u32],
        max_width: u32,
    ) -> Vec<CandidatePath> {
        let key = (demand.source, demand.dest);
        let selected = engine.select_demand(
            net,
            demand,
            caps,
            SelectionQuery {
                h: 3,
                max_width,
                mode: SwapMode::NFusion,
            },
            |w| cache.reuse(key, w, demand.id),
        );
        cache.store(net, key, &selected);
        selected.into_iter().flat_map(|s| s.candidates).collect()
    }

    #[test]
    fn unchanged_capacity_is_a_full_hit_with_identical_bytes() {
        let (net, demands) = world();
        let caps = net.capacities();
        let mut cache = CandidateCache::new(&net, 64, &Registry::enabled());
        let mut engine = SelectionEngine::new();
        let first = select_and_store(&mut cache, &mut engine, &net, &demands[0], &caps, 4);
        let second = select_and_store(&mut cache, &mut engine, &net, &demands[0], &caps, 4);
        assert_eq!(first, second);
        assert_eq!(cache.counters.admissions.value(), 2);
        assert_eq!(cache.counters.misses.value(), 1);
        assert_eq!(cache.counters.full_hits.value(), 1);
        assert_eq!(cache.counters.widths_reused.value(), 4);
    }

    #[test]
    fn flip_bands_are_exact() {
        // relay threshold c/2: 10 -> 8 moves relay 5 -> 4 (flips width 5
        // only) and endpoint 10 -> 8 (flips widths 9, 10).
        assert!(flips(5, 5, 4));
        assert!(!flips(4, 5, 4));
        assert!(!flips(6, 5, 4));
        assert!(flips(9, 10, 8) && flips(10, 10, 8));
        assert!(!flips(8, 10, 8));
        // Symmetric: capacity increases flip the same band.
        assert!(flips(5, 4, 5));
        assert!(!flips(5, 5, 5));
    }

    #[test]
    fn node_delta_outside_band_keeps_slots() {
        let (net, demands) = world();
        let caps = net.capacities();
        let mut cache = CandidateCache::new(&net, 64, &Registry::enabled());
        let mut engine = SelectionEngine::new();
        select_and_store(&mut cache, &mut engine, &net, &demands[0], &caps, 2);
        // A switch losing 2 of its 10 qubits flips relay 5 -> 4 and
        // endpoint 10 -> 8: no width in 1..=2 is affected.
        let sw = net
            .graph()
            .node_ids()
            .find(|&v| net.is_switch(v) && caps[v.index()] == 10)
            .expect("default params give switches 10 qubits");
        cache.apply_node_delta(&net, sw, 10, 8);
        assert_eq!(cache.counters.invalidated_by_node.value(), 0);
        select_and_store(&mut cache, &mut engine, &net, &demands[0], &caps, 2);
        assert_eq!(
            cache.counters.full_hits.value(),
            1,
            "slots must have survived"
        );
    }

    #[test]
    fn node_delta_in_band_drops_only_affected_widths() {
        let (net, demands) = world();
        let caps = net.capacities();
        let mut cache = CandidateCache::new(&net, 64, &Registry::enabled());
        let mut engine = SelectionEngine::new();
        let d = &demands[0];
        select_and_store(&mut cache, &mut engine, &net, d, &caps, 3);
        // Dropping the source user's capacity to 0 flips its endpoint
        // feasibility at every width; the source is in every footprint.
        cache.apply_node_delta(&net, d.source, caps[d.source.index()], 0);
        assert_eq!(cache.counters.invalidated_by_node.value(), 3);
        assert!(matches!(
            cache.reuse((d.source, d.dest), 1, d.id),
            WidthReuse::Miss
        ));
    }

    #[test]
    fn fail_edge_drops_slots_whose_candidates_cross_it() {
        let (net, demands) = world();
        let caps = net.capacities();
        let mut cache = CandidateCache::new(&net, 64, &Registry::enabled());
        let mut engine = SelectionEngine::new();
        let d = &demands[0];
        let flat = select_and_store(&mut cache, &mut engine, &net, d, &caps, 2);
        let crossed = flat
            .iter()
            .flat_map(|c| c.path.nodes().windows(2))
            .next()
            .map(|hop| net.graph().find_edge(hop[0], hop[1]).unwrap());
        let Some(edge) = crossed else {
            return; // nothing routed on this world; nothing to test
        };
        cache.fail_edge(&net, edge);
        assert!(cache.counters.invalidated_by_edge.value() > 0);
        // An edge no candidate crosses must not invalidate anything.
        let before = cache.counters.invalidated_by_edge.value();
        let unused = net.graph().edge_ids().find(|&e| {
            let (u, v) = net.graph().endpoints(e);
            !flat.iter().any(|c| {
                c.path
                    .nodes()
                    .windows(2)
                    .any(|hop| (hop[0] == u && hop[1] == v) || (hop[0] == v && hop[1] == u))
            })
        });
        if let Some(e) = unused {
            cache.fail_edge(&net, e);
            assert_eq!(cache.counters.invalidated_by_edge.value(), before);
        }
    }

    #[test]
    fn entry_cap_evicts_oldest_pair() {
        let (net, demands) = world();
        let caps = net.capacities();
        let mut cache = CandidateCache::new(&net, 2, &Registry::enabled());
        let mut engine = SelectionEngine::new();
        for d in demands.iter().take(3) {
            select_and_store(&mut cache, &mut engine, &net, d, &caps, 2);
        }
        assert_eq!(cache.counters.entries_evicted.value(), 1);
        assert_eq!(cache.entries.len(), 2);
        // The first-stored pair is gone; the last two remain.
        let d0 = &demands[0];
        assert!(matches!(
            cache.reuse((d0.source, d0.dest), 1, d0.id),
            WidthReuse::Miss
        ));
    }

    #[test]
    fn width_zero_is_rejected_not_underflowed() {
        // Regression: `width as usize - 1` underflowed (debug panic) for
        // a width-0 query from a degenerate demand or future N-party
        // caller; every slot-indexing path now rejects width 0.
        let (net, demands) = world();
        let d = &demands[0];
        let key = (d.source, d.dest);
        let mut cache = CandidateCache::new(&net, 64, &Registry::enabled());
        assert!(matches!(cache.reuse(key, 0, d.id), WidthReuse::Miss));
        let degenerate = SelectedWidth {
            width: 0,
            candidates: Vec::new(),
            footprint: Some(Vec::new()),
            raw_reads: 0,
            log: Some(Vec::new()),
            served: 0,
        };
        cache.store(&net, key, &[degenerate]);
        assert!(matches!(cache.reuse(key, 0, d.id), WidthReuse::Miss));
        assert!(matches!(cache.reuse(key, 1, d.id), WidthReuse::Miss));
        // Internal helpers take the same guard.
        assert_eq!(cache.slot_gen(key, 0), None);
        cache.kill_slot(key, 0);
        cache.damage_slot(key, 0, 1);
    }

    #[test]
    fn damaged_slot_repairs_byte_identically() {
        let (net, demands) = world();
        let caps = net.capacities();
        let mut cache = CandidateCache::new(&net, 64, &Registry::enabled());
        let mut engine = SelectionEngine::new();
        let d = &demands[0];
        let key = (d.source, d.dest);
        select_and_store(&mut cache, &mut engine, &net, d, &caps, 4);
        // Pick a certificate entry whose *applicable* tracked kinds under
        // the delta `old -> 0` all sit past ordinal 0: the flip must
        // damage (not kill) its slot. Applicability follows the flip
        // bands: dropping to 0 flips the relay answer at widths
        // `<= old / 2` (switches) and the endpoint answer at widths
        // `<= old`.
        let entry = cache.entries.get(&key).expect("pair was stored");
        let picked = entry.slots.iter().enumerate().find_map(|(wi, slot)| {
            let s = slot.as_ref()?;
            let w = wi as u32 + 1;
            s.footprint.iter().find_map(|e| {
                let old = caps[e.node.index()];
                let relay_old = if net.is_switch(e.node) { old / 2 } else { 0 };
                let k = match (
                    (w <= relay_old).then_some(e.relay).flatten(),
                    (w <= old).then_some(e.endpoint).flatten(),
                ) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }?;
                (k > 0).then_some((e.node, k, w))
            })
        });
        let Some((v, o, w)) = picked else {
            panic!("fixture produced no damageable certificate entry past ordinal 0");
        };
        let mut caps2 = caps.clone();
        let old = caps2[v.index()];
        caps2[v.index()] = 0;
        cache.apply_node_delta(&net, v, old, 0);
        assert!(cache.counters.damaged.value() > 0, "slot must be damaged");
        match cache.reuse(key, w, d.id) {
            WidthReuse::Repair(seed) => assert_eq!(seed.intact, o),
            other => panic!("expected a repair seed, got {other:?}"),
        }
        // The repaired admission must equal a from-scratch engine run
        // under the post-delta capacities, byte for byte.
        let repaired = select_and_store(&mut cache, &mut engine, &net, d, &caps2, 4);
        assert!(cache.counters.repairs.value() > 0, "repair must be stored");
        let mut fresh = SelectionEngine::new();
        let scratch: Vec<CandidatePath> = fresh
            .select_demand(
                &net,
                d,
                &caps2,
                SelectionQuery {
                    h: 3,
                    max_width: 4,
                    mode: SwapMode::NFusion,
                },
                |_| WidthReuse::Miss,
            )
            .into_iter()
            .flat_map(|s| s.candidates)
            .collect();
        assert_eq!(repaired, scratch);
        // The repaired slot is live again and serves full hits.
        let again = select_and_store(&mut cache, &mut engine, &net, d, &caps2, 4);
        assert_eq!(again, scratch);
    }

    #[test]
    fn cap_eviction_counts_as_eviction_not_invalidation() {
        // Counter-semantics pin for `--stats` honesty: slots displaced by
        // the entry cap increment `entries_evicted` only; their stale
        // postings must die silently on the next delta, not masquerade as
        // footprint invalidations.
        let (net, demands) = world();
        let x = net
            .graph()
            .node_ids()
            .find(|&v| net.is_switch(v))
            .expect("world has switches");
        let slice = |o| SelectedWidth {
            width: 1,
            candidates: Vec::new(),
            footprint: Some(vec![CertEntry {
                node: x,
                relay: Some(o),
                endpoint: Some(o),
            }]),
            raw_reads: 1,
            log: Some(vec![None]),
            served: 0,
        };
        let key_a = (demands[0].source, demands[0].dest);
        let key_b = (demands[1].source, demands[1].dest);
        let mut cache = CandidateCache::new(&net, 1, &Registry::enabled());
        cache.store(&net, key_a, &[slice(0)]);
        cache.store(&net, key_b, &[slice(0)]); // cap 1: evicts pair A
        assert_eq!(cache.counters.entries_evicted.value(), 1);
        assert_eq!(cache.counters.invalidated_by_node.value(), 0);
        cache.apply_node_delta(&net, x, 10, 0);
        // Only B's live slot counts; A's posting is generation-stale.
        assert_eq!(cache.counters.invalidated_by_node.value(), 1);
        assert_eq!(cache.counters.entries_evicted.value(), 1);
        assert_eq!(cache.counters.damaged.value(), 0);
    }

    #[test]
    fn cap_eviction_of_repairable_slot_counts_as_eviction_not_kill() {
        // Regression for the repair lattice's counter semantics: a slot
        // sitting in the *repairable* state when the entry cap displaces
        // its pair must increment `entries_evicted` only — it is not a
        // new damage event, not a footprint kill, and its stale postings
        // must die silently on the next delta.
        let (net, demands) = world();
        let x = net
            .graph()
            .node_ids()
            .find(|&v| net.is_switch(v))
            .expect("world has switches");
        let slice = |o| SelectedWidth {
            width: 1,
            candidates: Vec::new(),
            footprint: Some(vec![CertEntry {
                node: x,
                relay: Some(o),
                endpoint: Some(o),
            }]),
            raw_reads: 1,
            log: Some(vec![None, None]),
            served: 0,
        };
        let key_a = (demands[0].source, demands[0].dest);
        let key_b = (demands[1].source, demands[1].dest);
        let mut cache = CandidateCache::new(&net, 1, &Registry::enabled());
        cache.store(&net, key_a, &[slice(1)]);
        // Damage A's slot: it is now repairable, with a live posting.
        cache.apply_node_delta(&net, x, 10, 0);
        assert_eq!(cache.counters.damaged.value(), 1);
        assert!(matches!(
            cache.reuse(key_a, 1, demands[0].id),
            WidthReuse::Repair(_)
        ));
        // Cap 1: storing pair B evicts the repairable pair A wholesale.
        cache.store(&net, key_b, &[slice(1)]);
        assert_eq!(cache.counters.entries_evicted.value(), 1);
        assert!(matches!(
            cache.reuse(key_a, 1, demands[0].id),
            WidthReuse::Miss
        ));
        // The eviction is not an invalidation, a kill, or more damage.
        assert_eq!(cache.counters.invalidated_by_node.value(), 0);
        assert_eq!(cache.counters.damaged.value(), 1);
        // A's stale posting dies silently; only B's live slot reacts
        // (damaged at ordinal 1 again — B's slot, not A's).
        cache.apply_node_delta(&net, x, 10, 0);
        assert_eq!(cache.counters.invalidated_by_node.value(), 0);
        assert_eq!(cache.counters.damaged.value(), 2);
        assert_eq!(cache.counters.entries_evicted.value(), 1);
    }

    #[test]
    fn untracked_kind_flip_is_a_cert_save() {
        // A delta that flips only a kind the certificate does not track
        // must retain the slot byte-for-byte and count a `cert_saves`.
        let (net, demands) = world();
        let x = net
            .graph()
            .node_ids()
            .find(|&v| net.is_switch(v))
            .expect("world has switches");
        let key = (demands[0].source, demands[0].dest);
        // Width-4 slice tracking only x's relay answer. Capacity 10 -> 8
        // flips the endpoint answer at widths 9..=10 and the relay answer
        // at width 5 only — width 4 tracks relay, which does not flip.
        let slice = SelectedWidth {
            width: 4,
            candidates: Vec::new(),
            footprint: Some(vec![CertEntry {
                node: x,
                relay: Some(0),
                endpoint: None,
            }]),
            raw_reads: 1,
            log: Some(vec![None]),
            served: 0,
        };
        let mut cache = CandidateCache::new(&net, 4, &Registry::enabled());
        cache.store(&net, key, &[slice]);
        cache.apply_node_delta(&net, x, 10, 8);
        assert_eq!(cache.counters.cert_saves.value(), 0, "no band flipped at width 4");
        // 10 -> 6 flips relay at widths 4..=5: the tracked kind dies.
        // But first: 10 -> 7 flips endpoint at 8..=10 and relay at 4..=5
        // — width 4 is in the relay band, tracked, ordinal 0: kill.
        // Use a fresh pair for the untracked case: endpoint-only flip.
        let key_b = (demands[1].source, demands[1].dest);
        let slice_b = SelectedWidth {
            width: 9,
            candidates: Vec::new(),
            footprint: Some(vec![CertEntry {
                node: x,
                relay: Some(0),
                endpoint: None,
            }]),
            raw_reads: 1,
            log: Some(vec![None]),
            served: 0,
        };
        cache.store(&net, key_b, &[slice_b]);
        // 10 -> 8 flips the endpoint answer at width 9; the certificate
        // tracks only relay (which moves 5 -> 4, not reaching width 9).
        cache.apply_node_delta(&net, x, 10, 8);
        assert_eq!(cache.counters.cert_saves.value(), 1);
        assert_eq!(cache.counters.invalidated_by_node.value(), 0);
        assert_eq!(cache.counters.damaged.value(), 0);
        assert!(
            matches!(cache.reuse(key_b, 9, demands[1].id), WidthReuse::Full(_)),
            "saved slot must still serve"
        );
    }

    #[test]
    fn sweep_threshold_is_construction_fixed() {
        // Pinned as intentional: the threshold amortizes posting hygiene
        // over the network's structural size, and the structure never
        // mutates — `fail_link` is a routing freshness event, not an
        // edge removal, so recomputing the bound after one would be
        // drift, not correction.
        let (net, _) = world();
        let mut cache = CandidateCache::new(&net, 64, &Registry::enabled());
        let expected = (8 * (net.node_count() + net.graph().edge_count())).max(4096);
        assert_eq!(cache.sweep_threshold, expected);
        let e = net.graph().edge_ids().next().expect("world has edges");
        cache.fail_edge(&net, e);
        cache.fail_edge(&net, e);
        assert_eq!(cache.sweep_threshold, expected);
    }

    #[test]
    fn sweep_discards_stale_postings() {
        let (net, demands) = world();
        let caps = net.capacities();
        let mut cache = CandidateCache::new(&net, 64, &Registry::enabled());
        cache.sweep_threshold = 1; // sweep after every store
        let mut engine = SelectionEngine::new();
        let d = &demands[0];
        select_and_store(&mut cache, &mut engine, &net, d, &caps, 2);
        // Invalidate everything, then store again: the sweep after the
        // second store must leave only live-generation postings.
        cache.apply_node_delta(&net, d.source, caps[d.source.index()], 0);
        select_and_store(&mut cache, &mut engine, &net, d, &caps, 2);
        for (i, list) in cache.node_postings.iter().enumerate() {
            for p in list {
                assert_eq!(
                    cache.slot_gen(p.key, p.width),
                    Some(p.gen),
                    "stale posting survived sweep at node {i}"
                );
            }
        }
    }
}

/// Test support for driving the repair path through the full admission
/// stack: organic churn traces reach damage-then-reuse only in a deep
/// tail (a delta batch must flip *only* spur-only reads of a slot that
/// is queried again before any other batch lands), so state-level tests
/// inflict the smallest such damage directly. Extra damage is always
/// conservative: the repaired widths are recomputed against the live
/// residuals, so byte-identity is unaffected.
#[cfg(test)]
impl CandidateCache {
    /// The lowest-width live slot a churn flip could damage without
    /// killing, as `(key, width, ordinal)`: prefers a slot with a
    /// spur-only read (a real flip there damages at that ordinal); falls
    /// back to any slot whose log ran past the first search, damaged at
    /// ordinal 1.
    pub(crate) fn first_repairable(&self) -> Option<((NodeId, NodeId), u32, u32)> {
        let spur_only = self.entries.iter().find_map(|(&key, entry)| {
            entry.slots.iter().enumerate().find_map(|(wi, slot)| {
                let s = slot.as_ref()?;
                let e = s.footprint.iter().find(|e| e.first_ordinal() > 0)?;
                Some((key, wi as u32 + 1, e.first_ordinal()))
            })
        });
        spur_only.or_else(|| {
            self.entries.iter().find_map(|(&key, entry)| {
                entry.slots.iter().enumerate().find_map(|(wi, slot)| {
                    let s = slot.as_ref()?;
                    (s.log.len() > 1).then_some((key, wi as u32 + 1, 1))
                })
            })
        })
    }

    /// Damage `(key, width)` from ordinal `k`, as a flip on a node first
    /// read at `k` would.
    pub(crate) fn damage_for_test(&mut self, key: (NodeId, NodeId), width: u32, k: u32) {
        self.damage_slot(key, width, k);
    }
}
