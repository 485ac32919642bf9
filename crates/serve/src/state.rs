//! The epoch-versioned service state: network, live plans, residual
//! ledger.
//!
//! [`ServiceState`] is the long-lived object the online engine mutates:
//! [`admit`](ServiceState::admit) routes a new demand with the batch
//! pipeline's width-descent engine restricted to the ledger's residual
//! capacity, [`depart`](ServiceState::depart) tears a plan down and
//! returns its capacity exactly, and [`fail_link`](ServiceState::fail_link)
//! evicts every plan crossing a failed fiber. Every successful mutation
//! bumps the epoch; rejected admissions are strict no-ops.
//!
//! The admission contract (locked down by `tests/service_oracle.rs`): the
//! candidates, merge outcome, and finished plan of an admission against
//! the residual ledger are byte-identical to running the batch pipeline
//! on a network whose capacities are pre-reduced by the live plans
//! ([`QuantumNetwork::with_capacities`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use fusion_core::algorithms::{
    route_from_candidates_counted, route_with_capacity_counted, AdmitStrategy, CandidatePath,
    RouteTrace, RoutingConfig, SelectionEngine, SelectionQuery,
};
use fusion_core::{Demand, DemandId, DemandPlan, QuantumNetwork, ResourceUsage};
use fusion_graph::{EdgeId, NodeId};
use fusion_telemetry::{Counter, Registry};

use crate::cache::CandidateCache;
use crate::ledger::ResidualLedger;

/// Upper bound on cached `(source, dest)` pair entries. Far above any
/// realistic recurring-demand population, far below what an adversarial
/// all-pairs trace could otherwise pin in memory.
const MAX_CACHED_PAIRS: usize = 1024;

/// The incremental admission machinery: the persistent width-descent
/// engine and the footprint-invalidated candidate cache it feeds.
#[derive(Debug, Clone)]
struct IncrementalAdmission {
    engine: SelectionEngine,
    cache: CandidateCache,
}

/// Stable identifier of one live (or departed) plan. Ids are assigned in
/// admission order and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanId(u64);

impl PlanId {
    /// Raw index of this plan id.
    #[must_use]
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One admitted demand: its plan, its exact resource footprint, and its
/// admission metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct LivePlan {
    /// The plan's stable id.
    pub id: PlanId,
    /// The routed structure serving the demand.
    pub plan: DemandPlan,
    /// Exact resources charged on the ledger at admission; released
    /// verbatim at departure.
    pub usage: ResourceUsage,
    /// Analytic success probability at admission time.
    pub rate: f64,
    /// Epoch at which the plan was admitted.
    pub admitted_epoch: u64,
}

/// Why an admission was refused. Refusals leave the state untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No switch has a free qubit left — routing was not even attempted.
    Saturated,
    /// The pipeline ran but found no feasible route under the residual
    /// capacity.
    NoRoute,
}

/// Outcome of one [`ServiceState::admit`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitOutcome {
    /// The demand was routed; its plan is now live.
    Accepted {
        /// Id of the new live plan.
        id: PlanId,
        /// Analytic success probability of the admitted plan.
        rate: f64,
    },
    /// The demand could not be served; nothing changed.
    Rejected(RejectReason),
}

impl AdmitOutcome {
    /// The new plan's id, if admitted.
    #[must_use]
    pub fn id(&self) -> Option<PlanId> {
        match self {
            AdmitOutcome::Accepted { id, .. } => Some(*id),
            AdmitOutcome::Rejected(_) => None,
        }
    }
}

/// A comparable snapshot of the full service state — what the no-op and
/// determinism oracles assert equality over.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDigest {
    /// Mutation counter.
    pub epoch: u64,
    /// Next plan id to be assigned.
    pub next_plan: u64,
    /// The complete residual ledger.
    pub ledger: ResidualLedger,
    /// Every live plan's id and exact footprint, in id order.
    pub live: Vec<(PlanId, ResourceUsage)>,
}

/// The online demand engine's state: the network, the live plan set, and
/// the residual-capacity ledger, all versioned by a mutation epoch.
#[derive(Debug, Clone)]
pub struct ServiceState {
    net: QuantumNetwork,
    config: RoutingConfig,
    epoch: u64,
    next_plan: u64,
    live: BTreeMap<PlanId, LivePlan>,
    ledger: ResidualLedger,
    /// Present iff `config.admit_strategy` is
    /// [`AdmitStrategy::Incremental`]. Not part of the digest: the cache
    /// only ever changes *when* work happens, never *what* is computed.
    incremental: Option<Box<IncrementalAdmission>>,
    /// The telemetry registry every layer under this state records into
    /// (`serve.cache.*`, `alg2.*`, `alg3.*`, `mc.*`, `serve.replay.*`).
    /// Disabled by default; never part of the digest.
    registry: Registry,
    /// Canonical edge → epoch of its most recent `fail_link`: a repeat
    /// cut with no interleaving mutation is a counted no-op.
    failed_at: HashMap<EdgeId, u64>,
    /// `fail_link` calls short-circuited as double cuts
    /// (`serve.fail_link_noops`).
    fail_link_noops: Counter,
}

impl ServiceState {
    /// A fresh service over `net`: no live plans, everything free, no
    /// telemetry recorded.
    #[must_use]
    pub fn new(net: QuantumNetwork, config: RoutingConfig) -> Self {
        Self::with_telemetry(net, config, Registry::disabled())
    }

    /// [`new`](ServiceState::new), recording telemetry into `registry`.
    /// Counters are observational only: enabled and disabled registries
    /// produce byte-identical plans, logs, and digests.
    #[must_use]
    pub fn with_telemetry(net: QuantumNetwork, config: RoutingConfig, registry: Registry) -> Self {
        let ledger = ResidualLedger::new(&net);
        let incremental = match config.admit_strategy {
            AdmitStrategy::Incremental => {
                let mut engine = SelectionEngine::new();
                engine.set_registry(&registry);
                Some(Box::new(IncrementalAdmission {
                    engine,
                    cache: CandidateCache::new(&net, MAX_CACHED_PAIRS, &registry),
                }))
            }
            AdmitStrategy::FromScratch => None,
        };
        let fail_link_noops = registry.counter("serve.fail_link_noops");
        ServiceState {
            net,
            config,
            epoch: 0,
            next_plan: 0,
            live: BTreeMap::new(),
            ledger,
            incremental,
            registry,
            failed_at: HashMap::new(),
            fail_link_noops,
        }
    }

    /// The telemetry registry this state records into. Snapshot it for
    /// `serve.cache.*` / `alg2.*` counters, or hand it to co-operating
    /// layers (the replay loop records `serve.replay.*` through it).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The network being served.
    #[must_use]
    pub fn network(&self) -> &QuantumNetwork {
        &self.net
    }

    /// The routing configuration admissions run under.
    #[must_use]
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// The mutation epoch: bumped by every accepted admission, departure,
    /// and eviction — never by rejections.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live plans.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Iterates the live plans in id order.
    pub fn live_plans(&self) -> impl Iterator<Item = &LivePlan> + '_ {
        self.live.values()
    }

    /// Looks up one live plan.
    #[must_use]
    pub fn get(&self, id: PlanId) -> Option<&LivePlan> {
        self.live.get(&id)
    }

    /// The residual-capacity ledger.
    #[must_use]
    pub fn ledger(&self) -> &ResidualLedger {
        &self.ledger
    }

    /// Residual qubits per node — what the next admission routes against.
    #[must_use]
    pub fn residual(&self) -> &[u32] {
        self.ledger.residual()
    }

    /// A copy of the network whose capacities equal the current residual —
    /// the batch side of the equivalence oracle: the batch pipeline on
    /// this network must produce byte-identical output to
    /// [`admission_trace`](ServiceState::admission_trace).
    #[must_use]
    pub fn reduced_network(&self) -> QuantumNetwork {
        self.net.with_capacities(self.ledger.residual())
    }

    /// The demand the next admission of `source -> dest` would route.
    /// Demand ids are assigned from the plan-id counter, so the id (and
    /// with it the whole routed plan) is reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `source == dest`.
    #[must_use]
    pub fn next_demand(&self, source: NodeId, dest: NodeId) -> Demand {
        Demand::new(
            DemandId::new(usize::try_from(self.next_plan).expect("plan counter fits usize")),
            source,
            dest,
        )
    }

    /// Runs the *from-scratch* admission pipeline for `source -> dest`
    /// against the residual ledger — always
    /// [`route_with_capacity_counted`] end to end, regardless of
    /// `config.admit_strategy` — *without mutating anything*, returning
    /// the full per-stage trace. `None` when no switch has a free qubit
    /// (the pipeline cannot run on a width bound of zero).
    ///
    /// This is the reference side of both equivalence oracles: the
    /// residual-capacity oracle compares it against the batch pipeline on
    /// [`reduced_network`](ServiceState::reduced_network), and the
    /// incremental oracle compares cached admissions against it.
    ///
    /// # Panics
    ///
    /// Panics if `source == dest`.
    #[must_use]
    pub fn admission_trace(&self, source: NodeId, dest: NodeId) -> Option<RouteTrace> {
        let residual = self.ledger.residual();
        if self.net.max_switch_capacity_in(residual) == 0 {
            return None;
        }
        let demand = self.next_demand(source, dest);
        Some(route_with_capacity_counted(
            &self.net,
            &[demand],
            &self.config,
            residual,
            1,
            &self.registry,
        ))
    }

    /// The incremental admission path: candidate construction through the
    /// persistent [`SelectionEngine`], reusing every cached width slice
    /// the cache still vouches for, then the ordinary merge + Algorithm 4
    /// on the assembled candidates. Byte-identical to
    /// [`admission_trace`](ServiceState::admission_trace) by the
    /// footprint-invalidation contract (see `cache.rs`), which
    /// `tests/incremental_oracle.rs` enforces.
    fn incremental_trace(&mut self, source: NodeId, dest: NodeId) -> Option<RouteTrace> {
        let ServiceState {
            net,
            config,
            next_plan,
            ledger,
            incremental,
            registry,
            ..
        } = self;
        let residual = ledger.residual();
        if net.max_switch_capacity_in(residual) == 0 {
            return None;
        }
        let max_width = config
            .max_width
            .unwrap_or_else(|| net.max_switch_capacity_in(residual));
        let demand = Demand::new(
            DemandId::new(usize::try_from(*next_plan).expect("plan counter fits usize")),
            source,
            dest,
        );
        let key = (source, dest);
        let IncrementalAdmission { engine, cache } = incremental
            .as_mut()
            .expect("incremental_trace requires the incremental strategy")
            .as_mut();
        let selected = engine.select_demand(
            net,
            &demand,
            residual,
            SelectionQuery {
                h: config.h,
                max_width,
                mode: config.mode,
            },
            |w| cache.reuse(key, w, demand.id),
        );
        cache.store(net, key, &selected);
        let candidates: Vec<CandidatePath> =
            selected.into_iter().flat_map(|s| s.candidates).collect();
        Some(route_from_candidates_counted(
            net,
            &[demand],
            config,
            residual,
            candidates,
            registry,
        ))
    }

    /// Routes a new demand against the residual capacity and, if a route
    /// exists, charges it on the ledger and adds it to the live set.
    /// Rejected admissions leave the state (and its digest) bit-for-bit
    /// unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use fusion_core::algorithms::RoutingConfig;
    /// use fusion_core::{NetworkParams, QuantumNetwork};
    /// use fusion_serve::{AdmitOutcome, ServiceState};
    /// use fusion_topology::TopologyConfig;
    ///
    /// let topo = TopologyConfig::default().generate(7);
    /// let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    /// let users: Vec<_> = net
    ///     .graph()
    ///     .node_ids()
    ///     .filter(|&v| !net.is_switch(v))
    ///     .collect();
    /// let mut state = ServiceState::new(net, RoutingConfig::n_fusion());
    ///
    /// match state.admit(users[0], users[1]) {
    ///     AdmitOutcome::Accepted { id, rate } => {
    ///         assert!(rate > 0.0);
    ///         state.depart(id); // capacity returns exactly
    ///     }
    ///     AdmitOutcome::Rejected(reason) => println!("rejected: {reason:?}"),
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `source == dest`.
    pub fn admit(&mut self, source: NodeId, dest: NodeId) -> AdmitOutcome {
        self.admit_traced(source, dest).0
    }

    /// [`admit`](ServiceState::admit), also returning the admission's
    /// full pipeline trace (`None` when the network was saturated and the
    /// pipeline never ran) — the hook the incremental-vs-from-scratch
    /// differential oracle compares per event.
    ///
    /// # Panics
    ///
    /// Panics if `source == dest`.
    pub fn admit_traced(
        &mut self,
        source: NodeId,
        dest: NodeId,
    ) -> (AdmitOutcome, Option<RouteTrace>) {
        let trace = if self.incremental.is_some() {
            self.incremental_trace(source, dest)
        } else {
            self.admission_trace(source, dest)
        };
        let Some(trace) = trace else {
            return (AdmitOutcome::Rejected(RejectReason::Saturated), None);
        };
        let plan = trace
            .plan
            .plans
            .last()
            .expect("one demand in, one plan out")
            .clone();
        if plan.is_unserved() {
            return (AdmitOutcome::Rejected(RejectReason::NoRoute), Some(trace));
        }
        let usage = plan.resource_usage();
        let rate = plan.rate(&self.net, self.config.mode);
        // The charge below changes residuals at every node the plan
        // touches; tell the cache before the ledger moves so the deltas
        // see the pre-charge values.
        self.note_usage_delta(&usage, true);
        self.ledger
            .charge(&self.net, &usage)
            .expect("pipeline respects residual capacity");
        let id = PlanId(self.next_plan);
        self.next_plan += 1;
        self.epoch += 1;
        self.live.insert(
            id,
            LivePlan {
                id,
                plan,
                usage,
                rate,
                admitted_epoch: self.epoch,
            },
        );
        (AdmitOutcome::Accepted { id, rate }, Some(trace))
    }

    /// Feeds one about-to-be-applied residual change into the candidate
    /// cache: `charge` true when `usage` is being charged (residual
    /// drops), false when released. Must run *before* the ledger mutates
    /// so `old` reads the pre-change residuals. No-op under the
    /// from-scratch strategy.
    fn note_usage_delta(&mut self, usage: &ResourceUsage, charge: bool) {
        let ServiceState {
            net,
            ledger,
            incremental,
            ..
        } = self;
        let Some(inc) = incremental.as_mut() else {
            return;
        };
        let residual = ledger.residual();
        for &(node, qubits) in &usage.node_qubits {
            let old = residual[node.index()];
            let new = if charge { old - qubits } else { old + qubits };
            inc.cache.apply_node_delta(net, node, old, new);
        }
    }

    /// Tears a live plan down, returning its capacity to the ledger
    /// exactly. `None` (and no state change) if `id` is not live.
    pub fn depart(&mut self, id: PlanId) -> Option<LivePlan> {
        let lp = self.live.remove(&id)?;
        self.note_usage_delta(&lp.usage, false);
        self.ledger
            .release(&self.net, &lp.usage)
            .expect("live usage was charged at admission");
        self.epoch += 1;
        Some(lp)
    }

    /// A transient fiber cut: every live plan whose flow crosses `edge` is
    /// evicted and its capacity returned. Returns the evicted ids in id
    /// order. The link itself recovers immediately — affected demands must
    /// be re-admitted by the caller (the replay harness does not, matching
    /// the "cut costs you your sessions" model).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of bounds.
    pub fn fail_link(&mut self, edge: EdgeId) -> Vec<PlanId> {
        let (u, v) = self.net.graph().endpoints(edge);
        let canon = self.net.graph().find_edge(u, v).unwrap_or(edge);
        // Double cut: if this fiber already failed and nothing mutated
        // the state since (same epoch), the first cut already evicted
        // every crossing plan and cached route — re-scanning the live set
        // and posting lists would find nothing. Counted, not silent.
        // (Cache slots stored by *rejected* admissions in between are not
        // re-dropped; that is a freshness nuance, never a soundness one —
        // the network model does not mutate on a cut.)
        if self.failed_at.get(&canon) == Some(&self.epoch) {
            self.fail_link_noops.inc();
            return Vec::new();
        }
        // Freshness policy: cached candidates that cross the cut fiber
        // are dropped even though the network model never mutates —
        // routing bytes are unaffected (the ledger deltas below handle
        // that), but routes planned over a fiber that just failed should
        // not be replayed from cache indefinitely.
        if let Some(inc) = self.incremental.as_mut() {
            inc.cache.fail_edge(&self.net, edge);
        }
        let key = if u <= v { (u, v) } else { (v, u) };
        let victims: Vec<PlanId> = self
            .live
            .values()
            .filter(|lp| lp.usage.edge_channels.iter().any(|&(pair, _)| pair == key))
            .map(|lp| lp.id)
            .collect();
        for &id in &victims {
            self.depart(id).expect("victim was live");
        }
        self.failed_at.insert(canon, self.epoch);
        victims
    }

    /// Audits the ledger against the live plan set: every charged qubit
    /// and channel must be pinned by exactly one live plan.
    ///
    /// # Errors
    ///
    /// A description of the first imbalance.
    pub fn audit(&self) -> Result<(), String> {
        self.ledger
            .audit(&self.net, self.live.values().map(|lp| &lp.usage))
    }

    /// A comparable snapshot of the full state.
    #[must_use]
    pub fn digest(&self) -> StateDigest {
        StateDigest {
            epoch: self.epoch,
            next_plan: self.next_plan,
            ledger: self.ledger.clone(),
            live: self
                .live
                .values()
                .map(|lp| (lp.id, lp.usage.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::NetworkParams;
    use fusion_topology::TopologyConfig;

    fn world() -> (ServiceState, Vec<Demand>) {
        let topo = TopologyConfig {
            num_switches: 25,
            num_user_pairs: 4,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(7);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        (ServiceState::new(net, RoutingConfig::n_fusion()), demands)
    }

    #[test]
    fn admit_then_depart_restores_everything() {
        let (mut state, demands) = world();
        let pristine = state.digest();
        assert!(state.ledger().is_pristine());
        let d = demands[0];
        let AdmitOutcome::Accepted { id, rate } = state.admit(d.source, d.dest) else {
            panic!("default small world must route its first demand");
        };
        assert!(rate > 0.0);
        assert_eq!(state.live_count(), 1);
        assert_eq!(state.epoch(), 1);
        state.audit().unwrap();
        let lp = state.depart(id).unwrap();
        assert_eq!(lp.id, id);
        assert!(state.ledger().is_pristine());
        assert_eq!(state.epoch(), 2);
        // Everything except the consumed id and epochs is restored.
        let after = state.digest();
        assert_eq!(after.ledger, pristine.ledger);
        assert!(after.live.is_empty());
    }

    #[test]
    fn depart_unknown_is_a_no_op() {
        let (mut state, _) = world();
        let before = state.digest();
        assert!(state.depart(PlanId(42)).is_none());
        assert_eq!(state.digest(), before);
    }

    #[test]
    fn admissions_contend_for_capacity() {
        let (mut state, demands) = world();
        // Admitting the same user pair repeatedly must eventually exhaust
        // the residual capacity around the pair and get rejected, without
        // ever panicking or overdrawing.
        let d = demands[0];
        let mut accepted = 0;
        for _ in 0..200 {
            match state.admit(d.source, d.dest) {
                AdmitOutcome::Accepted { .. } => accepted += 1,
                AdmitOutcome::Rejected(_) => break,
            }
            state.audit().unwrap();
        }
        assert!(accepted > 0, "first admission must succeed");
        assert!(
            accepted < 200,
            "finite switch capacity cannot serve 200 copies"
        );
    }

    #[test]
    fn rejection_is_bit_exact_no_op() {
        let (mut state, demands) = world();
        let d = demands[0];
        // Saturate the pair.
        while let AdmitOutcome::Accepted { .. } = state.admit(d.source, d.dest) {}
        let before = state.digest();
        assert_eq!(
            state.admit(d.source, d.dest),
            AdmitOutcome::Rejected(RejectReason::NoRoute)
        );
        assert_eq!(state.digest(), before);
    }

    #[test]
    fn fail_link_evicts_crossing_plans_and_returns_capacity() {
        let (mut state, demands) = world();
        let d = demands[0];
        let AdmitOutcome::Accepted { id, .. } = state.admit(d.source, d.dest) else {
            panic!("first admission must succeed");
        };
        let lp = state.get(id).unwrap().clone();
        let &((u, v), _) = lp.usage.edge_channels.first().expect("plan uses edges");
        let edge = state.network().graph().find_edge(u, v).unwrap();
        let evicted = state.fail_link(edge);
        assert_eq!(evicted, vec![id]);
        assert!(state.ledger().is_pristine(), "capacity fully returned");
        state.audit().unwrap();
        // A second cut on the same link evicts nothing.
        assert!(state.fail_link(edge).is_empty());
    }

    #[test]
    fn double_cut_is_a_counted_noop_until_state_mutates() {
        let topo = TopologyConfig {
            num_switches: 25,
            num_user_pairs: 4,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(7);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        let registry = Registry::enabled();
        let noops = registry.counter("serve.fail_link_noops");
        let mut state = ServiceState::with_telemetry(net, RoutingConfig::n_fusion(), registry);

        let d = demands[0];
        let AdmitOutcome::Accepted { id, .. } = state.admit(d.source, d.dest) else {
            panic!("first admission must succeed");
        };
        let lp = state.get(id).unwrap().clone();
        let &((u, v), _) = lp.usage.edge_channels.first().expect("plan uses edges");
        let edge = state.network().graph().find_edge(u, v).unwrap();

        assert_eq!(state.fail_link(edge), vec![id]);
        assert_eq!(noops.value(), 0, "first cut takes the full path");
        // Same epoch, same fiber: counted no-op, no rescanning.
        assert!(state.fail_link(edge).is_empty());
        assert_eq!(noops.value(), 1);
        assert!(state.fail_link(edge).is_empty());
        assert_eq!(noops.value(), 2);

        // Any state mutation bumps the epoch and re-enables the full
        // path (an admission may have routed over the cut fiber again).
        let AdmitOutcome::Accepted { id: id2, .. } = state.admit(d.source, d.dest) else {
            panic!("re-admission must succeed (capacity was returned)");
        };
        let victims = state.fail_link(edge);
        assert_eq!(noops.value(), 2, "post-mutation cut is not a no-op");
        // The re-admitted plan is only a victim if it crossed the fiber.
        let crossed = state.get(id2).is_none();
        assert_eq!(victims.contains(&id2), crossed);
        state.audit().unwrap();
    }

    /// The repair path through the *full* admission stack: a damaged
    /// slot must be replayed up to its intact prefix, recomputed past
    /// it, counted (`serve.cache.repairs`, `serve.cache.repair_depth`),
    /// and stay byte-identical to a from-scratch twin. Organic churn
    /// traces reach damage-then-reuse only in a deep tail (the flipping
    /// batch must avoid every ordinal-0 read of the slot), so the
    /// minimal damage is inflicted directly — which is conservative:
    /// repaired widths recompute against live residuals either way.
    #[test]
    fn repair_fires_through_the_full_admission_path() {
        let topo = TopologyConfig {
            num_switches: 20,
            num_user_pairs: 3,
            avg_degree: 5.0,
            ..TopologyConfig::default()
        }
        .generate(13);
        let build = |strategy| {
            let net = QuantumNetwork::from_topology(
                &topo,
                &NetworkParams {
                    switch_capacity: 48,
                    ..NetworkParams::default()
                },
            );
            ServiceState::with_telemetry(
                net,
                RoutingConfig {
                    admit_strategy: strategy,
                    max_width: Some(4),
                    ..RoutingConfig::n_fusion()
                },
                Registry::enabled(),
            )
        };
        let mut inc = build(AdmitStrategy::Incremental);
        let mut scr = build(AdmitStrategy::FromScratch);
        let demands = Demand::from_topology(&topo);

        // Two admissions: the first charges the network, both pairs'
        // slots survive the charges (capacity 48 keeps the flip bands
        // away from widths <= 4) with multi-search logs and late-ordinal
        // certificate reads — exactly the shape organic damage needs.
        // Damage the lowest such slot, then re-admit its own pair.
        for dm in &demands[..2] {
            let (a, ta) = inc.admit_traced(dm.source, dm.dest);
            let (b, tb) = scr.admit_traced(dm.source, dm.dest);
            assert_eq!(a, b);
            assert!(ta == tb, "warmup trace diverged");
            assert!(matches!(a, AdmitOutcome::Accepted { .. }));
        }

        let cache = &mut inc.incremental.as_mut().expect("incremental state").cache;
        let (key, w, k) = cache
            .first_repairable()
            .expect("fixture must store a repairable slot (seed 13 does)");
        assert!(k > 0);
        cache.damage_for_test(key, w, k);
        let (s, d) = key;

        let (a, ta) = inc.admit_traced(s, d);
        let (b, tb) = scr.admit_traced(s, d);
        assert_eq!(a, b, "repaired admission outcome diverged");
        assert!(ta == tb, "repaired admission trace diverged");
        assert!(inc.digest() == scr.digest());
        let snap = inc.registry().snapshot();
        assert!(
            snap.value("serve.cache.repairs") >= 1,
            "damaged slot was never repair-served"
        );
        assert_eq!(
            snap.value("serve.cache.repair_depth/count"),
            snap.value("serve.cache.repairs"),
            "every repair records its depth"
        );
        inc.audit().unwrap();
        scr.audit().unwrap();
    }
}

