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
//! Every admission builds its Algorithm 2 candidates with one persistent
//! [`SelectionEngine`], which keeps the descent setup (channel tables,
//! search arena, reachability view) alive between admissions, then runs
//! the ordinary merge and Algorithm 4 on them.
//!
//! The admission contract (locked down by `tests/service_oracle.rs`): the
//! candidates, merge outcome, and finished plan of an admission against
//! the residual ledger are byte-identical to running the batch pipeline
//! on a network whose capacities are pre-reduced by the live plans
//! ([`QuantumNetwork::with_capacities`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use fusion_core::algorithms::{
    route_from_candidates, RouteTrace, RoutingConfig, SelectionEngine, SelectionQuery,
};
use fusion_core::{Demand, DemandId, DemandPlan, QuantumNetwork, ResourceUsage};
use fusion_graph::{EdgeId, NodeId};
use fusion_telemetry::{Counter, Registry};

use crate::ledger::ResidualLedger;

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
    /// The persistent Algorithm 2 engine every admission runs on. Not
    /// part of the digest: it only keeps setup alive between admissions,
    /// never changes what is computed.
    engine: SelectionEngine,
    /// The telemetry registry every layer under this state records into
    /// (`serve.fail_link_noops`, `alg2.*`, `alg3.*`, `mc.*`,
    /// `serve.replay.*`).
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
        let mut engine = SelectionEngine::new();
        engine.set_registry(&registry);
        let fail_link_noops = registry.counter("serve.fail_link_noops");
        ServiceState {
            net,
            config,
            epoch: 0,
            next_plan: 0,
            live: BTreeMap::new(),
            ledger,
            engine,
            registry,
            failed_at: HashMap::new(),
            fail_link_noops,
        }
    }

    /// The telemetry registry this state records into. Snapshot it for
    /// `alg2.*` / `alg3.*` counters, or hand it to co-operating
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
    /// this network must produce byte-identical output to the next
    /// [`admit_traced`](ServiceState::admit_traced).
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
    /// pipeline never ran) — the hook the service oracle compares with
    /// the batch pipeline on
    /// [`reduced_network`](ServiceState::reduced_network) at every
    /// arrival.
    ///
    /// # Panics
    ///
    /// Panics if `source == dest`.
    pub fn admit_traced(
        &mut self,
        source: NodeId,
        dest: NodeId,
    ) -> (AdmitOutcome, Option<RouteTrace>) {
        let residual = self.ledger.residual();
        let widest = self.net.max_switch_capacity_in(residual);
        if widest == 0 {
            return (AdmitOutcome::Rejected(RejectReason::Saturated), None);
        }
        let demand = self.next_demand(source, dest);
        let query = SelectionQuery {
            h: self.config.h,
            max_width: self.config.max_width.unwrap_or(widest),
            mode: self.config.mode,
        };
        let candidates = self
            .engine
            .select_demand(&self.net, &demand, residual, query);
        let trace = route_from_candidates(
            &self.net,
            &[demand],
            &self.config,
            residual,
            candidates,
            &self.registry,
        );
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

    /// Tears a live plan down, returning its capacity to the ledger
    /// exactly. `None` (and no state change) if `id` is not live.
    pub fn depart(&mut self, id: PlanId) -> Option<LivePlan> {
        let lp = self.live.remove(&id)?;
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
        // every crossing plan — re-scanning the live set would find
        // nothing. Counted, not silent.
        if self.failed_at.get(&canon) == Some(&self.epoch) {
            self.fail_link_noops.inc();
            return Vec::new();
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
}
