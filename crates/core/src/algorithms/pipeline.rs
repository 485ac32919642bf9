//! The composed entanglement-routing pipeline (§IV-C): Algorithm 2 builds
//! the candidate set, Algorithm 3 merges it into resourced routes,
//! Algorithm 4 spends the leftover qubits. `ALG-N-FUSION` is this pipeline
//! under [`SwapMode::NFusion`]; the paper's Q-CAST baseline is the same
//! pipeline under [`SwapMode::Classic`].

use fusion_telemetry::Registry;
use serde::{Deserialize, Serialize};

use crate::algorithms::{alg2, alg3, alg3_greedy, alg4};
use crate::demand::Demand;
use crate::network::QuantumNetwork;
use crate::plan::{NetworkPlan, SwapMode};

/// Order in which Algorithm 3 consumes the candidate set — the
/// merge-order ablation knob (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeOrder {
    /// Greedy by marginal entanglement-rate gain per qubit spent (default;
    /// implements Main Idea 2's resource-efficiency principle). Runs on
    /// the incremental gain queue of [`alg3_greedy::paths_merge_greedy`],
    /// differentially tested byte-identical to the full re-scan
    /// ([`alg3_greedy::paths_merge_greedy_reference`]).
    GainPerQubit,
    /// The paper's literal order: widest first, metric-sorted within a
    /// width. Kept for the merge-order ablation.
    WidthMajor,
}

/// Tuning knobs of the routing pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingConfig {
    /// Candidate paths per (demand, width) in Algorithm 2 (paper's `h`).
    pub h: usize,
    /// Upper bound on channel width; `None` uses the largest switch
    /// capacity (the paper's `MAX_WIDTH`).
    pub max_width: Option<u32>,
    /// Whether to run Algorithm 4 (disable for the `Alg-3` ablation of
    /// Fig. 7).
    pub use_alg4: bool,
    /// Whether Algorithm 3 may merge same-demand paths into flow-like
    /// graphs (n-fusion only; disable for the merge ablation).
    pub merge_paths: bool,
    /// Maximum accepted routes per demand; `None` is unlimited. Classic
    /// swapping uses `Some(1)`: Q-CAST routes one major path per request,
    /// and per-state multi-path redundancy is exactly the flexibility the
    /// paper attributes to n-fusion.
    pub max_paths_per_demand: Option<usize>,
    /// Candidate consumption order for Algorithm 3.
    pub merge_order: MergeOrder,
    /// Swapping technology.
    pub mode: SwapMode,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            h: 5,
            max_width: None,
            use_alg4: true,
            merge_paths: true,
            max_paths_per_demand: None,
            merge_order: MergeOrder::GainPerQubit,
            mode: SwapMode::NFusion,
        }
    }
}

impl RoutingConfig {
    /// The paper's headline configuration: n-fusion with Algorithm 4.
    #[must_use]
    pub fn n_fusion() -> Self {
        Self::default()
    }

    /// n-fusion without Algorithm 4 (the `Alg-3` series in Fig. 7).
    #[must_use]
    pub fn n_fusion_without_alg4() -> Self {
        RoutingConfig {
            use_alg4: false,
            ..Self::default()
        }
    }

    /// Classic-swapping restriction of the pipeline (the Q-CAST baseline):
    /// one major path per request, as in Q-CAST \[17\].
    #[must_use]
    pub fn classic() -> Self {
        RoutingConfig {
            mode: SwapMode::Classic,
            max_paths_per_demand: Some(1),
            ..Self::default()
        }
    }
}

/// The intermediate artifacts of one [`route`] run, kept for the
/// service-layer equivalence oracles: byte-comparing `candidates` and
/// `merge` (both `PartialEq`) against a batch run on a capacity-reduced
/// network is how `crates/serve` proves residual-ledger admission exact.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteTrace {
    /// Algorithm 2's candidate set against the given capacity.
    pub candidates: Vec<alg2::CandidatePath>,
    /// Algorithm 3's outcome, snapshotted before Algorithm 4 widens it.
    pub merge: alg3::MergeOutcome,
    /// The finished plan (after Algorithm 4, when enabled).
    pub plan: NetworkPlan,
}

/// Runs the full routing pipeline against a per-node qubit budget and
/// returns the plan with its per-stage intermediates.
///
/// `capacity` is the budget every stage threads through: the network's
/// own [`QuantumNetwork::capacities`] for a batch run, or the residual
/// capacity left by live plans on the service layer's admission path.
/// The width bound resolves against it (the largest *residual* switch
/// budget), so the outcome — candidates, merge, leftover — is
/// byte-identical to a run on
/// [`QuantumNetwork::with_capacities`]`(capacity)` with its own
/// capacities. That equivalence is the service-oracle contract locked
/// down by `crates/serve/tests/service_oracle.rs`.
///
/// Candidate construction is sharded over `threads` workers (the
/// dominant cost at 1k+ switches, see [`alg2::paths_selection`]). The
/// merge and leftover-assignment steps stay serial — they resolve
/// cross-demand contention — so the trace is byte-identical for any
/// thread count. Telemetry counters (the `alg2.*`/`alg3.*` names) record
/// into `registry`; pass [`Registry::disabled`] to record nothing.
/// Counters never influence routing.
///
/// # Examples
///
/// Routing against a *reduced* budget — every switch down to half its
/// qubits, as if live sessions held the rest:
///
/// ```
/// use fusion_core::algorithms::{route, RoutingConfig};
/// use fusion_core::{Demand, NetworkParams, QuantumNetwork};
/// use fusion_telemetry::Registry;
/// use fusion_topology::TopologyConfig;
///
/// let topo = TopologyConfig {
///     num_switches: 30,
///     num_user_pairs: 2,
///     ..TopologyConfig::default()
/// }
/// .generate(7);
/// let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
/// let demands = Demand::from_topology(&topo);
///
/// let residual: Vec<u32> = net
///     .graph()
///     .node_ids()
///     .map(|v| {
///         let c = net.capacity(v);
///         if net.is_switch(v) { c / 2 } else { c }
///     })
///     .collect();
/// let config = RoutingConfig::n_fusion();
/// let trace = route(&net, &demands, &config, &residual, 1, &Registry::disabled());
/// assert!(trace.plan.total_rate(&net) >= 0.0);
/// ```
///
/// # Panics
///
/// Panics if `config.h == 0`, `threads == 0`, `capacity` is shorter than
/// the node count, or the resolved width bound is zero (no switch has a
/// free qubit — callers admitting against a saturated network must check
/// first).
#[must_use]
pub fn route(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
    capacity: &[u32],
    threads: usize,
    registry: &Registry,
) -> RouteTrace {
    let max_width = config
        .max_width
        .unwrap_or_else(|| net.max_switch_capacity_in(capacity));
    assert!(max_width > 0, "network has no switch qubits to route with");

    // Step I: candidate construction against the given capacity.
    let query = alg2::SelectionQuery {
        h: config.h,
        max_width,
        mode: config.mode,
    };
    let candidates = alg2::paths_selection(net, demands, capacity, query, threads, registry);
    route_from_candidates(net, demands, config, capacity, candidates, registry)
}

/// Steps II and III of the pipeline on an externally-built candidate set:
/// the capacity-aware merge, then leftover assignment. Merge counters
/// (`alg3.*`) record into `registry`; they never influence the outcome.
///
/// This is the serve layer's admission entry point: it builds Step I
/// with a persistent [`alg2::SelectionEngine`], whose candidates equal
/// what Step I would produce against `capacity`, and still gets a
/// [`RouteTrace`] byte-identical to [`route`]'s, because the merge and
/// Algorithm 4 are deterministic functions of (network, demands,
/// candidates, config, capacity).
///
/// # Panics
///
/// Panics if `capacity` is shorter than the node count.
#[must_use]
pub fn route_from_candidates(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
    capacity: &[u32],
    candidates: Vec<alg2::CandidatePath>,
    registry: &Registry,
) -> RouteTrace {
    // Step II: capacity-aware merge.
    let merge = match config.merge_order {
        MergeOrder::GainPerQubit => alg3_greedy::paths_merge_greedy(
            net,
            demands,
            &candidates,
            config.mode,
            config.merge_paths,
            config.max_paths_per_demand,
            capacity,
            &alg3_greedy::MergeCounters::from_registry(registry),
        ),
        MergeOrder::WidthMajor => alg3::paths_merge(
            net,
            demands,
            &candidates,
            config.mode,
            config.merge_paths,
            config.max_paths_per_demand,
            capacity,
        ),
    };

    // Step III: leftover qubits widen existing channels.
    let alg3::MergeOutcome {
        mut plans,
        mut remaining,
    } = merge.clone();
    let alg4_links = if config.use_alg4 {
        alg4::assign_remaining(net, &mut plans, &mut remaining, config.mode)
    } else {
        0
    };

    RouteTrace {
        candidates,
        merge,
        plan: NetworkPlan {
            mode: config.mode,
            plans,
            leftover: remaining,
            alg4_links,
        },
    }
}

/// The paper's `ALG-N-FUSION` with default knobs on the network's own
/// capacities: serial, recording no telemetry.
#[must_use]
pub fn alg_n_fusion(net: &QuantumNetwork, demands: &[Demand]) -> NetworkPlan {
    let (config, caps) = (RoutingConfig::n_fusion(), net.capacities());
    route(net, demands, &config, &caps, 1, &Registry::disabled()).plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Demand;
    use crate::network::{NetworkParams, QuantumNetwork};
    use fusion_topology::TopologyConfig;

    fn small_world() -> (QuantumNetwork, Vec<Demand>) {
        let topo = TopologyConfig {
            num_switches: 30,
            num_user_pairs: 5,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(42);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        (net, demands)
    }

    /// Serial, uncounted [`route`] on the network's own capacities.
    fn plan(net: &QuantumNetwork, demands: &[Demand], config: &RoutingConfig) -> NetworkPlan {
        let caps = net.capacities();
        route(net, demands, config, &caps, 1, &Registry::disabled()).plan
    }

    #[test]
    fn pipeline_produces_positive_rate() {
        let (net, demands) = small_world();
        let plan = alg_n_fusion(&net, &demands);
        assert_eq!(plan.plans.len(), demands.len());
        assert!(
            plan.total_rate(&net) > 0.0,
            "default network must route something"
        );
        assert!(plan.served_demands() > 0);
    }

    #[test]
    fn rates_are_probabilities() {
        let (net, demands) = small_world();
        let plan = alg_n_fusion(&net, &demands);
        for i in 0..demands.len() {
            let r = plan.demand_rate(&net, i);
            assert!((0.0..=1.0 + 1e-9).contains(&r), "demand {i} rate {r}");
        }
        assert!(plan.total_rate(&net) <= demands.len() as f64 + 1e-9);
    }

    #[test]
    fn alg4_never_hurts() {
        let (net, demands) = small_world();
        let with = plan(&net, &demands, &RoutingConfig::n_fusion());
        let without = plan(&net, &demands, &RoutingConfig::n_fusion_without_alg4());
        assert!(
            with.total_rate(&net) >= without.total_rate(&net) - 1e-9,
            "Algorithm 4 must be monotone: {} vs {}",
            with.total_rate(&net),
            without.total_rate(&net)
        );
        assert_eq!(without.alg4_links, 0);
    }

    #[test]
    fn n_fusion_beats_classic_on_same_network() {
        // Headline claim (§V-C1) on a small instance, in the paper's
        // realistic small-p regime.
        let (mut net, demands) = small_world();
        net.set_uniform_link_success(Some(0.25));
        let nf = plan(&net, &demands, &RoutingConfig::n_fusion());
        let classic = plan(&net, &demands, &RoutingConfig::classic());
        assert!(
            nf.total_rate(&net) >= classic.total_rate(&net) - 1e-9,
            "n-fusion {} must dominate classic {}",
            nf.total_rate(&net),
            classic.total_rate(&net)
        );
    }

    #[test]
    fn capacity_never_oversubscribed() {
        let (net, demands) = small_world();
        let plan = alg_n_fusion(&net, &demands);
        for node in net.graph().node_ids().filter(|&v| net.is_switch(v)) {
            let spent: u32 = plan.plans.iter().map(|p| p.flow.qubits_at(node)).sum();
            assert!(
                spent <= net.capacity(node),
                "switch {node} uses {spent} of {} qubits",
                net.capacity(node)
            );
            assert_eq!(
                spent + plan.leftover[node.index()],
                net.capacity(node),
                "leftover bookkeeping broken at {node}"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_input() {
        let (net, demands) = small_world();
        let a = alg_n_fusion(&net, &demands);
        let b = alg_n_fusion(&net, &demands);
        assert_eq!(a.total_rate(&net), b.total_rate(&net));
        assert_eq!(a.alg4_links, b.alg4_links);
        for (pa, pb) in a.plans.iter().zip(&b.plans) {
            assert_eq!(pa.flow, pb.flow);
        }
    }

    #[test]
    fn parallel_route_is_bit_identical_to_serial() {
        let (net, demands) = small_world();
        let caps = net.capacities();
        for config in [RoutingConfig::n_fusion(), RoutingConfig::classic()] {
            let run = |threads: usize| {
                let registry = Registry::enabled();
                let trace = route(&net, &demands, &config, &caps, threads, &registry);
                (trace, registry.snapshot())
            };
            let (serial, serial_counts) = run(1);
            for threads in [2, 4, 16] {
                let (parallel, counts) = run(threads);
                assert_eq!(parallel, serial, "threads={threads}");
                assert_eq!(counts, serial_counts, "threads={threads}: counters");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no switch qubits")]
    fn zero_capacity_network_rejected() {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let v = b.switch(1.0, 0.0, 0);
        let d = b.user(2.0, 0.0);
        b.link(s, v).unwrap();
        b.link(v, d).unwrap();
        let net = b.build();
        let demands = [Demand::new(crate::demand::DemandId::new(0), s, d)];
        let _ = alg_n_fusion(&net, &demands);
    }
}
