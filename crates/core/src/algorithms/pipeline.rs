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

/// Algorithm 2 candidate-construction engine — the selection ablation
/// knob (the Algorithm 2 counterpart of [`MergeOrder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathSelection {
    /// One per-demand width descent reusing search state across widths
    /// (default; [`alg2::paths_selection`]). Differentially tested
    /// byte-identical to the per-width sweep
    /// (`crates/core/tests/alg2_differential.rs`).
    WidthDescent,
    /// The original independent Yen/Dijkstra sweep per width, retained as
    /// the differential oracle ([`alg2::paths_selection_reference`]).
    /// Always serial.
    PerWidthSweep,
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
    /// Candidate-construction engine for Algorithm 2 in batch routing;
    /// the serve layer always runs the width descent (the two engines
    /// produce identical candidates).
    pub path_selection: PathSelection,
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
            path_selection: PathSelection::WidthDescent,
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

/// Runs the full routing pipeline and returns the network plan.
///
/// # Panics
///
/// Panics if `config.h == 0` or the resolved width bound is zero (a network
/// whose switches have no qubits cannot route anything).
#[must_use]
pub fn route(net: &QuantumNetwork, demands: &[Demand], config: &RoutingConfig) -> NetworkPlan {
    route_parallel(net, demands, config, 1)
}

/// [`route`] with per-demand candidate construction sharded over
/// `threads` workers (the dominant cost at 1k+ switches). The merge and
/// leftover-assignment steps stay serial — they resolve cross-demand
/// contention — so the resulting plan is bit-identical to the serial
/// pipeline for any thread count.
///
/// # Panics
///
/// Panics if `config.h == 0`, `threads == 0`, or the resolved width bound
/// is zero (a network whose switches have no qubits cannot route
/// anything).
#[must_use]
pub fn route_parallel(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
    threads: usize,
) -> NetworkPlan {
    route_with_capacity(net, demands, config, &net.capacities(), threads)
}

/// [`route_parallel`] against an explicit per-node qubit budget instead of
/// the network's built-in capacities — the service layer's admission path:
/// a new demand is routed with the same pipeline, restricted to the
/// residual capacity left by live plans.
///
/// The width bound resolves against `capacity` (the largest *residual*
/// switch budget), and every stage threads `capacity` through, so the
/// outcome — candidates, merge, leftover — is byte-identical to running
/// [`route_parallel`] on [`QuantumNetwork::with_capacities`]`(capacity)`.
/// That equivalence is the service-oracle contract locked down by
/// `crates/serve/tests/service_oracle.rs`.
///
/// # Examples
///
/// Routing one demand against a *reduced* budget — every switch down to
/// half its qubits, as if live sessions held the rest:
///
/// ```
/// use fusion_core::algorithms::{route_with_capacity, RoutingConfig};
/// use fusion_core::{Demand, NetworkParams, QuantumNetwork};
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
/// let plan = route_with_capacity(
///     &net,
///     &demands,
///     &RoutingConfig::n_fusion(),
///     &residual,
///     1,
/// );
/// assert!(plan.total_rate(&net) >= 0.0);
/// ```
///
/// # Panics
///
/// Panics if `config.h == 0`, `threads == 0`, `capacity` is shorter than
/// the node count, or the resolved width bound is zero (no switch has a
/// free qubit — callers admitting against a saturated network must check
/// first).
#[must_use]
pub fn route_with_capacity(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
    capacity: &[u32],
    threads: usize,
) -> NetworkPlan {
    route_with_capacity_traced(net, demands, config, capacity, threads).plan
}

/// The intermediate artifacts of one [`route_with_capacity`] run, kept for
/// the service-layer equivalence oracles: byte-comparing `candidates` and
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

/// [`route_with_capacity`], also returning the per-stage intermediates.
///
/// # Panics
///
/// As [`route_with_capacity`].
#[must_use]
pub fn route_with_capacity_traced(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
    capacity: &[u32],
    threads: usize,
) -> RouteTrace {
    route_with_capacity_counted(
        net,
        demands,
        config,
        capacity,
        threads,
        &Registry::disabled(),
    )
}

/// [`route_with_capacity_traced`] with telemetry counters recording into
/// `registry` (the `alg2.*`/`alg3.*` names). Counters never influence
/// routing: the trace is byte-identical to the uncounted run, for any
/// thread count.
///
/// # Panics
///
/// As [`route_with_capacity`].
#[must_use]
pub fn route_with_capacity_counted(
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
    let candidates = match config.path_selection {
        PathSelection::WidthDescent => alg2::paths_selection_parallel_counted(
            net,
            demands,
            capacity,
            config.h,
            max_width,
            config.mode,
            threads,
            registry,
        ),
        PathSelection::PerWidthSweep => alg2::paths_selection_reference(
            net,
            demands,
            capacity,
            config.h,
            max_width,
            config.mode,
        ),
    };

    route_from_candidates_counted(net, demands, config, capacity, candidates, registry)
}

/// Steps II and III of the pipeline on an externally-built candidate set:
/// the capacity-aware merge, then leftover assignment.
///
/// This is the serve layer's admission entry point: it builds Step I
/// with a persistent [`alg2::SelectionEngine`], whose candidates equal
/// what Step I would produce against `capacity`, and still gets a
/// [`RouteTrace`] byte-identical to [`route_with_capacity_traced`],
/// because the merge and Algorithm 4 are deterministic functions of
/// (network, demands, candidates, config, capacity).
///
/// # Panics
///
/// Panics if `capacity` is shorter than the node count.
#[must_use]
pub fn route_from_candidates_traced(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
    capacity: &[u32],
    candidates: Vec<alg2::CandidatePath>,
) -> RouteTrace {
    route_from_candidates_counted(
        net,
        demands,
        config,
        capacity,
        candidates,
        &Registry::disabled(),
    )
}

/// [`route_from_candidates_traced`] with merge counters recording into
/// `registry`. Counters never influence the outcome.
///
/// # Panics
///
/// As [`route_from_candidates_traced`].
#[must_use]
pub fn route_from_candidates_counted(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
    capacity: &[u32],
    candidates: Vec<alg2::CandidatePath>,
    registry: &Registry,
) -> RouteTrace {
    // Step II: capacity-aware merge.
    let merge = match config.merge_order {
        MergeOrder::GainPerQubit => alg3_greedy::paths_merge_greedy_counted(
            net,
            demands,
            &candidates,
            config.mode,
            config.merge_paths,
            config.max_paths_per_demand,
            capacity,
            &alg3_greedy::MergeCounters::from_registry(registry),
        ),
        MergeOrder::WidthMajor => alg3::paths_merge_bounded_with_capacity(
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

/// Convenience wrapper: the paper's `ALG-N-FUSION` with default knobs.
#[must_use]
pub fn alg_n_fusion(net: &QuantumNetwork, demands: &[Demand]) -> NetworkPlan {
    route(net, demands, &RoutingConfig::n_fusion())
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
        let with = route(&net, &demands, &RoutingConfig::n_fusion());
        let without = route(&net, &demands, &RoutingConfig::n_fusion_without_alg4());
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
        let nf = route(&net, &demands, &RoutingConfig::n_fusion());
        let classic = route(&net, &demands, &RoutingConfig::classic());
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
        for config in [RoutingConfig::n_fusion(), RoutingConfig::classic()] {
            let serial = route(&net, &demands, &config);
            for threads in [2, 4, 16] {
                let parallel = route_parallel(&net, &demands, &config, threads);
                assert_eq!(serial.alg4_links, parallel.alg4_links);
                assert_eq!(serial.leftover, parallel.leftover);
                for (s, p) in serial.plans.iter().zip(&parallel.plans) {
                    assert_eq!(s.flow, p.flow, "threads={threads}");
                    assert_eq!(s.paths, p.paths, "threads={threads}");
                }
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
