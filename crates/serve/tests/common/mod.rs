//! Helpers shared by the serve oracles (`service_oracle.rs`,
//! `incremental_oracle.rs`): the sampled worlds they route on, and the
//! per-arrival check of the production admission against the batch
//! pipeline.

use fusion_core::algorithms::{route, RoutingConfig};
use fusion_core::{NetworkParams, QuantumNetwork};
use fusion_graph::NodeId;
use fusion_serve::{AdmitOutcome, ServiceState};
use fusion_telemetry::Registry;
use fusion_topology::{GeneratorKind, TopologyConfig};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A fresh service over a sampled Waxman or grid world with uniform
/// link success `p`, swap success `q`, and `h` candidates per width.
#[allow(clippy::too_many_arguments)]
pub fn build_state(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
    h: usize,
    classic: bool,
) -> ServiceState {
    let topo = TopologyConfig {
        num_switches: switches,
        num_user_pairs: pairs,
        avg_degree: 6.0,
        kind: if grid {
            GeneratorKind::Grid
        } else {
            GeneratorKind::default() // Waxman, the paper's family
        },
        ..TopologyConfig::default()
    }
    .generate(seed);
    let mut net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    net.set_uniform_link_success(Some(p));
    net.set_swap_success(q);
    let base = if classic {
        RoutingConfig::classic()
    } else {
        RoutingConfig::n_fusion()
    };
    // Enabled telemetry throughout: the byte-identity assertions double
    // as proof that counters never affect behavior.
    ServiceState::with_telemetry(net, RoutingConfig { h, ..base }, Registry::enabled())
}

/// Oracle 1 for one arrival: admits `source -> dest` through the
/// production path and compares the returned trace with the batch
/// pipeline on the reduced network taken just before the call.
pub fn admit_checked(
    state: &mut ServiceState,
    source: NodeId,
    dest: NodeId,
    arrival: usize,
) -> Result<AdmitOutcome, TestCaseError> {
    let reduced = state.reduced_network();
    let demand = state.next_demand(source, dest);
    let config = *state.config();
    let (outcome, serve_side) = state.admit_traced(source, dest);
    match &serve_side {
        None => prop_assert_eq!(
            reduced.max_switch_capacity(),
            0,
            "serve refused as saturated but the reduced network still has qubits"
        ),
        Some(serve_trace) => {
            let caps = reduced.capacities();
            let batch = route(
                &reduced,
                &[demand],
                &config,
                &caps,
                1,
                &Registry::disabled(),
            );
            prop_assert_eq!(
                serve_trace.candidates == batch.candidates,
                true,
                "Algorithm 2 candidates diverged at arrival {}",
                arrival
            );
            prop_assert_eq!(
                serve_trace.merge == batch.merge,
                true,
                "Algorithm 3 merge outcome diverged at arrival {}",
                arrival
            );
            prop_assert_eq!(
                serve_trace.plan == batch.plan,
                true,
                "finished plan diverged at arrival {}",
                arrival
            );
        }
    }
    Ok(outcome)
}
