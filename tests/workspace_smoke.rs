//! Workspace smoke test: the five-crate stack wired end-to-end.
//!
//! Generates a small Waxman topology, builds the quantum network, routes
//! every demand with the paper's composed ALG-N-FUSION pipeline, and
//! checks the analytic and simulated entanglement rates agree that the
//! network serves a nonzero expected number of states — all from a fixed
//! RNG seed, so any regression in any layer shows up as a deterministic
//! failure here.

use ghz_entanglement_routing::core::algorithms::alg_n_fusion;
use ghz_entanglement_routing::core::{Demand, NetworkParams, QuantumNetwork};
use ghz_entanglement_routing::sim::{estimate_plan, McCounters};
use ghz_entanglement_routing::topology::TopologyConfig;

#[test]
fn waxman_alg_n_fusion_end_to_end() {
    let topo = TopologyConfig {
        num_switches: 30,
        num_user_pairs: 4,
        ..TopologyConfig::default()
    }
    .generate(7);
    assert_eq!(topo.demands.len(), 4);
    assert_eq!(topo.user_ids().count(), 8);

    let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    let demands = Demand::from_topology(&topo);
    let plan = alg_n_fusion(&net, &demands);

    // The paper's pipeline must serve at least one of the four demands on
    // this instance, giving a strictly positive expected rate.
    let analytic = plan.total_rate(&net);
    assert!(
        analytic > 0.0,
        "expected a nonzero entanglement rate, got {analytic}"
    );
    assert!(
        analytic <= demands.len() as f64,
        "rate cannot exceed the number of demanded states: {analytic}"
    );

    // Monte Carlo agreement: fixed seed, so this is deterministic.
    let est = estimate_plan(&net, &plan, 4_000, 11, 1, &McCounters::default());
    assert!(est.total_rate() > 0.0, "simulation saw no successes");
    assert!(
        est.total_rate() <= analytic + 4.0 * est.total_stderr(),
        "simulated {} exceeds the analytic bound {analytic}",
        est.total_rate()
    );
}

#[test]
fn smoke_is_deterministic_per_seed() {
    let rate = |seed| {
        let topo = TopologyConfig {
            num_switches: 30,
            num_user_pairs: 4,
            ..TopologyConfig::default()
        }
        .generate(seed);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        alg_n_fusion(&net, &demands).total_rate(&net)
    };
    assert_eq!(rate(7), rate(7), "same seed must reproduce the same plan");
}
