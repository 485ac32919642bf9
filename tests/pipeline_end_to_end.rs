//! End-to-end pipeline tests: topology generation → network model →
//! ALG-N-FUSION routing, checked for determinism, feasibility, and rate
//! sanity across seeds and generator families.

use ghz_entanglement_routing::core::algorithms::{alg_n_fusion, route, RoutingConfig};
use ghz_entanglement_routing::core::{Demand, NetworkParams, NetworkPlan, QuantumNetwork};
use ghz_entanglement_routing::topology::{GeneratorKind, TopologyConfig};

fn world(kind: GeneratorKind, seed: u64) -> (QuantumNetwork, Vec<Demand>) {
    let topo = TopologyConfig {
        num_switches: 40,
        num_user_pairs: 8,
        avg_degree: 8.0,
        kind,
        ..TopologyConfig::default()
    }
    .generate(seed);
    let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    let demands = Demand::from_topology(&topo);
    (net, demands)
}

const KINDS: [GeneratorKind; 3] = [
    GeneratorKind::Waxman { alpha: 1.0 },
    GeneratorKind::WattsStrogatz { rewire: 0.1 },
    GeneratorKind::Aiello { gamma: 2.5 },
];

#[test]
fn routes_on_every_generator_family() {
    for kind in KINDS {
        for seed in 0..3 {
            let (net, demands) = world(kind, seed);
            let plan = alg_n_fusion(&net, &demands);
            assert_eq!(plan.plans.len(), demands.len());
            let rate = plan.total_rate(&net);
            assert!(
                rate > 0.0 && rate <= demands.len() as f64 + 1e-9,
                "{kind:?} seed {seed}: rate {rate} out of range"
            );
        }
    }
}

#[test]
fn switch_capacity_is_never_violated() {
    for kind in KINDS {
        let (net, demands) = world(kind, 7);
        let plan = alg_n_fusion(&net, &demands);
        for node in net.graph().node_ids().filter(|&n| net.is_switch(n)) {
            let spent: u32 = plan.plans.iter().map(|p| p.flow.qubits_at(node)).sum();
            assert!(
                spent <= net.capacity(node),
                "{kind:?}: switch {node} spends {spent} of {}",
                net.capacity(node)
            );
            assert_eq!(
                spent + plan.leftover[node.index()],
                net.capacity(node),
                "{kind:?}: leftover bookkeeping broken at {node}"
            );
        }
    }
}

#[test]
fn routing_is_reproducible() {
    let (net, demands) = world(KINDS[0], 3);
    let a = alg_n_fusion(&net, &demands);
    let b = alg_n_fusion(&net, &demands);
    assert_eq!(a.alg4_links, b.alg4_links);
    assert_eq!(a.leftover, b.leftover);
    for (pa, pb) in a.plans.iter().zip(&b.plans) {
        assert_eq!(pa.flow, pb.flow);
        assert_eq!(pa.paths, pb.paths);
    }
}

#[test]
fn flows_connect_their_own_users() {
    let (net, demands) = world(KINDS[0], 5);
    let plan = alg_n_fusion(&net, &demands);
    for dp in plan.plans.iter().filter(|p| !p.is_unserved()) {
        assert_eq!(dp.flow.source(), dp.demand.source);
        assert_eq!(dp.flow.sink(), dp.demand.dest);
        // Every flow edge must be a real network fiber.
        for (u, v, w) in dp.flow.edges() {
            assert!(w >= 1);
            assert!(
                net.hop(u, v).is_some(),
                "flow edge {u}-{v} missing from the network"
            );
        }
        // Every recorded path must run source -> dest over real fibers.
        for wp in &dp.paths {
            assert_eq!(wp.path.source(), dp.demand.source);
            assert_eq!(wp.path.destination(), dp.demand.dest);
        }
    }
}

/// Serial routing on the network's own capacities, recording no
/// telemetry (the default registry is the disabled one).
fn plan(net: &QuantumNetwork, demands: &[Demand], config: &RoutingConfig) -> NetworkPlan {
    route(
        net,
        demands,
        config,
        &net.capacities(),
        1,
        &Default::default(),
    )
    .plan
}

#[test]
fn alg4_and_merging_are_monotone_improvements() {
    for seed in [1, 2, 3] {
        let (mut net, demands) = world(KINDS[0], seed);
        net.set_uniform_link_success(Some(0.3));
        let full = plan(&net, &demands, &RoutingConfig::n_fusion()).total_rate(&net);
        let no_alg4 =
            plan(&net, &demands, &RoutingConfig::n_fusion_without_alg4()).total_rate(&net);
        let no_merge = plan(
            &net,
            &demands,
            &RoutingConfig {
                merge_paths: false,
                ..RoutingConfig::n_fusion()
            },
        )
        .total_rate(&net);
        assert!(
            full >= no_alg4 - 1e-9,
            "seed {seed}: alg4 hurt ({full} < {no_alg4})"
        );
        assert!(
            full >= no_merge - 0.35,
            "seed {seed}: merging regressed sharply ({full} vs {no_merge})"
        );
    }
}

#[test]
fn more_resources_never_hurt_much() {
    // Rates should broadly increase with switch capacity (Fig. 9a trend).
    let topo = TopologyConfig {
        num_switches: 40,
        num_user_pairs: 8,
        avg_degree: 8.0,
        ..TopologyConfig::default()
    }
    .generate(11);
    let demands_topo = Demand::from_topology(&topo);
    let rate_at = |cap: u32| {
        let params = NetworkParams {
            switch_capacity: cap,
            ..NetworkParams::default()
        };
        let net = QuantumNetwork::from_topology(&topo, &params);
        alg_n_fusion(&net, &demands_topo).total_rate(&net)
    };
    let small = rate_at(6);
    let large = rate_at(12);
    assert!(
        large >= small - 0.2,
        "doubling qubits must not reduce the rate: {small} -> {large}"
    );
}

#[test]
fn empty_demand_list_is_fine() {
    let (net, _) = world(KINDS[0], 1);
    let plan = alg_n_fusion(&net, &[]);
    assert_eq!(plan.plans.len(), 0);
    assert_eq!(plan.total_rate(&net), 0.0);
}
