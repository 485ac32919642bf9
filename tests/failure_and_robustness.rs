//! Robustness: failure injection degrades rates monotonically and the
//! stack stays well-behaved on degenerate inputs.

use ghz_entanglement_routing::core::algorithms::alg_n_fusion;
use ghz_entanglement_routing::core::{Demand, DemandId, NetworkParams, QuantumNetwork};
use ghz_entanglement_routing::sim::evaluate::{estimate_plan, McCounters};
use ghz_entanglement_routing::sim::failure::FailureModel;
use ghz_entanglement_routing::topology::TopologyConfig;

fn world(seed: u64) -> (QuantumNetwork, Vec<Demand>) {
    let topo = TopologyConfig {
        num_switches: 30,
        num_user_pairs: 6,
        avg_degree: 6.0,
        ..TopologyConfig::default()
    }
    .generate(seed);
    let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    let demands = Demand::from_topology(&topo);
    (net, demands)
}

#[test]
fn outages_degrade_rates_monotonically() {
    let (net, demands) = world(1);
    let plan = alg_n_fusion(&net, &demands);
    let mut last = f64::INFINITY;
    for outage in [0.0, 0.1, 0.3, 0.5] {
        let degraded = FailureModel {
            switch_outage: outage,
            link_decay: 0.0,
        }
        .degrade(&net);
        let rate = plan.total_rate(&degraded);
        assert!(
            rate <= last + 1e-9,
            "outage {outage}: rate rose ({last} -> {rate})"
        );
        last = rate;
    }
}

#[test]
fn link_decay_degrades_simulated_rates() {
    let (mut net, demands) = world(2);
    net.set_uniform_link_success(Some(0.6));
    let plan = alg_n_fusion(&net, &demands);
    let healthy = estimate_plan(&net, &plan, 3_000, 5, 1, &McCounters::default()).total_rate();
    let decayed_net = FailureModel {
        switch_outage: 0.0,
        link_decay: 0.3,
    }
    .degrade(&net);
    let decayed =
        estimate_plan(&decayed_net, &plan, 3_000, 5, 1, &McCounters::default()).total_rate();
    assert!(
        decayed < healthy,
        "30% fiber decay must reduce the simulated rate ({healthy} -> {decayed})"
    );
}

#[test]
fn replanning_after_failure_recovers_rate() {
    // A degraded network rerouted from scratch should do at least as well
    // as the stale plan evaluated on the degraded network.
    let (net, demands) = world(3);
    let stale = alg_n_fusion(&net, &demands);
    let degraded = FailureModel {
        switch_outage: 0.2,
        link_decay: 0.1,
    }
    .degrade(&net);
    let stale_rate = stale.total_rate(&degraded);
    let fresh_rate = alg_n_fusion(&degraded, &demands).total_rate(&degraded);
    assert!(
        fresh_rate >= stale_rate - 0.25,
        "replanning should not lose to the stale plan: {fresh_rate} vs {stale_rate}"
    );
}

#[test]
fn disconnected_demand_is_served_zero_not_panic() {
    // A user pair with no path must simply get rate 0.
    let mut b = QuantumNetwork::builder();
    let s = b.user(0.0, 0.0);
    let island = b.switch(1.0, 0.0, 10);
    let d = b.user(100.0, 0.0);
    let far = b.switch(99.0, 0.0, 10);
    b.link(s, island).unwrap();
    b.link(d, far).unwrap();
    let net = b.build();
    let demands = [Demand::new(DemandId::new(0), s, d)];
    let plan = alg_n_fusion(&net, &demands);
    assert_eq!(plan.served_demands(), 0);
    assert_eq!(plan.total_rate(&net), 0.0);
    let est = estimate_plan(&net, &plan, 100, 1, 1, &McCounters::default());
    assert_eq!(est.total_rate(), 0.0);
}

#[test]
fn duplicate_pairs_get_independent_states() {
    // Two states demanded between the same user pair must be resourced
    // independently (flow-like graphs of different states share nothing).
    let (net, demands) = world(4);
    let (s, d) = (demands[0].source, demands[0].dest);
    let twins = [
        Demand::new(DemandId::new(0), s, d),
        Demand::new(DemandId::new(1), s, d),
    ];
    let plan = alg_n_fusion(&net, &twins);
    // Per-switch spend across both states must stay within capacity.
    for node in net.graph().node_ids().filter(|&n| net.is_switch(n)) {
        let spent: u32 = plan.plans.iter().map(|p| p.flow.qubits_at(node)).sum();
        assert!(spent <= net.capacity(node));
    }
    // Both states should be served in a 30-switch network.
    assert_eq!(plan.served_demands(), 2);
}

#[test]
fn tiny_capacity_networks_still_route_what_fits() {
    let topo = TopologyConfig {
        num_switches: 30,
        num_user_pairs: 10,
        avg_degree: 6.0,
        ..TopologyConfig::default()
    }
    .generate(5);
    let params = NetworkParams {
        switch_capacity: 2,
        ..NetworkParams::default()
    };
    let net = QuantumNetwork::from_topology(&topo, &params);
    let demands = Demand::from_topology(&topo);
    let plan = alg_n_fusion(&net, &demands);
    // Capacity 2 admits only width-1 paths; whatever routed must be valid.
    for dp in plan.plans.iter().filter(|p| !p.is_unserved()) {
        for (_, _, w) in dp.flow.edges() {
            assert_eq!(w, 1, "capacity-2 switches cannot support wider channels");
        }
    }
    for node in net.graph().node_ids().filter(|&n| net.is_switch(n)) {
        let spent: u32 = plan.plans.iter().map(|p| p.flow.qubits_at(node)).sum();
        assert!(spent <= 2);
    }
}
