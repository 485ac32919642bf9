//! Quickstart: generate a paper-default quantum network, route every
//! demanded state with ALG-N-FUSION, and check the analytic entanglement
//! rate against Monte Carlo simulation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ghz_entanglement_routing::core::algorithms::alg_n_fusion;
use ghz_entanglement_routing::core::{Demand, NetworkParams, QuantumNetwork};
use ghz_entanglement_routing::sim::evaluate::{estimate_plan, McCounters};
use ghz_entanglement_routing::topology::TopologyConfig;

fn main() {
    // A Waxman network with the paper's defaults: 100 switches, average
    // degree 10, capacity 10 qubits, 20 demanded states (§V-A).
    let topology = TopologyConfig::default().generate(42);
    let net = QuantumNetwork::from_topology(&topology, &NetworkParams::default());
    let demands = Demand::from_topology(&topology);

    println!(
        "network: {} nodes, {} fibers, {} demanded states",
        net.node_count(),
        net.graph().edge_count(),
        demands.len()
    );

    // Phase I: the central server computes routes (Algorithms 1-4).
    let plan = alg_n_fusion(&net, &demands);
    println!(
        "routed {} of {} demands; Algorithm 4 added {} extra links",
        plan.served_demands(),
        demands.len(),
        plan.alg4_links
    );

    // Analytic network entanglement rate (Equation 1 per flow-like graph).
    let analytic = plan.total_rate(&net);
    println!("analytic entanglement rate: {analytic:.2} states/attempt");

    // Phases II-III, repeated: Monte Carlo over link generation and GHZ
    // fusions.
    let estimate = estimate_plan(&net, &plan, 2_000, 7, 1, &McCounters::default());
    println!(
        "simulated entanglement rate: {:.2} ± {:.2} (2000 rounds)",
        estimate.total_rate(),
        estimate.total_stderr()
    );

    // Per-demand detail for the first few states.
    for (i, dp) in plan.plans.iter().take(5).enumerate() {
        println!(
            "  {}: {} route(s), {} flow edges, p(success) = {:.3}",
            dp.demand,
            dp.paths.len(),
            dp.flow.edge_count(),
            plan.demand_rate(&net, i)
        );
    }
}
