//! Q-CAST baseline (§V-B): "a special version of ALG-N-FUSION where N = 2".
//!
//! Switches perform classic BSM swapping: one shared state rides one
//! pre-committed lane (one link per hop, one BSM per switch), so routes
//! are single width-1 paths — extra width only serves other states and
//! Q-CAST routes one major path per request \[17\]. Path quality is the
//! paper's classic rate `p^z · q^(z-1)` (see
//! `fusion_core::metrics::classic`).

use fusion_telemetry::Registry;

use crate::algorithms::pipeline::{route, RoutingConfig};
use crate::demand::Demand;
use crate::network::QuantumNetwork;
use crate::plan::NetworkPlan;

/// Routes all demands under classic swapping with `h` candidate paths per
/// (demand, width).
#[must_use]
pub fn route_qcast(net: &QuantumNetwork, demands: &[Demand], h: usize) -> NetworkPlan {
    let config = RoutingConfig {
        h,
        max_width: Some(1),
        ..RoutingConfig::classic()
    };
    let caps = net.capacities();
    route(net, demands, &config, &caps, 1, &Registry::disabled()).plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkParams;
    use crate::plan::SwapMode;
    use fusion_topology::TopologyConfig;

    fn setup() -> (QuantumNetwork, Vec<Demand>) {
        let topo = TopologyConfig {
            num_switches: 30,
            num_user_pairs: 5,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(7);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        (net, Demand::from_topology(&topo))
    }

    #[test]
    fn produces_classic_plan() {
        let (net, demands) = setup();
        let plan = route_qcast(&net, &demands, 5);
        assert_eq!(plan.mode, SwapMode::Classic);
        assert!(plan.total_rate(&net) > 0.0);
    }

    #[test]
    fn one_width_one_path_per_demand() {
        let (net, demands) = setup();
        let plan = route_qcast(&net, &demands, 5);
        for dp in &plan.plans {
            assert!(
                dp.paths.len() <= 1,
                "Q-CAST routes one major path per request"
            );
            for wp in &dp.paths {
                assert!(
                    wp.widths.iter().all(|&w| w == 1),
                    "classic states ride one lane"
                );
            }
        }
    }

    #[test]
    fn classic_paths_never_share_hops_within_a_demand() {
        let (net, demands) = setup();
        let plan = route_qcast(&net, &demands, 5);
        // Under BSM the merge step must not have fused paths: qubit spend
        // equals the sum over paths of per-hop widths.
        for node in net.graph().node_ids().filter(|&v| net.is_switch(v)) {
            let mut spent: u32 = 0;
            for dp in &plan.plans {
                for wp in &dp.paths {
                    for (u, v, w) in wp.hops() {
                        if u == node || v == node {
                            spent += w;
                        }
                    }
                }
            }
            assert!(
                spent <= net.capacity(node),
                "classic plan oversubscribes switch {node}"
            );
        }
    }
}
