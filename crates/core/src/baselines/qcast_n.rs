//! Q-CAST-N baseline (§V-B): Q-CAST's routes, re-evaluated under n-fusion.
//!
//! "We apply Q-Cast to get paths. Then, we use Equation 1 to evaluate the
//! network performance, assuming all paths take n-fusion." Q-Cast routes
//! one width-`w` major path per request, choosing width to maximize the
//! expected pair yield; under n-fusion the switches along that path fuse
//! all successful parallel links for the state, so the state succeeds with
//! the Eq.-1 rate `q^(z-1) · Π (1-(1-p)^w)`. Operationally this is the
//! routing pipeline restricted to a single unmerged path per demand —
//! n-fusion's remaining advantages over it (flow-like merging, global
//! width-major allocation) are exactly what ALG-N-FUSION adds.

use fusion_telemetry::Registry;

use crate::algorithms::pipeline::{route, RoutingConfig};
use crate::demand::Demand;
use crate::network::QuantumNetwork;
use crate::plan::NetworkPlan;

/// Routes one width-optimized path per demand and evaluates it under
/// n-fusion (Equation 1).
#[must_use]
pub fn route_qcast_n(net: &QuantumNetwork, demands: &[Demand], h: usize) -> NetworkPlan {
    let config = RoutingConfig {
        h,
        merge_paths: false,
        max_paths_per_demand: Some(1),
        ..RoutingConfig::n_fusion()
    };
    let caps = net.capacities();
    route(net, demands, &config, &caps, 1, &Registry::disabled()).plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::qcast::route_qcast;
    use crate::network::NetworkParams;
    use crate::plan::SwapMode;
    use fusion_topology::TopologyConfig;

    fn setup(seed: u64) -> (QuantumNetwork, Vec<Demand>) {
        let topo = TopologyConfig {
            num_switches: 30,
            num_user_pairs: 5,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(seed);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        (net, Demand::from_topology(&topo))
    }

    #[test]
    fn dominates_qcast() {
        // Fusing width-w channels can only beat a single pre-committed
        // lane: Eq. 1 >= p^z q^(z-1) hop for hop.
        for seed in [1, 2, 3] {
            let (net, demands) = setup(seed);
            let classic = route_qcast(&net, &demands, 5);
            let fused = route_qcast_n(&net, &demands, 5);
            assert!(
                fused.total_rate(&net) >= classic.total_rate(&net) - 1e-9,
                "seed {seed}: Q-CAST-N {} < Q-CAST {}",
                fused.total_rate(&net),
                classic.total_rate(&net)
            );
        }
    }

    #[test]
    fn single_unmerged_path_per_demand() {
        let (net, demands) = setup(4);
        let plan = route_qcast_n(&net, &demands, 5);
        assert_eq!(plan.mode, SwapMode::NFusion);
        for dp in &plan.plans {
            assert!(dp.paths.len() <= 1, "one major path per request");
            if let Some(wp) = dp.paths.first() {
                // The flow mirrors the single path's hops (Algorithm 4 may
                // have widened flow channels beyond the recorded path).
                for (u, v, _) in wp.hops() {
                    assert!(dp.flow.undirected_width(u, v).is_some());
                }
            }
        }
    }

    #[test]
    fn rate_stays_within_demand_count() {
        let (net, demands) = setup(5);
        let plan = route_qcast_n(&net, &demands, 5);
        assert!(plan.total_rate(&net) <= demands.len() as f64);
        assert!(plan.total_rate(&net) > 0.0);
    }
}
