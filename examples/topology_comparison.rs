//! A scaled-down Fig. 7: all four algorithms (plus the Alg-3 ablation)
//! compared across the three network-generation methods.
//!
//! ```text
//! cargo run --release --example topology_comparison
//! ```

use ghz_entanglement_routing::core::algorithms::{route, RoutingConfig};
use ghz_entanglement_routing::core::baselines::{
    route_b1, route_qcast, route_qcast_n, DEFAULT_REGION_PATHS,
};
use ghz_entanglement_routing::core::{Demand, NetworkParams, QuantumNetwork};
use ghz_entanglement_routing::topology::{GeneratorKind, TopologyConfig};

fn main() {
    let kinds = [
        ("Waxman", GeneratorKind::Waxman { alpha: 1.0 }),
        (
            "Watts-Strogatz",
            GeneratorKind::WattsStrogatz { rewire: 0.1 },
        ),
        ("Aiello", GeneratorKind::Aiello { gamma: 2.5 }),
    ];

    println!(
        "{:<16}{:>14}{:>10}{:>10}{:>8}{:>8}",
        "method", "ALG-N-FUSION", "Q-CAST", "Q-CAST-N", "B1", "Alg-3"
    );
    for (name, kind) in kinds {
        let config = TopologyConfig {
            num_switches: 60,
            num_user_pairs: 10,
            kind,
            ..TopologyConfig::default()
        };
        // Average over three random networks, as the paper averages five.
        let mut sums = [0.0f64; 5];
        let networks = 3;
        for seed in 0..networks {
            let topo = config.generate(seed);
            let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
            let demands = Demand::from_topology(&topo);
            let caps = net.capacities();
            // Serial, with the default (disabled) telemetry registry.
            let pipeline = |config: RoutingConfig| {
                route(&net, &demands, &config, &caps, 1, &Default::default()).plan
            };
            let rates = [
                pipeline(RoutingConfig::n_fusion()).total_rate(&net),
                route_qcast(&net, &demands, 5).total_rate(&net),
                route_qcast_n(&net, &demands, 5).total_rate(&net),
                route_b1(&net, &demands, DEFAULT_REGION_PATHS).total_rate(&net),
                pipeline(RoutingConfig::n_fusion_without_alg4()).total_rate(&net),
            ];
            for (s, r) in sums.iter_mut().zip(rates) {
                *s += r;
            }
        }
        let n = networks as f64;
        println!(
            "{:<16}{:>14.2}{:>10.2}{:>10.2}{:>8.2}{:>8.2}",
            name,
            sums[0] / n,
            sums[1] / n,
            sums[2] / n,
            sums[3] / n,
            sums[4] / n
        );
    }
    println!("\n(10 demanded states; higher is better; see `figures fig7` for the full run)");
}
