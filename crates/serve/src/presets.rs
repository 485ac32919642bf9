//! Named world presets: the repository's one preset table.
//!
//! Each preset fixes the *world* — topology, network parameters, `h` and
//! seed — once. The serve binary and its tests replay on these worlds,
//! and `fusion-bench` builds its batch `ExperimentConfig` presets of the
//! same names from this table, adding only the batch fields (networks
//! averaged, Monte Carlo rounds, threads). So a replay on a preset and a
//! batch experiment on the same preset name and instance index route on
//! the exact same network.
//!
//! The routing config a preset produces is the default n-fusion pipeline
//! with the preset's `h`.

use fusion_core::algorithms::RoutingConfig;
use fusion_core::{NetworkParams, QuantumNetwork};
use fusion_topology::{GeneratorKind, TopologyConfig};

/// A named world: enough to regenerate the exact network instances the
/// batch experiments of the same preset name run on.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePreset {
    /// Canonical preset name (`serve replay --preset NAME`).
    pub name: &'static str,
    /// Topology generation parameters.
    pub topology: TopologyConfig,
    /// Switch capacity and physics.
    pub network: NetworkParams,
    /// Candidate paths per (demand, width) for admissions.
    pub h: usize,
    /// Base RNG seed for network generation.
    pub seed: u64,
}

impl ServePreset {
    /// Generates the `i`-th network instance — the same
    /// `seed.wrapping_add(i)` convention as the batch experiments.
    #[must_use]
    pub fn network_instance(&self, i: usize) -> QuantumNetwork {
        let topo = self.topology.generate(self.seed.wrapping_add(i as u64));
        QuantumNetwork::from_topology(&topo, &self.network)
    }

    /// The routing configuration admissions run under: the paper's
    /// `ALG-N-FUSION` with this preset's `h`.
    #[must_use]
    pub fn routing_config(&self) -> RoutingConfig {
        RoutingConfig {
            h: self.h,
            ..RoutingConfig::n_fusion()
        }
    }
}

const BASE_SEED: u64 = 0x5eed;

fn preset(name: &'static str, topology: TopologyConfig, h: usize) -> ServePreset {
    ServePreset {
        name,
        topology,
        network: NetworkParams::default(),
        h,
        seed: BASE_SEED,
    }
}

fn large_topology(num_switches: usize, kind: GeneratorKind) -> TopologyConfig {
    TopologyConfig {
        num_switches,
        num_user_pairs: 50,
        kind,
        ..TopologyConfig::default()
    }
}

/// Every named preset, base shapes first then the large-scale ones.
#[must_use]
pub fn presets() -> Vec<ServePreset> {
    let default_kind = TopologyConfig::default().kind;
    vec![
        preset("default", TopologyConfig::default(), 5),
        preset(
            "quick",
            TopologyConfig {
                num_switches: 30,
                num_user_pairs: 6,
                avg_degree: 6.0,
                ..TopologyConfig::default()
            },
            5,
        ),
        preset("large-1k", large_topology(1_000, default_kind), 3),
        preset(
            "large-1k-grid",
            large_topology(1_000, GeneratorKind::Grid),
            3,
        ),
        preset("large-5k", large_topology(5_000, default_kind), 3),
        preset(
            "large-5k-grid",
            large_topology(5_000, GeneratorKind::Grid),
            3,
        ),
        preset("large-10k", large_topology(10_000, default_kind), 3),
        preset(
            "large-10k-grid",
            large_topology(10_000, GeneratorKind::Grid),
            3,
        ),
    ]
}

/// Resolves a preset name to its configuration.
#[must_use]
pub fn resolve_preset(name: &str) -> Option<ServePreset> {
    presets().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_and_are_unique() {
        let all = presets();
        for p in &all {
            assert_eq!(resolve_preset(p.name).as_ref(), Some(p));
        }
        let mut names: Vec<_> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate preset name");
        assert!(resolve_preset("nope").is_none());
    }

    #[test]
    fn quick_preset_builds_a_world() {
        let p = resolve_preset("quick").unwrap();
        let net = p.network_instance(0);
        assert!(net.node_count() > 30, "switches plus users");
        assert_eq!(p.routing_config().h, 5);
    }
}
