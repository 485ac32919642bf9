//! Default experiment configuration (paper §V-A) and algorithm runners.

use fusion_core::algorithms::{route, RoutingConfig};
use fusion_core::baselines::{route_b1, route_qcast, route_qcast_n, DEFAULT_REGION_PATHS};
use fusion_core::{Demand, NetworkParams, NetworkPlan, QuantumNetwork};
use fusion_serve::ServePreset;
use fusion_sim::evaluate::{estimate_plan, McCounters};
use fusion_telemetry::Registry;
use fusion_topology::{GeneratorKind, TopologyConfig};

/// One experiment instance: everything needed to generate networks and
/// route demands. Field defaults mirror §V-A.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Topology generation parameters (100 switches, degree 10, 20 states,
    /// 10k × 10k area by default).
    pub topology: TopologyConfig,
    /// Switch capacity and physics (capacity 10, q = 0.9, α = 1e-4).
    pub network: NetworkParams,
    /// Networks generated and averaged per data point (paper: 5).
    pub networks: usize,
    /// Candidate paths per (demand, width) for Algorithm 2.
    pub h: usize,
    /// Monte Carlo rounds per (network, demand) when estimating rates
    /// empirically; `0` reports analytic rates instead.
    pub mc_rounds: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for routing and Monte Carlo estimation; `1` keeps
    /// the historical fully-serial behaviour (and its RNG streams), `0`
    /// means "all available cores". The scale presets default to `0`.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    /// The `default` preset: the paper's §V-A world, averaged over 5
    /// networks with 1,500 Monte Carlo rounds, serial.
    fn default() -> Self {
        preset("default")
    }
}

impl ExperimentConfig {
    /// The `quick` preset: a scaled-down world (30 switches, 6 states)
    /// for smoke runs and tests, averaged over 2 networks.
    #[must_use]
    pub fn quick() -> Self {
        preset("quick")
    }

    /// The `large-1k` preset's shape with `num_switches` switches (Waxman
    /// by default, see [`ExperimentConfig::large_grid`]): 50 demanded
    /// states, one network, h = 3, 200 Monte Carlo rounds, all cores.
    /// These settings keep a 1k-switch end-to-end run in seconds and a
    /// 10k-switch run in minutes; push any knob back up explicitly when
    /// you need more.
    #[must_use]
    pub fn large(num_switches: usize) -> Self {
        let mut c = preset("large-1k");
        c.topology.num_switches = num_switches;
        c
    }

    /// [`ExperimentConfig::large`] on the deterministic grid lattice —
    /// O(n) generation, the reference shape for 5k/10k scale runs.
    #[must_use]
    pub fn large_grid(num_switches: usize) -> Self {
        let mut c = Self::large(num_switches);
        c.topology.kind = GeneratorKind::Grid;
        c
    }

    /// Resolves [`threads`](ExperimentConfig::threads): `0` becomes the
    /// available core count.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        }
    }

    /// Generates the `i`-th network instance and its demand list.
    #[must_use]
    pub fn instance(&self, i: usize) -> (QuantumNetwork, Vec<Demand>) {
        let topo = self.topology.generate(self.seed.wrapping_add(i as u64));
        let net = QuantumNetwork::from_topology(&topo, &self.network);
        let demands = Demand::from_topology(&topo);
        (net, demands)
    }
}

/// A world from `fusion_serve`'s preset table plus the batch fields a
/// preset adds to it: networks averaged, Monte Carlo rounds and threads.
fn from_world(world: ServePreset) -> ExperimentConfig {
    let (networks, mc_rounds, threads) = match world.name {
        "default" => (5, 1_500, 1),
        "quick" => (2, 400, 1),
        name => {
            assert!(name.starts_with("large-"), "no batch fields for {name}");
            (1, 200, 0)
        }
    };
    ExperimentConfig {
        topology: world.topology,
        network: world.network,
        networks,
        h: world.h,
        mc_rounds,
        seed: world.seed,
        threads,
    }
}

/// The named preset, which the preset table must hold.
fn preset(name: &str) -> ExperimentConfig {
    resolve_preset(name).unwrap_or_else(|| panic!("the preset table names {name}"))
}

/// The named large-topology presets (`large-*`) exercised by the
/// `figures` binary (`--preset NAME`) and the scale probes.
#[must_use]
pub fn scale_presets() -> Vec<(&'static str, ExperimentConfig)> {
    fusion_serve::presets()
        .into_iter()
        .filter(|w| w.name.starts_with("large-"))
        .map(|w| (w.name, from_world(w)))
        .collect()
}

/// Every canonical preset name, base presets first then the large-scale
/// ones — the vocabulary sweep specifications are authored against
/// (`sweep list-presets`).
#[must_use]
pub fn preset_names() -> Vec<&'static str> {
    fusion_serve::presets().iter().map(|w| w.name).collect()
}

/// Resolves a canonical preset name to its configuration.
#[must_use]
pub fn resolve_preset(name: &str) -> Option<ExperimentConfig> {
    fusion_serve::resolve_preset(name).map(from_world)
}

/// The five algorithm variants of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's ALG-N-FUSION (Algorithms 1-4 under n-fusion).
    AlgNFusion,
    /// Classic-swapping restriction (N = 2).
    QCast,
    /// Q-CAST routes evaluated under n-fusion.
    QCastN,
    /// Patil et al. percolation baseline extended to multiple pairs.
    B1,
    /// ALG-N-FUSION without Algorithm 4 (Fig. 7 ablation).
    Alg3Only,
}

impl Algorithm {
    /// The four algorithms compared in every figure.
    pub const MAIN: [Algorithm; 4] = [
        Algorithm::AlgNFusion,
        Algorithm::QCast,
        Algorithm::QCastN,
        Algorithm::B1,
    ];

    /// All five variants (Fig. 7 adds the Alg-3 ablation).
    pub const ALL: [Algorithm; 5] = [
        Algorithm::AlgNFusion,
        Algorithm::QCast,
        Algorithm::QCastN,
        Algorithm::B1,
        Algorithm::Alg3Only,
    ];

    /// Display name matching the paper's legends.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::AlgNFusion => "ALG-N-FUSION",
            Algorithm::QCast => "Q-CAST",
            Algorithm::QCastN => "Q-CAST-N",
            Algorithm::B1 => "B1",
            Algorithm::Alg3Only => "Alg-3",
        }
    }

    /// Parses a display name ([`Algorithm::name`]) back into the variant.
    /// Case-insensitive; returns `None` for unknown names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// Routes `demands` on `net` with this algorithm.
    ///
    /// The pipeline-based algorithms shard candidate construction over
    /// `threads` workers (the plan is byte-identical for any count) and
    /// record their `alg2.*`/`alg3.*` counters into `registry`. The
    /// baselines route serially and record nothing, whatever `threads`
    /// and `registry` say: B1 routes demands one by one against a
    /// running capacity remainder, and a sweep row's counter columns
    /// belong to ALG-N-FUSION.
    #[must_use]
    pub fn route(
        self,
        net: &QuantumNetwork,
        demands: &[Demand],
        h: usize,
        threads: usize,
        registry: &Registry,
    ) -> NetworkPlan {
        let pipeline = |base: RoutingConfig| {
            let config = RoutingConfig { h, ..base };
            route(net, demands, &config, &net.capacities(), threads, registry).plan
        };
        match self {
            Algorithm::AlgNFusion => pipeline(RoutingConfig::n_fusion()),
            Algorithm::QCast => route_qcast(net, demands, h),
            Algorithm::QCastN => route_qcast_n(net, demands, h),
            Algorithm::B1 => route_b1(net, demands, DEFAULT_REGION_PATHS),
            Algorithm::Alg3Only => pipeline(RoutingConfig::n_fusion_without_alg4()),
        }
    }
}

/// Entanglement rate of `algorithm` on one network instance: Monte Carlo
/// when `mc_rounds > 0`, analytic otherwise. Honors `config.threads`
/// (`threads == 1` reproduces the historical serial RNG streams exactly)
/// and records routing and Monte Carlo counters into `registry`. Counter
/// totals are identical for any `threads` setting that divides
/// `config.mc_rounds` (see [`estimate_plan`]).
#[must_use]
pub fn measure_rate(
    config: &ExperimentConfig,
    algorithm: Algorithm,
    net: &QuantumNetwork,
    demands: &[Demand],
    registry: &Registry,
) -> f64 {
    let threads = config.resolved_threads();
    let plan = algorithm.route(net, demands, config.h, threads, registry);
    if config.mc_rounds == 0 {
        plan.total_rate(net)
    } else {
        let mc = McCounters::from_registry(registry);
        estimate_plan(net, &plan, config.mc_rounds, config.seed, threads, &mc).total_rate()
    }
}

/// Mean entanglement rate of `algorithm` over the configured number of
/// random networks, with `mutate` applied to each instance (parameter
/// sweeps adjust q, uniform p, etc.).
#[must_use]
pub fn mean_rate(
    config: &ExperimentConfig,
    algorithm: Algorithm,
    mutate: &dyn Fn(&mut QuantumNetwork),
) -> f64 {
    let mut total = 0.0;
    for i in 0..config.networks {
        let (mut net, demands) = config.instance(i);
        mutate(&mut net);
        total += measure_rate(config, algorithm, &net, &demands, &Registry::disabled());
    }
    total / config.networks as f64
}

/// Network-level statistics used for calibration reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceStats {
    /// Mean single-link success probability.
    pub mean_link_success: f64,
    /// Average switch degree.
    pub avg_degree: f64,
    /// Nodes (switches + users).
    pub nodes: usize,
    /// Edges.
    pub edges: usize,
}

/// Computes calibration statistics for an instance.
#[must_use]
pub fn instance_stats(net: &QuantumNetwork) -> InstanceStats {
    let g = net.graph();
    let switches: Vec<_> = g.node_ids().filter(|&n| net.is_switch(n)).collect();
    let avg_degree = if switches.is_empty() {
        0.0
    } else {
        switches.iter().map(|&s| g.degree(s)).sum::<usize>() as f64 / switches.len() as f64
    };
    InstanceStats {
        mean_link_success: fusion_sim::failure::mean_link_success(net),
        avg_degree,
        nodes: g.node_count(),
        edges: g.edge_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = ExperimentConfig::default();
        assert_eq!(c.topology.num_switches, 100);
        assert_eq!(c.topology.num_user_pairs, 20);
        assert_eq!(c.network.switch_capacity, 10);
        assert_eq!(c.networks, 5);
        assert!((c.network.physics.swap_success - 0.9).abs() < 1e-12);
        assert!((c.network.physics.alpha - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn instances_are_deterministic_and_distinct() {
        let c = ExperimentConfig::quick();
        let (a, da) = c.instance(0);
        let (b, db) = c.instance(0);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(da, db);
        let (other, _) = c.instance(1);
        assert_ne!(
            a.graph().edge_count(),
            usize::MAX,
            "sanity: instance generation ran"
        );
        // Different index, different seed: almost surely different edges.
        assert!(
            a.graph().edge_count() != other.graph().edge_count()
                || a.node_count() == other.node_count()
        );
    }

    #[test]
    fn preset_names_resolve() {
        let names = preset_names();
        assert!(names.contains(&"default") && names.contains(&"quick"));
        assert!(names.contains(&"large-1k-grid"));
        for name in names {
            assert!(resolve_preset(name).is_some(), "{name} must resolve");
        }
        assert!(resolve_preset("nope").is_none());
    }

    #[test]
    fn serve_instances_match_bench_instances() {
        // Same preset name, same instance index => the exact same network:
        // replay results on a serve preset are directly comparable to the
        // batch experiments of the same name.
        let serve_preset = fusion_serve::resolve_preset("quick").unwrap();
        let bench_config = resolve_preset("quick").unwrap();
        for i in 0..2 {
            let from_serve = serve_preset.network_instance(i);
            let (from_bench, _) = bench_config.instance(i);
            assert_eq!(from_serve.node_count(), from_bench.node_count());
            assert_eq!(
                from_serve.graph().edge_count(),
                from_bench.graph().edge_count()
            );
            assert_eq!(from_serve.capacities(), from_bench.capacities());
        }
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(algo.name()), Some(algo));
        }
        assert_eq!(
            Algorithm::from_name("alg-n-fusion"),
            Some(Algorithm::AlgNFusion),
            "parsing is case-insensitive"
        );
        assert_eq!(Algorithm::from_name("dijkstra"), None);
    }

    #[test]
    fn all_algorithms_run_on_quick_config() {
        let c = ExperimentConfig::quick();
        let (net, demands) = c.instance(0);
        for algo in Algorithm::ALL {
            let plan = algo.route(&net, &demands, c.h, 1, &Registry::disabled());
            let rate = plan.total_rate(&net);
            assert!(
                (0.0..=demands.len() as f64 + 1e-9).contains(&rate),
                "{} produced rate {rate}",
                algo.name()
            );
        }
    }

    #[test]
    fn scale_presets_are_runnable_shapes() {
        let presets = scale_presets();
        assert_eq!(presets.len(), 6);
        for (name, c) in &presets {
            assert!(
                c.topology.num_switches >= 1_000,
                "{name} is not large-scale"
            );
            assert_eq!(c.networks, 1, "{name} must average a single network");
            assert!(c.mc_rounds <= 500, "{name} would run for hours");
            assert!(c.resolved_threads() >= 1);
        }
        assert!(presets
            .iter()
            .any(|(n, c)| n.ends_with("-grid") && c.topology.kind == GeneratorKind::Grid));
    }

    #[test]
    fn large_grid_preset_routes_end_to_end() {
        // A scaled-down clone of the grid preset (same shape, fewer
        // switches) must route and estimate without issue.
        let mut c = ExperimentConfig::large_grid(1_000);
        c.topology.num_switches = 150;
        c.topology.num_user_pairs = 8;
        c.mc_rounds = 50;
        let (net, demands) = c.instance(0);
        assert_eq!(
            net.node_count(),
            150 + 16,
            "grid switches plus attached users"
        );
        let rate = measure_rate(
            &c,
            Algorithm::AlgNFusion,
            &net,
            &demands,
            &Registry::disabled(),
        );
        assert!(rate > 0.0, "grid network must route something");
    }

    #[test]
    fn threaded_measure_matches_serial_analytically() {
        // With mc_rounds == 0 the rate is analytic, so thread count must
        // not change it at all.
        let mut c = ExperimentConfig::quick();
        c.mc_rounds = 0;
        let (net, demands) = c.instance(0);
        let disabled = Registry::disabled();
        let serial = measure_rate(&c, Algorithm::AlgNFusion, &net, &demands, &disabled);
        c.threads = 0;
        let parallel = measure_rate(&c, Algorithm::AlgNFusion, &net, &demands, &disabled);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stats_are_sane() {
        let c = ExperimentConfig::quick();
        let (net, _) = c.instance(0);
        let stats = instance_stats(&net);
        assert!(stats.mean_link_success > 0.0 && stats.mean_link_success < 1.0);
        assert!(stats.avg_degree > 1.0);
        assert_eq!(stats.nodes, net.node_count());
    }
}
