//! Parameter sweeps reproducing every figure of the paper's evaluation
//! (§V), plus the ablations called out in DESIGN.md.

use std::fmt::Write as _;

use fusion_core::algorithms::{route, RoutingConfig};
use fusion_core::metrics;
use fusion_sim::evaluate::{estimate_plan, McCounters};
use fusion_sim::exact;
use fusion_telemetry::Registry;
use fusion_topology::GeneratorKind;

use crate::workloads::{mean_rate, Algorithm, ExperimentConfig};

/// One algorithm's values across the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend name.
    pub label: String,
    /// One value per x tick.
    pub values: Vec<f64>,
}

/// A rendered figure: x ticks plus one series per algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTable {
    /// Figure identifier (e.g. `fig8a`).
    pub id: &'static str,
    /// Human-readable description.
    pub title: String,
    /// x-axis caption.
    pub x_label: &'static str,
    /// x-axis tick labels.
    pub ticks: Vec<String>,
    /// One series per algorithm.
    pub series: Vec<Series>,
}

impl FigureTable {
    /// Formats the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let width = 14usize;
        let _ = write!(out, "{:<16}", self.x_label);
        for t in &self.ticks {
            let _ = write!(out, "{t:>width$}");
        }
        let _ = writeln!(out);
        for s in &self.series {
            let _ = write!(out, "{:<16}", s.label);
            for v in &s.values {
                let _ = write!(out, "{v:>width$.3}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Formats the table as CSV (`x,<series...>` rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label.replace(' ', "_"));
        for s in &self.series {
            let _ = write!(out, ",{}", s.label);
        }
        let _ = writeln!(out);
        for (i, t) in self.ticks.iter().enumerate() {
            let _ = write!(out, "{t}");
            for s in &self.series {
                let _ = write!(out, ",{:.6}", s.values[i]);
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// One sweep point: tick label, configuration, and a network mutation
/// applied after generation (e.g. the uniform-p override).
type SweepPoint = (
    String,
    ExperimentConfig,
    Box<dyn Fn(&mut fusion_core::QuantumNetwork)>,
);

fn sweep(
    id: &'static str,
    title: &str,
    x_label: &'static str,
    algorithms: &[Algorithm],
    points: Vec<SweepPoint>,
) -> FigureTable {
    let mut series: Vec<Series> = algorithms
        .iter()
        .map(|a| Series {
            label: a.name().to_string(),
            values: Vec::new(),
        })
        .collect();
    let mut ticks = Vec::new();
    for (tick, config, mutate) in &points {
        ticks.push(tick.clone());
        for (si, algo) in algorithms.iter().enumerate() {
            series[si]
                .values
                .push(mean_rate(config, *algo, mutate.as_ref()));
        }
    }
    FigureTable {
        id,
        title: title.to_string(),
        x_label,
        ticks,
        series,
    }
}

fn no_mutation() -> Box<dyn Fn(&mut fusion_core::QuantumNetwork)> {
    Box::new(|_| {})
}

/// Fig. 7: entanglement rate vs. network generation method, including the
/// Alg-3 (no Algorithm 4) ablation series.
#[must_use]
pub fn fig7(config: &ExperimentConfig) -> FigureTable {
    let kinds = [
        ("Waxman", GeneratorKind::Waxman { alpha: 0.4 }),
        ("Watts-S", GeneratorKind::WattsStrogatz { rewire: 0.1 }),
        ("Aiello", GeneratorKind::Aiello { gamma: 2.5 }),
    ];
    let points = kinds
        .iter()
        .map(|(name, kind)| {
            let mut c = config.clone();
            c.topology.kind = *kind;
            ((*name).to_string(), c, no_mutation())
        })
        .collect();
    sweep(
        "fig7",
        "entanglement rate vs. graph generation method",
        "method",
        &Algorithm::ALL,
        points,
    )
}

/// Fig. 8a: entanglement rate vs. uniform link success probability `p`.
#[must_use]
pub fn fig8a(config: &ExperimentConfig) -> FigureTable {
    let points = [0.1, 0.2, 0.3, 0.4]
        .iter()
        .map(|&p| {
            let mutate: Box<dyn Fn(&mut fusion_core::QuantumNetwork)> =
                Box::new(move |net| net.set_uniform_link_success(Some(p)));
            (format!("{p}"), config.clone(), mutate)
        })
        .collect();
    sweep(
        "fig8a",
        "entanglement rate vs. average link success probability p",
        "p",
        &Algorithm::MAIN,
        points,
    )
}

/// Fig. 8b: entanglement rate vs. swap success probability `q`.
#[must_use]
pub fn fig8b(config: &ExperimentConfig) -> FigureTable {
    let points = [0.3, 0.5, 0.7, 0.9]
        .iter()
        .map(|&q| {
            let mutate: Box<dyn Fn(&mut fusion_core::QuantumNetwork)> =
                Box::new(move |net| net.set_swap_success(q));
            (format!("{q}"), config.clone(), mutate)
        })
        .collect();
    sweep(
        "fig8b",
        "entanglement rate vs. swapping success probability q",
        "q",
        &Algorithm::MAIN,
        points,
    )
}

/// Fig. 9a: entanglement rate vs. qubits per switch.
#[must_use]
pub fn fig9a(config: &ExperimentConfig) -> FigureTable {
    let points = [6u32, 8, 10, 12]
        .iter()
        .map(|&cap| {
            let mut c = config.clone();
            c.network.switch_capacity = cap;
            (format!("{cap}"), c, no_mutation())
        })
        .collect();
    sweep(
        "fig9a",
        "entanglement rate vs. number of qubits per switch",
        "qubits",
        &Algorithm::MAIN,
        points,
    )
}

/// Fig. 9b: entanglement rate vs. number of switches.
#[must_use]
pub fn fig9b(config: &ExperimentConfig) -> FigureTable {
    let points = [50usize, 100, 200, 400]
        .iter()
        .map(|&n| {
            let mut c = config.clone();
            c.topology.num_switches = n;
            (format!("{n}"), c, no_mutation())
        })
        .collect();
    sweep(
        "fig9b",
        "entanglement rate vs. number of switches",
        "switches",
        &Algorithm::MAIN,
        points,
    )
}

/// Fig. 9c: entanglement rate vs. number of demanded states.
#[must_use]
pub fn fig9c(config: &ExperimentConfig) -> FigureTable {
    let points = [10usize, 20, 30, 40]
        .iter()
        .map(|&n| {
            let mut c = config.clone();
            c.topology.num_user_pairs = n;
            (format!("{n}"), c, no_mutation())
        })
        .collect();
    sweep(
        "fig9c",
        "entanglement rate vs. number of demanded states",
        "states",
        &Algorithm::MAIN,
        points,
    )
}

/// Fig. 9d: entanglement rate vs. average switch degree.
#[must_use]
pub fn fig9d(config: &ExperimentConfig) -> FigureTable {
    let points = [5.0f64, 10.0, 15.0, 20.0]
        .iter()
        .map(|&d| {
            let mut c = config.clone();
            c.topology.avg_degree = d;
            (format!("{d}"), c, no_mutation())
        })
        .collect();
    sweep(
        "fig9d",
        "entanglement rate vs. average switch degree",
        "degree",
        &Algorithm::MAIN,
        points,
    )
}

/// Ablation: Equation 1 vs. exact reliability vs. Monte Carlo on the flow
/// graphs routed by ALG-N-FUSION. Reports mean per-demand rates under the
/// three evaluators (exact enumeration is skipped for flows with more than
/// 22 random elements).
#[must_use]
pub fn ablation_eq1(config: &ExperimentConfig) -> FigureTable {
    let mut eq1_vals = Vec::new();
    let mut exact_vals = Vec::new();
    let mut mc_vals = Vec::new();
    let mut covered = 0usize;
    let mut total = 0usize;
    for i in 0..config.networks {
        let (net, demands) = config.instance(i);
        let plan = Algorithm::AlgNFusion.route(&net, &demands, config.h, 1, &Registry::disabled());
        let rounds = config.mc_rounds.max(500);
        let mc = estimate_plan(&net, &plan, rounds, config.seed, 1, &McCounters::default());
        for (di, dp) in plan.plans.iter().enumerate() {
            total += 1;
            let elements = dp.flow.edge_count()
                + dp.flow
                    .nodes()
                    .iter()
                    .filter(|&&n| net.is_switch(n))
                    .count();
            if dp.flow.is_empty() || elements > 22 {
                continue;
            }
            covered += 1;
            eq1_vals.push(metrics::flow_rate(&net, &dp.flow).value());
            exact_vals.push(exact::flow_reliability(&net, &dp.flow));
            mc_vals.push(mc.per_demand[di].mean);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let max_gap = eq1_vals
        .iter()
        .zip(&exact_vals)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    FigureTable {
        id: "ablation-eq1",
        title: format!(
            "Eq. 1 vs exact reliability vs Monte Carlo ({covered}/{total} flows enumerable)"
        ),
        x_label: "evaluator",
        ticks: vec![
            "eq1".into(),
            "exact".into(),
            "monte-carlo".into(),
            "max|eq1-exact|".into(),
        ],
        series: vec![Series {
            label: "mean demand rate".into(),
            values: vec![mean(&eq1_vals), mean(&exact_vals), mean(&mc_vals), max_gap],
        }],
    }
}

/// Ablation: sensitivity of ALG-N-FUSION to the candidate-path budget `h`.
#[must_use]
pub fn ablation_h(config: &ExperimentConfig) -> FigureTable {
    let points = [1usize, 2, 5, 8]
        .iter()
        .map(|&h| {
            let mut c = config.clone();
            c.h = h;
            (format!("{h}"), c, no_mutation())
        })
        .collect();
    sweep(
        "ablation-h",
        "ALG-N-FUSION rate vs. candidate paths per width (h)",
        "h",
        &[Algorithm::AlgNFusion],
        points,
    )
}

/// One pipeline ablation: ALG-N-FUSION's mean rate over the configured
/// networks under each `(tick, routing)` variant, routed serially with
/// no telemetry — Monte Carlo when `config.mc_rounds > 0`, analytic
/// otherwise.
fn pipeline_ablation(
    config: &ExperimentConfig,
    id: &'static str,
    title: &str,
    x_label: &'static str,
    variants: [(&str, RoutingConfig); 2],
) -> FigureTable {
    let mut totals = [0.0; 2];
    for i in 0..config.networks {
        let (net, demands) = config.instance(i);
        let caps = net.capacities();
        for ((_, routing), total) in variants.iter().zip(&mut totals) {
            let plan = route(&net, &demands, routing, &caps, 1, &Registry::disabled()).plan;
            *total += if config.mc_rounds == 0 {
                plan.total_rate(&net)
            } else {
                let mc = McCounters::default();
                estimate_plan(&net, &plan, config.mc_rounds, config.seed, 1, &mc).total_rate()
            };
        }
    }
    FigureTable {
        id,
        title: title.into(),
        x_label,
        ticks: variants.iter().map(|(tick, _)| (*tick).into()).collect(),
        series: vec![Series {
            label: "ALG-N-FUSION".into(),
            values: totals.map(|t| t / config.networks as f64).to_vec(),
        }],
    }
}

/// Ablation: flow-like-graph merging on vs. off (§IV-B idea 1).
#[must_use]
pub fn ablation_merge(config: &ExperimentConfig) -> FigureTable {
    let base = RoutingConfig {
        h: config.h,
        ..RoutingConfig::n_fusion()
    };
    let unmerged = RoutingConfig {
        merge_paths: false,
        ..base
    };
    pipeline_ablation(
        config,
        "ablation-merge",
        "flow-like-graph merging on vs off",
        "variant",
        [("merged", base), ("unmerged", unmerged)],
    )
}

/// Ablation: merge order — gain-per-qubit (default) vs the paper's
/// literal width-major order (pseudocode correction 3 in DESIGN.md).
#[must_use]
pub fn ablation_merge_order(config: &ExperimentConfig) -> FigureTable {
    use fusion_core::algorithms::MergeOrder;
    let order = |merge_order| RoutingConfig {
        h: config.h,
        merge_order,
        ..RoutingConfig::n_fusion()
    };
    pipeline_ablation(
        config,
        "ablation-merge-order",
        "Algorithm 3 consumption order: gain-per-qubit vs width-major",
        "order",
        [
            ("gain-per-qubit", order(MergeOrder::GainPerQubit)),
            ("width-major", order(MergeOrder::WidthMajor)),
        ],
    )
}

/// Ablation: the three classic-swapping models (DESIGN.md §2) evaluated on
/// the same Q-CAST-N routes (width-w single paths): single pre-committed
/// lane (the paper's model), multi-lane fixed pairing, and Q-CAST's
/// adaptive re-pairing.
#[must_use]
pub fn ablation_classic(config: &ExperimentConfig) -> FigureTable {
    type Evaluator = fn(&fusion_core::QuantumNetwork, &fusion_core::WidthedPath) -> f64;
    let evaluators: [(&str, Evaluator); 3] = [
        ("single-lane", metrics::classic::success_probability),
        (
            "multi-lane",
            metrics::classic::success_probability_multilane,
        ),
        ("adaptive", metrics::classic::success_probability_adaptive),
    ];
    let mut totals = vec![Vec::new(); evaluators.len()];
    for i in 0..config.networks {
        let (net, demands) = config.instance(i);
        // Width-carrying single paths: the Q-CAST-N routes.
        let plan = Algorithm::QCastN.route(&net, &demands, config.h, 1, &Registry::disabled());
        for (ei, (_, eval)) in evaluators.iter().enumerate() {
            let mut total = 0.0;
            for dp in &plan.plans {
                let fail: f64 = dp.paths.iter().map(|wp| 1.0 - eval(&net, wp)).product();
                total += 1.0 - fail;
            }
            totals[ei].push(total);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    FigureTable {
        id: "ablation-classic",
        title: "classic swapping models on identical width-w routes".into(),
        x_label: "model",
        ticks: evaluators.iter().map(|(n, _)| (*n).to_string()).collect(),
        series: vec![Series {
            label: "rate".into(),
            values: totals.iter().map(|v| mean(v)).collect(),
        }],
    }
}

/// Extension figure: k-party GHZ distribution rate vs. party count
/// (`fusion_core::multiparty`), averaged over the configured networks.
#[must_use]
pub fn extension_multiparty(config: &ExperimentConfig) -> FigureTable {
    use fusion_core::multiparty::{route_multiparty, MultipartyConfig, MultipartyDemand};
    use fusion_core::DemandId;

    let arities = [2usize, 3, 4, 5];
    let mut series = Series {
        label: "hub fusion".into(),
        values: Vec::new(),
    };
    for &k in &arities {
        let mut total = 0.0;
        let mut counted = 0usize;
        for i in 0..config.networks {
            let (net, _) = config.instance(i);
            let users: Vec<_> = net.graph().node_ids().filter(|&n| net.is_user(n)).collect();
            if users.len() < k {
                continue;
            }
            let demand = MultipartyDemand::new(DemandId::new(0), users[..k].to_vec());
            let out = route_multiparty(&net, &[demand], &MultipartyConfig::default());
            total += out.total_rate(&net);
            counted += 1;
        }
        series.values.push(if counted == 0 {
            0.0
        } else {
            total / counted as f64
        });
    }
    FigureTable {
        id: "extension-multiparty",
        title: "k-party GHZ establishment probability vs. party count".into(),
        x_label: "parties k",
        ticks: arities.iter().map(|k| k.to_string()).collect(),
        series: vec![series],
    }
}

/// Ablation: robustness of the routed plan under failure injection.
#[must_use]
pub fn ablation_failures(config: &ExperimentConfig) -> FigureTable {
    use fusion_sim::failure::FailureModel;
    let models = [
        ("healthy", FailureModel::none()),
        (
            "outage-10%",
            FailureModel {
                switch_outage: 0.1,
                link_decay: 0.0,
            },
        ),
        (
            "decay-10%",
            FailureModel {
                switch_outage: 0.0,
                link_decay: 0.1,
            },
        ),
        (
            "both-10%",
            FailureModel {
                switch_outage: 0.1,
                link_decay: 0.1,
            },
        ),
    ];
    let mut series = Series {
        label: "ALG-N-FUSION".into(),
        values: Vec::new(),
    };
    let mut ticks = Vec::new();
    for (name, model) in models {
        ticks.push(name.to_string());
        let mut total = 0.0;
        for i in 0..config.networks {
            let (net, demands) = config.instance(i);
            let plan =
                Algorithm::AlgNFusion.route(&net, &demands, config.h, 1, &Registry::disabled());
            let degraded = model.degrade(&net);
            total += plan.total_rate(&degraded);
        }
        series.values.push(total / config.networks as f64);
    }
    FigureTable {
        id: "ablation-failures",
        title: "plan rate under failure injection".into(),
        x_label: "failure model",
        ticks,
        series: vec![series],
    }
}

/// One per-instance measurement row for the scale probe, in the schema
/// consumed by the `fusion-runner` aggregator (same field names as the
/// sweep engine's JSONL results store, so one set of tooling parses
/// both).
///
/// Routing and Monte Carlo telemetry record into `registry` and are
/// appended to the row as `m_<counter>` integer columns (sorted by
/// counter name, after the fixed measurement columns). With a disabled
/// registry the row carries no counter columns. Counter columns hold
/// only deterministic-plane values, so they are byte-identical across
/// `--threads` settings that divide `mc_rounds` and across kill/resume
/// boundaries — wall-time stays confined to the
/// `world_ms`/`route_ms`/`mc_ms` columns, one per stage of the row:
/// building the network instance, routing, and Monte Carlo. Callers
/// wanting per-row metrics must pass a fresh registry per call; a
/// reused one accumulates across rows.
#[must_use]
pub fn scale_row_with(
    config: &ExperimentConfig,
    preset: &str,
    algorithm: Algorithm,
    instance: usize,
    registry: &Registry,
) -> crate::report::Row {
    use std::time::Instant;
    let threads = config.resolved_threads();
    let t_world = Instant::now();
    let (net, demands) = config.instance(instance);
    let world_ms = t_world.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let plan = algorithm.route(&net, &demands, config.h, threads, registry);
    let route_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let (rate, stderr) = if config.mc_rounds == 0 {
        (plan.total_rate(&net), 0.0)
    } else {
        let mc = McCounters::from_registry(registry);
        let est = estimate_plan(&net, &plan, config.mc_rounds, config.seed, threads, &mc);
        (est.total_rate(), est.total_stderr())
    };
    let mc_ms = t1.elapsed().as_secs_f64() * 1e3;

    let mut row = crate::report::Row::new();
    row.push_str("preset", preset)
        .push_str("generator", config.topology.kind.name())
        .push_int("switches", config.topology.num_switches as i64)
        .push_int("load", config.topology.num_user_pairs as i64)
        .push_str("algorithm", algorithm.name())
        .push_int("seed", config.seed.wrapping_add(instance as u64) as i64)
        .push_num("rate", rate)
        .push_num("stderr", stderr)
        .push_int("rounds", config.mc_rounds as i64)
        .push_int("demands", demands.len() as i64)
        .push_int("nodes", net.node_count() as i64)
        .push_int("edges", net.graph().edge_count() as i64)
        .push_num("world_ms", world_ms)
        .push_num("route_ms", route_ms)
        .push_num("mc_ms", mc_ms);
    if registry.is_enabled() {
        for (name, value) in registry.snapshot().iter() {
            if name == fusion_telemetry::VERSION_KEY {
                continue;
            }
            #[allow(clippy::cast_possible_wrap)]
            row.push_int(&format!("m_{name}"), value as i64);
        }
    }
    row
}

/// The per-instance rows behind the `scale` figure: ALG-N-FUSION on every
/// configured network instance.
#[must_use]
pub fn scale_rows(config: &ExperimentConfig, preset: &str) -> Vec<crate::report::Row> {
    (0..config.networks)
        .map(|i| {
            scale_row_with(
                config,
                preset,
                Algorithm::AlgNFusion,
                i,
                &Registry::disabled(),
            )
        })
        .collect()
}

/// Scale probe: routes and estimates ALG-N-FUSION on the configured
/// topology (typically a `--preset large-*` one), reporting instance
/// shape, served rate, and wall time per pipeline stage. This is the
/// figure that makes the 1k–10k-switch presets an exercisable scenario:
/// `figures scale --preset large-1k`. The underlying per-run JSON rows
/// ([`scale_rows`]) are what the binary writes as `scale.jsonl`.
#[must_use]
pub fn fig_scale(config: &ExperimentConfig) -> FigureTable {
    fig_scale_from_rows(config, &scale_rows(config, "scale"))
}

/// Renders the scale figure table from already-measured rows.
#[must_use]
pub fn fig_scale_from_rows(config: &ExperimentConfig, rows: &[crate::report::Row]) -> FigureTable {
    let mean = |key: &str| {
        let vals: Vec<f64> = rows.iter().filter_map(|r| r.num_field(key)).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    // Switch counts are exact per instance (generators always emit the
    // configured number of switches), so the mean equals the config value.
    FigureTable {
        id: "scale",
        title: format!(
            "ALG-N-FUSION at scale ({} switches, {} threads)",
            config.topology.num_switches,
            config.resolved_threads()
        ),
        x_label: "measure",
        ticks: vec![
            "switches".into(),
            "edges".into(),
            "rate".into(),
            "world_ms".into(),
            "route_ms".into(),
            "mc_ms".into(),
        ],
        series: vec![Series {
            label: "ALG-N-FUSION".into(),
            values: vec![
                mean("switches"),
                mean("edges"),
                mean("rate"),
                mean("world_ms"),
                mean("route_ms"),
                mean("mc_ms"),
            ],
        }],
    }
}

/// Runs a figure by id; `None` for unknown ids.
#[must_use]
pub fn run(id: &str, config: &ExperimentConfig) -> Option<FigureTable> {
    Some(match id {
        "fig7" => fig7(config),
        "fig8a" => fig8a(config),
        "fig8b" => fig8b(config),
        "fig9a" => fig9a(config),
        "fig9b" => fig9b(config),
        "fig9c" => fig9c(config),
        "fig9d" => fig9d(config),
        "ablation-eq1" => ablation_eq1(config),
        "ablation-h" => ablation_h(config),
        "ablation-merge" => ablation_merge(config),
        "ablation-merge-order" => ablation_merge_order(config),
        "ablation-classic" => ablation_classic(config),
        "extension-multiparty" => extension_multiparty(config),
        "ablation-failures" => ablation_failures(config),
        "scale" => fig_scale(config),
        _ => return None,
    })
}

/// Every figure id, in paper order then ablations.
pub const ALL_FIGURES: [&str; 15] = [
    "fig7",
    "fig8a",
    "fig8b",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "ablation-eq1",
    "ablation-h",
    "ablation-merge",
    "ablation-merge-order",
    "ablation-classic",
    "ablation-failures",
    "extension-multiparty",
    "scale",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        let mut c = ExperimentConfig::quick();
        c.networks = 1;
        c.mc_rounds = 0; // analytic: fast and deterministic
        c
    }

    #[test]
    fn fig8a_has_expected_shape() {
        let t = fig8a(&tiny());
        assert_eq!(t.ticks, vec!["0.1", "0.2", "0.3", "0.4"]);
        assert_eq!(t.series.len(), 4);
        // Rates grow with p for our algorithm.
        let ours = &t.series[0];
        assert_eq!(ours.label, "ALG-N-FUSION");
        assert!(
            ours.values.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "rate must rise with p: {:?}",
            ours.values
        );
    }

    #[test]
    fn fig7_includes_alg3_ablation() {
        let t = fig7(&tiny());
        assert_eq!(t.series.len(), 5);
        assert!(t.series.iter().any(|s| s.label == "Alg-3"));
        assert_eq!(t.ticks.len(), 3);
    }

    #[test]
    fn render_and_csv_are_aligned() {
        let t = fig8b(&tiny());
        let text = t.render();
        assert!(text.contains("fig8b"));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + t.ticks.len());
        assert_eq!(lines[0].split(',').count(), 1 + t.series.len());
    }

    #[test]
    fn run_dispatches_every_id() {
        let c = tiny();
        for id in ["fig9c", "ablation-h"] {
            assert!(run(id, &c).is_some(), "{id} must dispatch");
        }
        assert!(run("nope", &c).is_none());
    }

    #[test]
    fn scale_figure_reports_shape_and_timing() {
        let t = fig_scale(&tiny());
        assert_eq!(t.ticks.len(), 6);
        let v = &t.series[0].values;
        assert_eq!(v[0], 30.0, "quick config has 30 switches");
        assert!(v[1] > 30.0, "edges outnumber switches");
        assert!(v[2] > 0.0, "must route something");
        assert!(
            v[3..].iter().all(|&ms| ms >= 0.0),
            "timings are non-negative"
        );
    }

    #[test]
    fn scale_rows_follow_runner_schema() {
        let c = tiny();
        let rows = scale_rows(&c, "quick");
        assert_eq!(rows.len(), c.networks);
        for (i, row) in rows.iter().enumerate() {
            // The aggregation keys and folded metric of the sweep engine.
            assert_eq!(row.str_field("preset"), Some("quick"));
            assert_eq!(row.str_field("algorithm"), Some("ALG-N-FUSION"));
            assert_eq!(row.int_field("switches"), Some(30));
            assert_eq!(row.int_field("load"), Some(6));
            assert_eq!(row.int_field("seed"), Some((c.seed + i as u64) as i64));
            assert!(row.num_field("rate").is_some_and(|r| r > 0.0));
            for stage in ["world_ms", "route_ms", "mc_ms"] {
                assert!(row.num_field(stage).is_some_and(|ms| ms >= 0.0), "{stage}");
            }
            // Rows must round-trip through the shared JSONL codec.
            let line = row.to_json();
            assert_eq!(&crate::report::Row::parse_json(&line).unwrap(), row);
        }
    }

    #[test]
    fn scale_rows_pin_their_counter_columns() {
        // The sweep summary pins one `mean_m_*` column per registered
        // counter (e2e_bench/reference/). ALG-N-FUSION records its
        // Algorithm 2, Algorithm 3 and Monte Carlo work; a baseline
        // routes with a disabled registry, so only its Monte Carlo
        // counters may appear.
        let mut c = ExperimentConfig::quick();
        c.networks = 1;
        let counter_columns = |algorithm: Algorithm| -> Vec<String> {
            let row = scale_row_with(&c, "quick", algorithm, 0, &Registry::enabled());
            row.fields()
                .iter()
                .filter_map(|(key, _)| key.strip_prefix("m_").map(str::to_owned))
                .collect()
        };
        assert_eq!(
            counter_columns(Algorithm::AlgNFusion),
            [
                "alg2.reach_skips",
                "alg2.search.exhaustions",
                "alg2.search.pops",
                "alg2.search.relaxations",
                "alg2.spur_searches",
                "alg2.widths_searched",
                "alg3.accepts",
                "alg3.heap_pushes",
                "alg3.invalidations",
                "alg3.stale_pops",
                "mc.fusion_attempts",
                "mc.rounds",
            ]
        );
        assert_eq!(
            counter_columns(Algorithm::QCastN),
            ["mc.fusion_attempts", "mc.rounds"]
        );
    }

    #[test]
    fn merge_ablation_is_close_and_positive() {
        let t = ablation_merge(&tiny());
        let (merged, unmerged) = (t.series[0].values[0], t.series[0].values[1]);
        // Merging saves qubits; the greedy heuristic may trade a sliver of
        // rate either way on tiny instances, but both variants must route
        // and stay close.
        assert!(merged > 0.0 && unmerged > 0.0);
        assert!(
            merged >= unmerged - 0.25,
            "merging regressed sharply: {merged} vs {unmerged}"
        );
    }
}
