//! Wall-clock perf workloads with machine-readable output.
//!
//! Criterion's statistical micro-benches (`cargo bench`) are great for
//! local investigation but awkward to gate CI on: the vendored harness has
//! no baseline comparison and shared runners are noisy. This module defines
//! a small set of *fixed, deterministic* workloads, times them with plain
//! `Instant` medians, and serializes the results as a flat JSON map so the
//! `perfbench` binary can emit and compare them (the CI bench job fails on
//! large threshold-based regressions, per ROADMAP).
//!
//! The committed reference numbers live in `BENCH_BASELINE.json` at the
//! repo root; regenerate them with
//! `cargo run --release -p fusion-bench --bin perfbench -- run --out BENCH_BASELINE.json`.
//!
//! Wall time is the noisy half of the gate. The exact half is the work the
//! workloads count: `BENCH_WORK.json` pins every counter of every
//! workload's telemetry snapshot ([`WorkCounts`]), and `perfbench work
//! --check` fails on any difference.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fusion_core::algorithms::{alg1, alg2, alg3_greedy, MergeCounters};
use fusion_core::{metrics, SwapMode};
use fusion_graph::{SearchCounters, SearchScratch};
use fusion_sim::evaluate::{estimate_plan_counted, McCounters};
use fusion_telemetry::{MetricsSnapshot, Registry};

use crate::workloads::{Algorithm, ExperimentConfig};

/// Median wall time of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Workload name (stable across refactors; the baseline key).
    pub name: String,
    /// Median wall time of one workload iteration, in nanoseconds.
    pub median_ns: f64,
    /// Timed repetitions the median was taken over.
    pub reps: usize,
}

/// Outcome of comparing one workload against the committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub name: String,
    /// Baseline median (ns).
    pub baseline_ns: f64,
    /// Current median (ns), after calibration scaling when available.
    pub current_ns: f64,
    /// `current / baseline - 1`; positive means slower.
    pub ratio: f64,
    /// Whether the ratio exceeds the regression threshold.
    pub regressed: bool,
}

/// Name of the machine-speed calibration workload. It is emitted and used
/// to normalize comparisons across machines, but never gated itself.
pub const CALIBRATION: &str = "calibration";

/// Stable workload names, in execution order. Must stay in sync with the
/// committed `BENCH_BASELINE.json` — `workload_set_matches_baseline_keys`
/// fails otherwise, so a new workload cannot silently escape the CI gate.
pub const WORKLOADS: [&str; 9] = [
    CALIBRATION,
    "alg1_path_search",
    "alg2_selection",
    "eq1_flow_rate",
    "mc_round",
    "alg2_select",
    "alg3_merge",
    "scale_1k_route",
    "serve_replay",
];

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}

/// Times `work` over `reps` repetitions (plus one warmup) and returns the
/// median nanoseconds per repetition.
fn time_workload(name: &str, reps: usize, mut work: impl FnMut()) -> BenchResult {
    work(); // warmup: page in code and data
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        work();
        samples.push(start.elapsed().as_nanos() as f64);
    }
    BenchResult {
        name: name.to_string(),
        median_ns: median(samples),
        reps,
    }
}

/// Fixed-cost arithmetic loop used to estimate the host's single-core
/// speed, so baselines captured on one machine can be compared on another.
fn run_calibration(reps: usize) -> BenchResult {
    time_workload(CALIBRATION, reps, || {
        let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..2_000_000u64 {
            acc ^= acc << 13;
            acc ^= acc >> 7;
            acc ^= acc << 17;
            acc = acc.wrapping_add(i);
        }
        black_box(acc);
    })
}

/// Runs the named workload with `reps` timed repetitions.
///
/// # Panics
///
/// Panics if `name` is not one of [`WORKLOADS`] or `reps == 0`.
#[must_use]
pub fn run_workload(name: &str, reps: usize) -> BenchResult {
    run_workload_with(name, reps, &Registry::disabled())
}

/// [`run_workload`] with routing/search/MC counters from the timed region
/// recorded into `registry` (setup work — topology generation, trace
/// generation, candidate construction — stays uncounted). With an enabled
/// registry the timed code paths are identical to the disabled run except
/// for the counter increments themselves, which is exactly what the
/// `telemetry_overhead_within_gate` regression test measures. Counter
/// totals accumulate over the warmup plus all `reps` repetitions, so a
/// snapshot taken afterwards is deterministic for a fixed `(name, reps)`.
///
/// # Panics
///
/// As [`run_workload`].
#[must_use]
pub fn run_workload_with(name: &str, reps: usize, registry: &Registry) -> BenchResult {
    assert!(reps > 0, "need at least one timed repetition");
    match name {
        CALIBRATION => run_calibration(reps),
        "alg1_path_search" => {
            // The workload is "answer these path queries"; since the
            // scratch refactor the production callers hold a reusable
            // arena, so the timed loop does too.
            let config = ExperimentConfig::quick();
            let (net, demands) = config.instance(0);
            let caps = net.capacities();
            let cons = alg1::PathConstraints::default();
            let mut scratch = SearchScratch::with_capacity(net.node_count());
            scratch.counters = SearchCounters::from_registry(registry, "alg1.search");
            time_workload(name, reps, || {
                for d in &demands {
                    for width in [1u32, 2, 3] {
                        black_box(alg1::largest_rate_path_with(
                            &mut scratch,
                            &net,
                            d.source,
                            d.dest,
                            width,
                            &caps,
                            &cons,
                        ));
                    }
                }
            })
        }
        "alg2_selection" => {
            let config = ExperimentConfig::quick();
            let (net, demands) = config.instance(0);
            let caps = net.capacities();
            time_workload(name, reps, || {
                black_box(alg2::paths_selection_counted(
                    &net,
                    &demands,
                    &caps,
                    config.h,
                    5,
                    SwapMode::NFusion,
                    registry,
                ));
            })
        }
        "eq1_flow_rate" => {
            let config = ExperimentConfig::quick();
            let (net, demands) = config.instance(0);
            let plan = Algorithm::AlgNFusion.route(&net, &demands, config.h);
            time_workload(name, reps, || {
                for dp in &plan.plans {
                    black_box(metrics::flow_rate(&net, &dp.flow));
                }
            })
        }
        "mc_round" => {
            let config = ExperimentConfig::quick();
            let (net, demands) = config.instance(0);
            let plan = Algorithm::AlgNFusion.route(&net, &demands, config.h);
            let mc = McCounters::from_registry(registry);
            time_workload(name, reps, || {
                black_box(estimate_plan_counted(&net, &plan, 2_000, config.seed, &mc));
            })
        }
        "alg2_select" => {
            // Algorithm 2's width-descent candidate construction at the
            // `large-10k-grid` preset — the ROADMAP's former top
            // single-core bottleneck. Topology generation is setup, not
            // measured. The timed region covers a fixed 8-demand slice of
            // the preset's 50 demands so a 7-rep CI run stays in tens of
            // seconds; the per-demand descent is what the gate needs to
            // watch, and it is identical across demands. (The retained
            // per-width sweep `paths_selection_reference` is several
            // times slower on this workload; see EXPERIMENTS.md.)
            let mut config = ExperimentConfig::large_grid(10_000);
            config.threads = 1;
            let (net, demands) = config.instance(0);
            let caps = net.capacities();
            let slice = &demands[..8.min(demands.len())];
            let max_width = net.max_switch_capacity();
            time_workload(name, reps, || {
                black_box(alg2::paths_selection_counted(
                    &net,
                    slice,
                    &caps,
                    config.h,
                    max_width,
                    SwapMode::NFusion,
                    registry,
                ));
            })
        }
        "alg3_merge" => {
            // The Algorithm 3 incremental gain-queue merge at the
            // `large-10k-grid` preset — the ROADMAP's former top
            // bottleneck. Topology generation and candidate construction
            // are setup, not measured: the timed region is the merge
            // alone, so a regression here points straight at the queue.
            // (The full-re-scan oracle `paths_merge_greedy_reference` is
            // ~30x slower on this workload; see EXPERIMENTS.md.)
            let mut config = ExperimentConfig::large_grid(10_000);
            config.threads = 1;
            let (net, demands) = config.instance(0);
            let caps = net.capacities();
            let candidates = alg2::paths_selection(
                &net,
                &demands,
                &caps,
                config.h,
                net.max_switch_capacity(),
                SwapMode::NFusion,
            );
            let merge_counters = MergeCounters::from_registry(registry);
            time_workload(name, reps, || {
                black_box(alg3_greedy::paths_merge_greedy_counted(
                    &net,
                    &demands,
                    &candidates,
                    SwapMode::NFusion,
                    true,
                    None,
                    &caps,
                    &merge_counters,
                ));
            })
        }
        "scale_1k_route" => {
            // End-to-end 1k-switch grid workload: routing plus a short
            // Monte Carlo estimate. Topology generation is setup, not
            // measured. Pinned to one thread: every gated workload must
            // be single-threaded so the single-core `calibration` factor
            // can normalize across machines — a core-count difference
            // between the baseline host and a CI runner would otherwise
            // trip (or mask) the gate on parallel workloads. Parallel
            // scaling is covered by the bit-identity tests and the
            // Criterion `scale` bench instead.
            let mut config = ExperimentConfig::large_grid(1_000);
            config.threads = 1;
            let (net, demands) = config.instance(0);
            let mc = McCounters::from_registry(registry);
            time_workload(name, reps, || {
                let plan = Algorithm::AlgNFusion
                    .route_threads_counted(&net, &demands, config.h, 1, registry);
                black_box(
                    estimate_plan_counted(&net, &plan, config.mc_rounds, config.seed, &mc)
                        .total_rate(),
                );
            })
        }
        "serve_replay" => {
            // The online engine: a fixed admit/depart/link-down trace
            // replayed from a fresh service state each repetition.
            // Network and trace generation are setup, not measured; the
            // timed region is admission routing against the residual
            // ledger plus ledger charge/release — the serve crate's hot
            // path. Admissions are inherently single-threaded (one demand
            // at a time), satisfying the single-core calibration rule.
            let preset = fusion_serve::resolve_preset("quick").expect("quick serve preset");
            let net = preset.network_instance(0);
            let routing = preset.routing_config();
            let trace_config = fusion_serve::TraceConfig {
                events: 600,
                link_down_rate: 0.05,
                ..fusion_serve::TraceConfig::default()
            };
            let probe = fusion_serve::ServiceState::new(net.clone(), routing);
            let trace = fusion_serve::generate(probe.network(), &trace_config);
            time_workload(name, reps, || {
                let mut state = fusion_serve::ServiceState::with_telemetry(
                    net.clone(),
                    routing,
                    registry.clone(),
                );
                let report = fusion_serve::replay(
                    &mut state,
                    &trace,
                    &fusion_serve::ReplayOptions::default(),
                );
                black_box(report.fingerprint());
            })
        }
        other => panic!("unknown workload {other}; known: {}", WORKLOADS.join(" ")),
    }
}

/// Serializes results as a flat JSON object `{"name": median_ns, ...}`.
#[must_use]
pub fn to_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!("  \"{}\": {:.1}{}\n", r.name, r.median_ns, comma));
    }
    out.push_str("}\n");
    out
}

/// Parses the flat JSON object written by [`to_json`].
///
/// Only the exact shape produced by this module is supported: an object
/// whose values are plain (non-scientific) numbers and whose keys contain
/// no escapes — enough for the bench gate without a JSON dependency.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn parse_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "expected a JSON object".to_string())?;
    let mut out = Vec::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed entry {entry:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("malformed key in {entry:?}"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("malformed value in {entry:?}: {e}"))?;
        out.push((key.to_string(), value));
    }
    Ok(out)
}

/// Compares current results against a baseline.
///
/// When both sides carry the [`CALIBRATION`] workload, current numbers are
/// scaled by `baseline_calibration / current_calibration` first, so a
/// slower or faster host does not trip the gate. A workload present in the
/// baseline but missing from `current` is reported as a regression (it
/// means a gated bench was silently dropped); extra current workloads are
/// ignored.
#[must_use]
pub fn compare(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    threshold: f64,
) -> Vec<Comparison> {
    let find =
        |set: &[(String, f64)], name: &str| set.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    let scale = match (find(baseline, CALIBRATION), find(current, CALIBRATION)) {
        (Some(b), Some(c)) if b > 0.0 && c > 0.0 => b / c,
        _ => 1.0,
    };
    baseline
        .iter()
        .filter(|(name, _)| name != CALIBRATION)
        .map(|(name, base)| match find(current, name) {
            Some(cur) => {
                let scaled = cur * scale;
                let ratio = scaled / base - 1.0;
                Comparison {
                    name: name.clone(),
                    baseline_ns: *base,
                    current_ns: scaled,
                    ratio,
                    regressed: ratio > threshold,
                }
            }
            None => Comparison {
                name: name.clone(),
                baseline_ns: *base,
                current_ns: f64::NAN,
                ratio: f64::INFINITY,
                regressed: true,
            },
        })
        .collect()
}

/// Deterministic work per workload, in [`WORKLOADS`] order: each
/// workload's counter snapshot from `perfbench run --metrics DIR`. The
/// counts cover the warmup and every timed repetition, so they are a pure
/// function of the code and `--reps`. `BENCH_WORK.json` pins them for
/// `--reps 7`.
pub type WorkCounts = Vec<(String, BTreeMap<String, u64>)>;

/// Reads the `<workload>.metrics.json` snapshots a `perfbench run
/// --metrics DIR` wrote, in [`WORKLOADS`] order. Workloads without a
/// snapshot file are left out.
///
/// # Errors
///
/// A description of the first unreadable or malformed snapshot, or of a
/// directory holding none.
pub fn read_work_dir(dir: &std::path::Path) -> Result<WorkCounts, String> {
    let mut work = WorkCounts::new();
    for name in WORKLOADS {
        let path = dir.join(format!("{name}.metrics.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(format!("could not read {}: {e}", path.display())),
        };
        let snapshot =
            MetricsSnapshot::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let counters = snapshot.iter().map(|(k, v)| (k.to_string(), v)).collect();
        work.push((name.to_string(), counters));
    }
    if work.is_empty() {
        return Err(format!("no <workload>.metrics.json in {}", dir.display()));
    }
    Ok(work)
}

/// Serializes work counts as one JSON object of per-workload objects, one
/// counter per line.
#[must_use]
pub fn work_to_json(work: &WorkCounts) -> String {
    let mut out = String::from("{\n");
    for (i, (name, counters)) in work.iter().enumerate() {
        out.push_str(&format!("  \"{name}\": {{"));
        for (j, (key, value)) in counters.iter().enumerate() {
            let comma = if j + 1 < counters.len() { "," } else { "" };
            out.push_str(&format!("\n    \"{key}\": {value}{comma}"));
        }
        if !counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(if i + 1 < work.len() { "},\n" } else { "}\n" });
    }
    out.push_str("}\n");
    out
}

/// Parses the format written by [`work_to_json`].
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_work_json(text: &str) -> Result<WorkCounts, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "expected a JSON object".to_string())?;
    let mut work = WorkCounts::new();
    let mut open = false;
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        if line == "}" && open {
            open = false;
            continue;
        }
        let malformed = || format!("malformed line {line:?}");
        let (key, value) = line.split_once(':').ok_or_else(malformed)?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(malformed)?
            .to_string();
        let value = value.trim();
        if !open && (value == "{" || value == "{}") {
            open = value == "{";
            work.push((key, BTreeMap::new()));
        } else if let (true, Some((_, counters))) = (open, work.last_mut()) {
            counters.insert(key, value.parse().map_err(|_| malformed())?);
        } else {
            return Err(malformed());
        }
    }
    if open {
        return Err("unterminated workload object".to_string());
    }
    Ok(work)
}

/// Every difference between two work counts, one line each: a workload or
/// counter present on one side only, or a count that moved. Empty means
/// the current run did exactly the baseline's work.
#[must_use]
pub fn work_differences(baseline: &WorkCounts, current: &WorkCounts) -> Vec<String> {
    fn find<'a>(set: &'a WorkCounts, name: &str) -> Option<&'a BTreeMap<String, u64>> {
        set.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }
    let mut out = Vec::new();
    for (name, base) in baseline {
        let Some(cur) = find(current, name) else {
            out.push(format!("{name}: missing from the current run"));
            continue;
        };
        for (key, &b) in base {
            match cur.get(key) {
                Some(&c) if c == b => {}
                Some(&c) => out.push(format!("{name} {key}: {b} -> {c}")),
                None => out.push(format!("{name} {key}: {b} -> absent")),
            }
        }
        for (key, &c) in cur {
            if !base.contains_key(key) {
                out.push(format!("{name} {key}: absent -> {c}"));
            }
        }
    }
    for (name, _) in current {
        if find(baseline, name).is_none() {
            out.push(format!("{name}: not in the baseline"));
        }
    }
    out
}

/// Renders a comparison table; the caller decides how to exit.
#[must_use]
pub fn render_comparison(comparisons: &[Comparison], threshold: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22}{:>14}{:>14}{:>9}  gate (threshold +{:.0}%)\n",
        "workload",
        "baseline",
        "current",
        "delta",
        threshold * 100.0
    ));
    for c in comparisons {
        let status = if c.regressed { "REGRESSED" } else { "ok" };
        if c.current_ns.is_nan() {
            out.push_str(&format!(
                "{:<22}{:>12.0}us{:>14}{:>9}  {status}\n",
                c.name,
                c.baseline_ns / 1_000.0,
                "missing",
                "-"
            ));
        } else {
            out.push_str(&format!(
                "{:<22}{:>12.0}us{:>12.0}us{:>+8.1}%  {status}\n",
                c.name,
                c.baseline_ns / 1_000.0,
                c.current_ns / 1_000.0,
                c.ratio * 100.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let results = vec![
            BenchResult {
                name: "a".into(),
                median_ns: 1234.5,
                reps: 3,
            },
            BenchResult {
                name: "b".into(),
                median_ns: 6789.0,
                reps: 3,
            },
        ];
        let parsed = parse_json(&to_json(&results)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "a");
        assert!((parsed[0].1 - 1234.5).abs() < 1e-9);
        assert!((parsed[1].1 - 6789.0).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("not json").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("{\"a\": x}").is_err());
    }

    #[test]
    fn compare_flags_regressions_and_missing() {
        let base = vec![("x".to_string(), 100.0), ("y".to_string(), 100.0)];
        let current = vec![("x".to_string(), 150.0)];
        let cmp = compare(&base, &current, 0.4);
        assert_eq!(cmp.len(), 2);
        assert!(cmp[0].regressed, "50% over a 40% threshold must fail");
        assert!(cmp[1].regressed, "missing workload must fail");
        let ok = compare(&base, &[("x".into(), 120.0), ("y".into(), 90.0)], 0.4);
        assert!(!ok[0].regressed && !ok[1].regressed);
    }

    #[test]
    fn calibration_scales_comparison() {
        // Current machine is 2x slower (calibration 200 vs 100): a raw 180
        // would regress, but scaled (90) it must pass.
        let base = vec![(CALIBRATION.to_string(), 100.0), ("x".to_string(), 100.0)];
        let current = vec![(CALIBRATION.to_string(), 200.0), ("x".to_string(), 180.0)];
        let cmp = compare(&base, &current, 0.4);
        assert_eq!(cmp.len(), 1, "calibration itself is not gated");
        assert!(!cmp[0].regressed, "calibration scaling must apply");
        assert!((cmp[0].current_ns - 90.0).abs() < 1e-9);
    }

    #[test]
    fn median_is_positional() {
        assert_eq!(median(vec![5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(vec![2.0, 1.0]), 2.0);
    }

    #[test]
    fn workload_set_matches_baseline_keys() {
        // The committed baseline must cover exactly the gated workload
        // set: a workload added to the binary without a regenerated
        // baseline would never be gated (compare ignores extra current
        // results), and a key lingering in the baseline after a workload
        // rename would fail every CI run as "missing". Regenerate with:
        // cargo run --release -p fusion-bench --bin perfbench -- run --out BENCH_BASELINE.json
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");
        let text = std::fs::read_to_string(path).expect("BENCH_BASELINE.json at the repo root");
        let baseline: std::collections::BTreeSet<String> = parse_json(&text)
            .expect("committed baseline parses")
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        let workloads: std::collections::BTreeSet<String> =
            WORKLOADS.iter().map(|w| (*w).to_string()).collect();
        assert_eq!(
            workloads, baseline,
            "WORKLOADS and BENCH_BASELINE.json keys diverged; regenerate the baseline"
        );
    }

    #[test]
    fn work_json_round_trips() {
        let counters = |pairs: &[(&str, u64)]| {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect::<BTreeMap<_, _>>()
        };
        let work: WorkCounts = vec![
            ("calibration".into(), BTreeMap::new()),
            (
                "alg2_select".into(),
                counters(&[("alg2.search.pops", 102_900_000), ("alg2.spur_searches", 7)]),
            ),
            ("serve_replay".into(), counters(&[("h/p2_3", u64::MAX)])),
        ];
        let text = work_to_json(&work);
        assert_eq!(parse_work_json(&text).unwrap(), work);
        assert!(parse_work_json("{\n  \"a\": {\n    \"x\": 1\n}").is_err());
        assert!(parse_work_json("{\n  \"x\": 1\n}").is_err());
        assert!(parse_work_json("{\n  \"a\": {\n    \"x\": -1\n  }\n}").is_err());
    }

    #[test]
    fn work_differences_name_every_change() {
        let one = |k: &str, v: u64| BTreeMap::from([(k.to_string(), v)]);
        let baseline: WorkCounts = vec![
            ("a".into(), one("pops", 10)),
            ("b".into(), one("pops", 5)),
            ("c".into(), one("pops", 1)),
        ];
        assert!(work_differences(&baseline, &baseline).is_empty());
        let current: WorkCounts = vec![
            ("a".into(), one("pops", 9)),
            ("b".into(), one("relaxations", 5)),
            ("d".into(), BTreeMap::new()),
        ];
        assert_eq!(
            work_differences(&baseline, &current),
            [
                "a pops: 10 -> 9",
                "b pops: 5 -> absent",
                "b relaxations: absent -> 5",
                "c: missing from the current run",
                "d: not in the baseline",
            ]
        );
    }

    #[test]
    fn work_file_covers_every_workload() {
        // BENCH_WORK.json pins the counters of the whole workload set.
        // Regenerate with `perfbench run --reps 7 --metrics DIR` followed
        // by `perfbench work --metrics DIR --out BENCH_WORK.json`.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_WORK.json");
        let text = std::fs::read_to_string(path).expect("BENCH_WORK.json at the repo root");
        let work = parse_work_json(&text).expect("committed work file parses");
        let names: Vec<&str> = work.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names, WORKLOADS,
            "BENCH_WORK.json must list every workload in order"
        );
        assert_eq!(
            work_to_json(&work),
            text,
            "BENCH_WORK.json is in canonical form"
        );
    }

    #[test]
    fn quick_workloads_produce_positive_times() {
        // Keep this to the two cheapest workloads so the test stays fast.
        for name in ["eq1_flow_rate", "alg1_path_search"] {
            let r = run_workload(name, 1);
            assert!(r.median_ns > 0.0, "{name} measured nothing");
        }
    }

    #[test]
    fn enabled_registry_records_workload_counters() {
        // The cheapest instrumented workload must populate its counters
        // when handed an enabled registry, and the default (disabled)
        // path must register nothing at all.
        let registry = Registry::enabled();
        let _ = run_workload_with("alg1_path_search", 1, &registry);
        let snap = registry.snapshot();
        assert!(
            snap.value("alg1.search.pops") > 0,
            "instrumented workload recorded nothing: {snap:?}"
        );

        let disabled = Registry::disabled();
        let _ = run_workload_with("alg1_path_search", 1, &disabled);
        assert!(disabled.snapshot().iter().next().is_none());
    }

    /// The overhead regression gate from the telemetry design: running the
    /// two deepest-instrumented workloads with an *enabled* registry must
    /// stay within the same threshold the CI bench gate applies to code
    /// changes (`--threshold 0.40` in `ci.yml`), measured against the
    /// disabled-registry run on the same machine in the same process (so
    /// no calibration scaling is needed). Release-grade runtime: minutes.
    #[test]
    #[ignore = "telemetry overhead gate; minutes of runtime, run with -- --ignored in release"]
    fn telemetry_overhead_within_gate() {
        const GATED: [&str; 2] = ["alg2_select", "serve_replay"];
        // Same reps as the CI gate: at 3 reps the short replay median is
        // noisy enough to trip the threshold spuriously.
        const REPS: usize = 7;
        const THRESHOLD: f64 = 0.40;
        let timings = |registry: &Registry| -> Vec<(String, f64)> {
            GATED
                .iter()
                .map(|w| {
                    let r = run_workload_with(w, REPS, registry);
                    (r.name, r.median_ns)
                })
                .collect()
        };
        let disabled = timings(&Registry::disabled());
        let enabled = timings(&Registry::enabled());
        let cmp = compare(&disabled, &enabled, THRESHOLD);
        assert!(
            cmp.iter().all(|c| !c.regressed),
            "enabled telemetry exceeded the bench gate:\n{}",
            render_comparison(&cmp, THRESHOLD)
        );
    }
}
