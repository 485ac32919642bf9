//! The paper-reproduction workload: the Fig. 9b extension campaign
//! (`quick` / `default` / `large-1k-grid` × ALG-N-FUSION, Q-CAST-N × 5
//! seeds, 100 Monte Carlo rounds) through the `sweep` campaign path with
//! one worker.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fusion_bench::figures::scale_row_with;
use fusion_bench::report::Row;
use fusion_runner::{aggregate_campaign, aggregate_rows, run_campaign, summary_json};
use fusion_runner::{CampaignStore, Cell, RunOptions, SweepSpec};
use fusion_telemetry::Registry;

use crate::calib::{at_reference, calibrated_setup, median_sample, Kernel};
use crate::report::{
    add_counters, counter_metrics, peak_rss_mb, percentile, ratio, serve_timings, sweep_timings,
    Metric, RunResult,
};
use crate::{more_time, Args, MIN_REPS, SETUP_REPS};

/// A copy of `specs/fig9b-ext.toml`. Its campaign seed fixes every cell's
/// instance: the total routing time of the grid moves by ~17 % from one
/// campaign seed to the next, so the sweep keeps the spec's own seed and
/// its timings compare like for like. `--seed` does not change it.
const SPEC: &str = include_str!("../fig9b-ext.toml");

/// What `sweep run` + `sweep aggregate` write for the spec.
const PINNED_SUMMARY: &str = include_str!("../reference/sweep_fig9b-9090.summary.json");

/// Where campaigns run, inside the working directory.
const RUN_DIR: &str = ".bench_run";

fn build_spec() -> Result<(SweepSpec, Vec<Cell>), String> {
    let spec = SweepSpec::parse(SPEC)?;
    spec.validate()?;
    let cells = spec.cells();
    Ok((spec, cells))
}

/// Set-up: the spec build plus every cell's world, as the cells will
/// build them.
fn setup() -> Result<(SweepSpec, Vec<Cell>), String> {
    let (spec, cells) = build_spec()?;
    for cell in &cells {
        std::hint::black_box(cell.config.instance(0));
    }
    Ok((spec, cells))
}

/// One campaign's rows and summary, with its wall time.
struct Campaign {
    rows: Vec<Row>,
    summary: String,
    wall_s: f64,
    /// Factor restating this campaign's times at reference speed, from
    /// kernel samples taken just before and after it.
    scale: f64,
    complete: bool,
}

/// Runs the campaign in a fresh directory and aggregates it, timing both
/// calls from outside, then removes the directory.
fn campaign(spec: &SweepSpec, dir: &Path, kernel: &mut Kernel) -> Result<Campaign, String> {
    let _ = std::fs::remove_dir_all(dir);
    let before = median_sample(kernel, 3);
    let start = Instant::now();
    let outcome = run_campaign(spec, dir, &RunOptions::default())?;
    aggregate_campaign(dir)?;
    let wall_s = start.elapsed().as_secs_f64();
    let after = median_sample(kernel, 3);
    let store = CampaignStore::open(dir).map_err(|e| format!("opening {dir:?}: {e}"))?;
    let loaded = store
        .load_rows()
        .map_err(|e| format!("loading rows: {e}"))?;
    let summary = std::fs::read_to_string(store.summary_path())
        .map_err(|e| format!("reading summary: {e}"))?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
    Ok(Campaign {
        complete: outcome.complete
            && loaded.dropped == 0
            && loaded.rows.len() == outcome.total_cells,
        rows: loaded.rows,
        summary,
        wall_s,
        scale: at_reference(1.0, (before + after) / 2.0),
    })
}

/// The cells run one by one through the per-cell function the campaign
/// calls, rows built as the campaign builds them.
struct CellPass {
    rows: Vec<Row>,
    /// Summed wall time of the calls, in seconds.
    wall_s: f64,
    /// Per cell, the factor restating its times at reference speed, from
    /// kernel samples taken just before and just after it.
    scale: Vec<f64>,
}

fn per_cell(cells: &[Cell], traced: bool, kernel: &mut Kernel) -> CellPass {
    let mut wall_s = 0.0;
    let mut scale = Vec::with_capacity(cells.len());
    let mut before = kernel.sample();
    let rows = cells
        .iter()
        .map(|cell| {
            let registry = if traced {
                Registry::enabled()
            } else {
                Registry::disabled()
            };
            let start = Instant::now();
            let measured = scale_row_with(&cell.config, &cell.preset, cell.algorithm, 0, &registry);
            let wall = start.elapsed().as_secs_f64();
            wall_s += wall;
            let after = kernel.sample();
            scale.push(at_reference(1.0, (before + after) / 2.0));
            before = after;
            let mut row = Row::new();
            #[allow(clippy::cast_possible_wrap)]
            row.push_str("cell", cell.key())
                .push_int("seed_index", cell.seed_index as i64);
            for (key, value) in measured.fields() {
                row.push(key, value.clone());
            }
            row.push_num("wall_ms", wall * 1e3)
                .push_bool("over_budget", false);
            row
        })
        .collect();
    CellPass {
        rows,
        wall_s,
        scale,
    }
}

impl CellPass {
    /// Summed wall time of the calls at reference speed, in seconds.
    fn scaled_wall_s(&self) -> f64 {
        self.rows
            .iter()
            .zip(&self.scale)
            .map(|(r, f)| num(r, "wall_ms") * f)
            .sum::<f64>()
            / 1e3
    }
}

/// A cell row's `[wall, route, wall - route]` times in ms, scaled.
fn cell_times(row: &Row, scale: f64) -> [f64; 3] {
    let (wall, route) = (num(row, "wall_ms"), num(row, "route_ms"));
    [wall * scale, route * scale, (wall - route) * scale]
}

/// The sweep's tail latency: the mean of the slowest third of the cells
/// (the ten `large-1k-grid` cells). Thirty cells carry no p99; their
/// maximum is one cell and moves by ±25 % between runs on a shared host.
fn slowest_third_mean(route_ms: &mut [f64]) -> f64 {
    route_ms.sort_by(f64::total_cmp);
    let tail = &route_ms[route_ms.len() - route_ms.len().div_ceil(3)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

fn num(row: &Row, key: &str) -> f64 {
    row.num_field(key).unwrap_or(0.0)
}

/// Summed `m_<counter>` columns of `rows`, keyed by counter name.
fn row_counters(rows: &[Row]) -> BTreeMap<String, u64> {
    let mut counters = BTreeMap::new();
    for row in rows {
        #[allow(clippy::cast_sign_loss)]
        add_counters(
            &mut counters,
            row.fields().iter().filter_map(|(key, _)| {
                let name = key.strip_prefix("m_")?;
                Some((name, row.int_field(key)? as u64))
            }),
        );
    }
    counters
}

fn run_dir() -> PathBuf {
    Path::new(RUN_DIR).join(format!("sweep-{}", std::process::id()))
}

pub fn print_reference() -> Result<(), String> {
    let (_, cells) = build_spec()?;
    let pass = per_cell(&cells, true, &mut Kernel::new());
    print!("{}", summary_json(&aggregate_rows(&pass.rows)));
    Ok(())
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut kernel = Kernel::new();
    let (setup_s, (spec, cells)) = calibrated_setup(&mut kernel, SETUP_REPS, setup)?;
    let dir = run_dir();
    let result = if args.trace {
        traced(&spec, &cells, &dir, &mut kernel)
    } else {
        timed(&spec, &cells, args, &dir, setup_s, &mut kernel)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(RUN_DIR);
    kernel.report();
    result
}

/// Whether a campaign completed with the pinned summary.
fn matches(c: &Campaign) -> bool {
    let ok = c.complete && c.summary == PINNED_SUMMARY;
    if !ok {
        eprintln!("campaign summary differs from the reference");
    }
    ok
}

/// The end-to-end run: the campaign once, then the per-cell function
/// over every cell at least once more, while `seconds` allow. Each cell
/// is deterministic, so its fastest time at reference speed is kept. The
/// campaign's own overhead (store and aggregation) is added back once.
fn timed(
    spec: &SweepSpec,
    cells: &[Cell],
    args: &Args,
    dir: &Path,
    setup_s: f64,
    kernel: &mut Kernel,
) -> Result<RunResult, String> {
    let c = campaign(spec, dir, kernel)?;
    let by_key: BTreeMap<&str, &Row> = c
        .rows
        .iter()
        .filter_map(|r| Some((r.str_field("cell")?, r)))
        .collect();
    // Per cell: the fastest scaled (wall, route, wall - route) in ms.
    let mut best: Vec<[f64; 3]> = cells
        .iter()
        .map(|cell| {
            by_key
                .get(cell.key().as_str())
                .map_or([f64::INFINITY; 3], |r| cell_times(r, c.scale))
        })
        .collect();
    let cell_wall_s = c.rows.iter().map(|r| num(r, "wall_ms")).sum::<f64>() / 1e3;
    let runner_s = (c.wall_s - cell_wall_s) * c.scale;
    let mut passes = Vec::new();
    let mut measured = c.wall_s;
    let mut last = c.wall_s;
    while passes.len() + 1 < MIN_REPS || more_time(measured, last, args.seconds) {
        let pass = per_cell(cells, true, kernel);
        for ((b, r), f) in best.iter_mut().zip(&pass.rows).zip(&pass.scale) {
            for (x, y) in b.iter_mut().zip(cell_times(r, *f)) {
                *x = x.min(y);
            }
        }
        last = pass.wall_s;
        measured += pass.wall_s;
        passes.push(summary_json(&aggregate_rows(&pass.rows)));
    }
    let n = cells.len() as u64;
    let mut failed = if matches(&c) { 0 } else { n };
    for summary in &passes {
        if summary != PINNED_SUMMARY {
            eprintln!("per-cell summary differs from the reference");
            failed += n;
        }
    }
    let attempted = n * (passes.len() as u64 + 1);
    let column = |k: usize| -> Vec<f64> { best.iter().map(|b| b[k]).collect() };
    let (mut route_ms, mut tail_ms) = (column(1), column(2));
    let service_s = column(0).iter().sum::<f64>() / 1e3 + runner_s;
    let rate: f64 = c.rows.iter().map(|r| num(r, "rate")).sum();
    let demands: f64 = c.rows.iter().map(|r| num(r, "demands")).sum();
    eprintln!(
        "campaign + {} per-cell passes, {measured:.3} s measured (campaign {:.3} s as measured); \
         fastest cells sum to {service_s:.3} s at reference speed",
        passes.len(),
        c.wall_s
    );
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "events_per_s",
            value: ratio(n as f64, service_s),
            unit: "1/s",
        },
        Metric {
            name: "admit_p50_ms",
            value: percentile(&mut route_ms, 0.50),
            unit: "ms",
        },
        Metric {
            name: "admit_p99_ms",
            value: slowest_third_mean(&mut route_ms),
            unit: "ms",
        },
        Metric {
            name: "release_p90_ms",
            value: percentile(&mut tail_ms, 0.90),
            unit: "ms",
        },
        Metric {
            name: "admitted_frac",
            value: ratio(rate, demands),
            unit: "ratio",
        },
        Metric {
            name: "ent_rate",
            value: rate,
            unit: "ebit/slot",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()?,
            unit: "MiB",
        },
    ];
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The per-layer run: the campaign (its rows carry stage times and
/// counters), then every cell once untraced and once traced through the
/// per-cell function. The traced cells must count exactly as the
/// campaign's did.
fn traced(
    spec: &SweepSpec,
    cells: &[Cell],
    dir: &Path,
    kernel: &mut Kernel,
) -> Result<RunResult, String> {
    let c = campaign(spec, dir, kernel)?;
    let untraced = per_cell(cells, false, kernel);
    let traced = per_cell(cells, true, kernel);
    let n = cells.len() as u64;
    let mut failed = if matches(&c) { 0 } else { n };
    if summary_json(&aggregate_rows(&traced.rows)) != PINNED_SUMMARY {
        eprintln!("per-cell summary differs from the reference");
        failed += n;
    }
    let counters = row_counters(&c.rows);
    let repeatable = counters == row_counters(&traced.rows);
    if !repeatable {
        eprintln!("the traced per-cell pass counted differently from the campaign");
    }
    let by_algorithm = |name: &str| -> f64 {
        c.rows
            .iter()
            .filter(|r| r.str_field("algorithm") == Some(name))
            .map(|r| num(r, "route_ms"))
            .sum::<f64>()
            / 1e3
    };
    let cell_wall_s: f64 = c.rows.iter().map(|r| num(r, "wall_ms")).sum::<f64>() / 1e3;
    let mc_s: f64 = c.rows.iter().map(|r| num(r, "mc_ms")).sum::<f64>() / 1e3;
    // Demands routed by the instrumented algorithm (Q-CAST-N records no
    // `alg2` counters).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let arrivals = c
        .rows
        .iter()
        .filter(|r| r.str_field("algorithm") == Some("ALG-N-FUSION"))
        .map(|r| num(r, "demands"))
        .sum::<f64>() as u64;
    eprintln!(
        "campaign {:.3} s (cells {cell_wall_s:.3} s), per-cell untraced {:.3} s, traced {:.3} s, as measured",
        c.wall_s, untraced.wall_s, traced.wall_s
    );
    let mut metrics = serve_timings(0.0, 0.0);
    metrics.extend(counter_metrics(&counters, arrivals));
    metrics.extend(sweep_timings(
        mc_s,
        by_algorithm("ALG-N-FUSION"),
        by_algorithm("Q-CAST-N"),
        c.wall_s - cell_wall_s,
    ));
    metrics.push(Metric {
        name: "telemetry.overhead_frac",
        value: traced.scaled_wall_s() / untraced.scaled_wall_s() - 1.0,
        unit: "ratio",
    });
    Ok(RunResult {
        correct: failed == 0 && repeatable,
        attempted: 2 * n,
        failed,
        metrics,
    })
}
