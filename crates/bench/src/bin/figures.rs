//! Regenerates the paper's evaluation figures as text tables and CSV
//! files.
//!
//! ```text
//! figures [IDS...] [--quick] [--preset NAME] [--analytic] [--seeds N]
//!         [--rounds N] [--threads N] [--out DIR]
//!
//!   IDS          figure ids (default: all) — fig7 fig8a fig8b fig9a fig9b
//!                fig9c fig9d ablation-eq1 ablation-h ablation-merge
//!                ablation-classic ablation-failures scale
//!   --quick      scaled-down config (30 switches, 6 states, 2 networks)
//!   --preset N   large-topology preset (large-1k, large-5k-grid, ...);
//!                see --calibrate for the full table
//!   --analytic   report analytic rates instead of Monte Carlo estimates
//!   --seeds N    networks per data point (default 5, paper's setting)
//!   --rounds N   Monte Carlo rounds per demand (default 1500)
//!   --threads N  worker threads (0 = all cores; default 1, presets 0)
//!   --out DIR    also write <DIR>/<id>.csv (default: results)
//!   --calibrate  print network calibration stats + large presets and exit
//! ```
//!
//! The `scale` figure additionally writes `<DIR>/scale.jsonl`: one JSON
//! row per network instance in the schema the `fusion-runner` sweep
//! aggregator consumes (`sweep aggregate` parses both).
//!
//! Large presets are guarded: sweep settings sized for the 100-switch
//! paper workload would run for hours at 10k switches, so `--seeds` /
//! `--rounds` beyond the preset's budget abort with a clear error instead
//! of silently grinding.

use std::path::PathBuf;

use fusion_bench::figures::{fig_scale_from_rows, run, scale_rows, ALL_FIGURES};
use fusion_bench::workloads::{instance_stats, scale_presets, ExperimentConfig};

/// Hard ceilings for configs at or beyond this many switches; chosen so a
/// full figure sweep stays in minutes on a laptop.
const LARGE_SWITCH_FLOOR: usize = 1_000;
const LARGE_MAX_SEEDS: usize = 2;
const LARGE_MAX_ROUNDS: usize = 1_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut calibrate = false;
    let mut quick = false;
    let mut preset: Option<String> = None;
    let mut analytic = false;
    let mut seeds: Option<usize> = None;
    let mut rounds: Option<usize> = None;
    let mut threads: Option<usize> = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--preset" => {
                preset = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--preset needs a name; see --calibrate")),
                );
            }
            "--analytic" => analytic = true,
            "--seeds" => {
                seeds = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--seeds needs a positive integer")),
                );
            }
            "--rounds" => {
                rounds = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--rounds needs an integer")),
                );
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--threads needs an integer (0 = all cores)")),
                );
            }
            "--out" => {
                out_dir = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a directory"));
            }
            "--calibrate" => calibrate = true,
            "--help" | "-h" => {
                println!("usage: figures [IDS...] [--quick] [--preset NAME] [--analytic] [--seeds N] [--rounds N] [--threads N] [--out DIR] [--calibrate]");
                println!("figure ids: {}", ALL_FIGURES.join(" "));
                println!("presets: {}", preset_list());
                return;
            }
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
    }

    // Resolve the base config first, then apply explicit overrides, so
    // flag order never matters (`--seeds 10 --quick` == `--quick --seeds 10`).
    if analytic && rounds.is_some_and(|n| n > 0) {
        die("--analytic conflicts with --rounds: analytic mode runs no Monte Carlo rounds");
    }
    if quick && preset.is_some() {
        die("--quick conflicts with --preset: pick one base configuration");
    }
    let mut config = match &preset {
        Some(name) => scale_presets()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .unwrap_or_else(|| die(&format!("unknown preset {name}; known: {}", preset_list()))),
        None if quick => ExperimentConfig::quick(),
        None => ExperimentConfig::default(),
    };
    if let Some(n) = seeds {
        config.networks = n;
    }
    if let Some(n) = rounds {
        config.mc_rounds = n;
    }
    if let Some(n) = threads {
        config.threads = n;
    }
    if analytic {
        config.mc_rounds = 0;
    }
    validate_scale_budget(&config, preset.as_deref());

    if calibrate {
        println!("large-topology presets (select with --preset NAME):");
        for (name, c) in scale_presets() {
            println!(
                "  {name:<14} {:>6} switches  {:>3} states  kind={:?}  seeds={} rounds={} threads={}",
                c.topology.num_switches,
                c.topology.num_user_pairs,
                c.topology.kind,
                c.networks,
                c.mc_rounds,
                c.resolved_threads(),
            );
        }
        println!();
        for i in 0..config.networks {
            let (net, demands) = config.instance(i);
            let stats = instance_stats(&net);
            println!(
                "instance {i}: nodes={} edges={} avg_degree={:.2} mean_p={:.3} demands={}",
                stats.nodes,
                stats.edges,
                stats.avg_degree,
                stats.mean_link_success,
                demands.len()
            );
        }
        return;
    }

    if ids.is_empty() {
        if config.topology.num_switches >= LARGE_SWITCH_FLOOR {
            // Running every paper sweep at 1k+ switches would grind for
            // hours — the very thing the budget guard exists to prevent.
            // Default large runs to the scale probe; ask for specific
            // figure ids to sweep more.
            eprintln!(
                "note: large topology and no figure ids given — running `scale` only \
                 (name figure ids explicitly to run paper sweeps at this scale)"
            );
            ids.push("scale".to_string());
        } else {
            ids = ALL_FIGURES.iter().map(|s| (*s).to_string()).collect();
        }
    }

    let _ = std::fs::create_dir_all(&out_dir);
    for id in &ids {
        // The scale probe also emits its per-run JSON rows (the schema the
        // fusion-runner aggregator consumes) so one set of tooling parses
        // single-shot probes and sweep campaigns alike.
        let table = if id == "scale" {
            let label = preset
                .as_deref()
                .unwrap_or(if quick { "quick" } else { "default" });
            let rows = scale_rows(&config, label);
            let jsonl: String = rows.iter().map(|r| r.to_json() + "\n").collect();
            let rows_path = out_dir.join("scale.jsonl");
            if let Err(e) = std::fs::write(&rows_path, jsonl) {
                eprintln!("warning: could not write {}: {e}", rows_path.display());
            }
            fig_scale_from_rows(&config, &rows)
        } else {
            let Some(table) = run(id, &config) else {
                die(&format!(
                    "unknown figure id {id}; known: {}",
                    ALL_FIGURES.join(" ")
                ));
            };
            table
        };
        println!("{}", table.render());
        let csv_path = out_dir.join(format!("{id}.csv"));
        if let Err(e) = std::fs::write(&csv_path, table.to_csv()) {
            eprintln!("warning: could not write {}: {e}", csv_path.display());
        }
    }
}

/// Refuses sweep settings that would silently run for hours on a
/// 1k+-switch topology; the error spells out the accepted budget.
fn validate_scale_budget(config: &ExperimentConfig, preset: Option<&str>) {
    if config.topology.num_switches < LARGE_SWITCH_FLOOR {
        return;
    }
    let origin = preset.map_or_else(
        || format!("{}-switch topology", config.topology.num_switches),
        |p| format!("preset {p}"),
    );
    if config.networks > LARGE_MAX_SEEDS {
        die(&format!(
            "--seeds {} exceeds the large-topology budget of {LARGE_MAX_SEEDS} for {origin}; \
             each network at this scale takes minutes to route — lower --seeds, or run a \
             smaller topology for multi-seed sweeps",
            config.networks
        ));
    }
    if config.mc_rounds > LARGE_MAX_ROUNDS {
        die(&format!(
            "--rounds {} exceeds the large-topology budget of {LARGE_MAX_ROUNDS} for {origin}; \
             lower --rounds or pass --analytic (Eq. 1 rates, no Monte Carlo)",
            config.mc_rounds
        ));
    }
}

/// The `--preset` names, space-separated.
fn preset_list() -> String {
    let names: Vec<&str> = scale_presets().iter().map(|(n, _)| *n).collect();
    names.join(" ")
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
