//! Machine-readable perf harness for the CI bench gate.
//!
//! ```text
//! perfbench run [--out FILE] [--reps N] [--filter SUBSTR] [--metrics DIR]
//!     Runs the fixed workloads (fusion_bench::perf) and writes a flat
//!     JSON map {"workload": median_ns, ...} to FILE (default: stdout).
//!     With --metrics DIR, each workload runs with an enabled telemetry
//!     registry and its deterministic counter snapshot is written to
//!     DIR/<workload>.metrics.json. The timings in the result map then
//!     measure the *instrumented* paths — which is exactly what the CI
//!     bench job wants to gate: it proves enabled-registry overhead
//!     stays under the same threshold as any other code change.
//!
//! perfbench compare --baseline FILE --current FILE
//!                   [--threshold FRAC] [--report FILE]
//!     Compares two result files, normalizing by the `calibration`
//!     workload when both sides carry it. Exits 1 when any workload is
//!     more than FRAC (default 0.40 = +40% wall time) over baseline.
//!
//! perfbench work --metrics DIR [--out FILE | --check FILE]
//!     Collects the counter snapshots a `run --metrics DIR` wrote into one
//!     per-workload work file (to FILE, default stdout). With --check it
//!     compares them with a committed work file instead and exits 1 on
//!     any difference, naming each one. Counts cover the warmup and every
//!     repetition, so compare runs made with the same --reps.
//! ```
//!
//! Regenerate the committed baseline with:
//! `cargo run --release -p fusion-bench --bin perfbench -- run --out BENCH_BASELINE.json`
//!
//! and the committed work counts (`--reps 7`, as CI runs) with:
//! `perfbench run --reps 7 --metrics DIR` then
//! `perfbench work --metrics DIR --out BENCH_WORK.json`.

use std::path::PathBuf;

use fusion_bench::perf;
use fusion_telemetry::Registry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("work") => work(&args[1..]),
        Some("--help" | "-h") | None => {
            println!(
                "usage: perfbench run [--out FILE] [--reps N] [--filter SUBSTR] [--metrics DIR]"
            );
            println!("       perfbench compare --baseline FILE --current FILE [--threshold FRAC] [--report FILE]");
            println!("       perfbench work --metrics DIR [--out FILE | --check FILE]");
            println!("workloads: {}", perf::WORKLOADS.join(" "));
        }
        Some(other) => die(&format!(
            "unknown subcommand {other}; try run, compare or work"
        )),
    }
}

fn run(args: &[String]) {
    let mut out: Option<PathBuf> = None;
    let mut metrics_dir: Option<PathBuf> = None;
    let mut reps = 7usize;
    let mut filter = String::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(next_path(&mut it, "--out")),
            "--metrics" => metrics_dir = Some(next_path(&mut it, "--metrics")),
            "--reps" => {
                reps = next_value(&mut it, "--reps");
                if reps == 0 {
                    die("--reps must be positive");
                }
            }
            "--filter" => {
                filter = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--filter needs a substring"));
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if let Some(dir) = &metrics_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("could not create {}: {e}", dir.display()));
        }
    }
    let mut results = Vec::new();
    for name in perf::WORKLOADS {
        if !filter.is_empty() && !name.contains(&filter) && name != perf::CALIBRATION {
            continue;
        }
        eprintln!("running {name} ({reps} reps)...");
        let registry = if metrics_dir.is_some() {
            Registry::enabled()
        } else {
            Registry::disabled()
        };
        let r = perf::run_workload_with(name, reps, &registry);
        eprintln!("  {name}: {:.0} us median", r.median_ns / 1_000.0);
        if let Some(dir) = &metrics_dir {
            let path = dir.join(format!("{name}.metrics.json"));
            if let Err(e) = std::fs::write(&path, registry.snapshot().to_json()) {
                die(&format!("could not write {}: {e}", path.display()));
            }
        }
        results.push(r);
    }
    let json = perf::to_json(&results);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                die(&format!("could not write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{json}"),
    }
}

fn compare(args: &[String]) {
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut report: Option<PathBuf> = None;
    let mut threshold = 0.40f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(next_path(&mut it, "--baseline")),
            "--current" => current = Some(next_path(&mut it, "--current")),
            "--report" => report = Some(next_path(&mut it, "--report")),
            "--threshold" => {
                threshold = next_value(&mut it, "--threshold");
                if !(0.0..10.0).contains(&threshold) {
                    die("--threshold must be a fraction like 0.40");
                }
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let baseline = baseline.unwrap_or_else(|| die("compare needs --baseline FILE"));
    let current = current.unwrap_or_else(|| die("compare needs --current FILE"));
    let base = read_results(&baseline);
    let cur = read_results(&current);
    let comparisons = perf::compare(&base, &cur, threshold);
    let table = perf::render_comparison(&comparisons, threshold);
    print!("{table}");
    if let Some(path) = report {
        if let Err(e) = std::fs::write(&path, &table) {
            die(&format!("could not write {}: {e}", path.display()));
        }
    }
    if comparisons.iter().any(|c| c.regressed) {
        eprintln!("bench gate FAILED: at least one workload regressed past the threshold");
        std::process::exit(1);
    }
    eprintln!("bench gate passed");
}

fn work(args: &[String]) {
    let mut metrics_dir: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics" => metrics_dir = Some(next_path(&mut it, "--metrics")),
            "--out" => out = Some(next_path(&mut it, "--out")),
            "--check" => check = Some(next_path(&mut it, "--check")),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let dir = metrics_dir.unwrap_or_else(|| die("work needs --metrics DIR"));
    let current = perf::read_work_dir(&dir).unwrap_or_else(|e| die(&e));
    match (out, check) {
        (Some(_), Some(_)) => die("work takes --out or --check, not both"),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("could not read {}: {e}", path.display())));
            let baseline = perf::parse_work_json(&text)
                .unwrap_or_else(|e| die(&format!("could not parse {}: {e}", path.display())));
            let differences = perf::work_differences(&baseline, &current);
            if differences.is_empty() {
                eprintln!("work gate passed: every counter equals {}", path.display());
                return;
            }
            for line in &differences {
                println!("{line}");
            }
            eprintln!(
                "work gate FAILED: {} counter difference(s) against {}; after an intended \
                 change, regenerate it from `perfbench run --reps 7 --metrics DIR`",
                differences.len(),
                path.display()
            );
            std::process::exit(1);
        }
        (Some(path), None) => {
            if let Err(e) = std::fs::write(&path, perf::work_to_json(&current)) {
                die(&format!("could not write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
        (None, None) => print!("{}", perf::work_to_json(&current)),
    }
}

fn read_results(path: &PathBuf) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("could not read {}: {e}", path.display())));
    perf::parse_json(&text)
        .unwrap_or_else(|e| die(&format!("could not parse {}: {e}", path.display())))
}

fn next_path<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> PathBuf {
    it.next()
        .map(PathBuf::from)
        .unwrap_or_else(|| die(&format!("{flag} needs a file path")))
}

fn next_value<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
