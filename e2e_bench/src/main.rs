//! End-to-end benchmark of the GHZ routing stack.
//!
//! ```text
//! e2e-bench --workload NAME --seed N --seconds S --trace 0|1
//! e2e-bench --workload NAME --seed N --reference
//! ```
//!
//! Workloads: `serve_churn`, `serve_hot` (closed-loop online admission on
//! `large-1k`) and `sweep_fig9b` (the Fig. 9b extension campaign). With
//! `--trace 0` the last stdout line carries the end-to-end metrics, with
//! `--trace 1` the per-layer ones. `--reference` prints the reference
//! outputs for a seed in the format of the files under `reference/`.
//! See `README.md` beside this crate for what each metric means.

mod calib;
mod report;
mod serve;
mod sweep;

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 15;

/// Fewest timed repetitions of a workload's unit of work per run.
const MIN_REPS: usize = 2;

/// Whether to measure one more unit of work: yes while that unit, if it
/// takes as long as the last one, ends nearer to `seconds` than stopping
/// now would.
fn more_time(measured: f64, last: f64, seconds: f64) -> bool {
    measured + last / 2.0 < seconds
}

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: serve::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--reference" => args.reference = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["serve_churn", "serve_hot", "sweep_fig9b"].contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; use serve_churn, serve_hot or sweep_fig9b",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("e2e-bench: {e}");
        std::process::exit(2);
    });
    let workload = match args.workload.as_str() {
        "serve_churn" => Some(&serve::CHURN),
        "serve_hot" => Some(&serve::HOT),
        _ => None,
    };
    if args.reference {
        match workload {
            Some(w) => serve::print_reference(w, args.seed),
            None => sweep::print_reference().unwrap_or_else(|e| {
                eprintln!("e2e-bench: {e}");
                std::process::exit(1);
            }),
        }
        return;
    }
    let result = match workload {
        Some(w) => serve::run(w, &args),
        None => sweep::run(&args),
    };
    match result {
        Ok(result) => println!("{}", result.to_json()),
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            std::process::exit(1);
        }
    }
}
