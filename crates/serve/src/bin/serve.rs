//! The online-service CLI: generate a trace and replay it against a
//! preset world.
//!
//! ```text
//! serve replay --preset NAME [--instance I] [--events N] [--seed S]
//!              [--arrival-rate F] [--mean-holding F] [--link-down-rate F]
//!              [--user-pool N] [--stats] [--metrics FILE] [--mc-rounds N]
//!              [--audit-every N] [--log FILE]
//!     Builds the preset's network, generates a seeded trace, replays it,
//!     and prints throughput (events/sec), admission statistics, and the
//!     log fingerprint. Same preset + flags => byte-identical log.
//!     --user-pool restricts demands to the first N users (recurring
//!     demands); --stats prints the double-cut count and the digest of
//!     the telemetry registry; --metrics writes the full
//!     deterministic-plane snapshot (every counter and histogram) as
//!     versioned flat JSON.
//!
//! serve presets
//!     Lists the preset names.
//! ```
//!
//! The EXPERIMENTS.md replay-throughput entries are produced with:
//! `cargo run --release -p fusion-serve --bin serve -- replay --preset large-1k --events 100000 --user-pool 8 --stats`

use std::path::PathBuf;
use std::time::Instant;

use fusion_serve::{
    generate, presets, replay, resolve_preset, ReplayOptions, ServiceState, TraceConfig,
};
use fusion_telemetry::Registry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("replay") => match parse_replay_args(&args[1..]) {
            Ok(parsed) => run_replay(&parsed),
            Err(e) => die(&e),
        },
        Some("presets") => {
            for p in presets() {
                println!(
                    "{}  ({} switches, {} user pairs, h={})",
                    p.name, p.topology.num_switches, p.topology.num_user_pairs, p.h
                );
            }
        }
        Some("--help" | "-h") | None => {
            println!("usage: serve replay --preset NAME [--instance I] [--events N] [--seed S]");
            println!(
                "                    [--arrival-rate F] [--mean-holding F] [--link-down-rate F]"
            );
            println!(
                "                    [--user-pool N] [--stats] [--metrics FILE] [--mc-rounds N]"
            );
            println!("                    [--audit-every N] [--log FILE]");
            println!("       serve presets");
        }
        Some(other) => die(&format!(
            "unknown subcommand {other}; try replay or presets"
        )),
    }
}

/// Everything `serve replay` accepts, parsed and validated.
#[derive(Debug, Clone, PartialEq)]
struct ReplayArgs {
    preset_name: String,
    instance: usize,
    trace_config: TraceConfig,
    options: ReplayOptions,
    log_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    print_stats: bool,
}

impl Default for ReplayArgs {
    fn default() -> Self {
        ReplayArgs {
            preset_name: String::from("quick"),
            instance: 0,
            trace_config: TraceConfig::default(),
            options: ReplayOptions::default(),
            log_path: None,
            metrics_path: None,
            print_stats: false,
        }
    }
}

/// Parses `serve replay` flags. Kept free of `exit` calls so the unit
/// tests below can cover the rejection paths: unknown flags, missing
/// values, and a `--flag` token where a value was expected are all hard
/// errors rather than being silently consumed.
fn parse_replay_args(args: &[String]) -> Result<ReplayArgs, String> {
    let mut parsed = ReplayArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => parsed.preset_name = next_str(&mut it, "--preset")?,
            "--instance" => parsed.instance = next_parsed(&mut it, "--instance")?,
            "--events" => parsed.trace_config.events = next_parsed(&mut it, "--events")?,
            "--seed" => parsed.trace_config.seed = next_parsed(&mut it, "--seed")?,
            "--arrival-rate" => {
                parsed.trace_config.arrival_rate = next_parsed(&mut it, "--arrival-rate")?;
            }
            "--mean-holding" => {
                parsed.trace_config.mean_holding = next_parsed(&mut it, "--mean-holding")?;
            }
            "--link-down-rate" => {
                parsed.trace_config.link_down_rate = next_parsed(&mut it, "--link-down-rate")?;
            }
            "--user-pool" => parsed.trace_config.user_pool = next_parsed(&mut it, "--user-pool")?,
            "--stats" => parsed.print_stats = true,
            "--metrics" => {
                parsed.metrics_path = Some(PathBuf::from(next_str(&mut it, "--metrics")?))
            }
            "--mc-rounds" => parsed.options.mc_rounds = next_parsed(&mut it, "--mc-rounds")?,
            "--audit-every" => parsed.options.audit_every = next_parsed(&mut it, "--audit-every")?,
            "--log" => parsed.log_path = Some(PathBuf::from(next_str(&mut it, "--log")?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    parsed
        .trace_config
        .validate()
        .map_err(|e| format!("invalid trace config: {e}"))?;
    Ok(parsed)
}

fn run_replay(args: &ReplayArgs) {
    let Some(preset) = resolve_preset(&args.preset_name) else {
        die(&format!(
            "unknown preset {}; available: {}",
            args.preset_name,
            presets()
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(" ")
        ));
    };

    eprintln!("building {} instance {}...", preset.name, args.instance);
    let net = preset.network_instance(args.instance);
    eprintln!(
        "  {} nodes, {} edges",
        net.node_count(),
        net.graph().edge_count()
    );
    let routing = preset.routing_config();
    // Telemetry is observational only — logs and digests are identical
    // either way — so the registry is enabled exactly when some output
    // reads it.
    let registry = if args.print_stats || args.metrics_path.is_some() {
        Registry::enabled()
    } else {
        Registry::disabled()
    };
    let mut state = ServiceState::with_telemetry(net, routing, registry);
    let trace = generate(state.network(), &args.trace_config);
    eprintln!(
        "replaying {} events (seed {:#x})...",
        trace.events.len(),
        args.trace_config.seed
    );

    let started = Instant::now();
    let report = replay(&mut state, &trace, &args.options);
    let elapsed = started.elapsed();
    state
        .audit()
        .unwrap_or_else(|e| die(&format!("final audit failed: {e}")));

    let stats = &report.stats;
    let secs = elapsed.as_secs_f64();
    println!("preset           {}", preset.name);
    println!("events           {}", stats.events);
    println!("elapsed          {secs:.3} s");
    println!("events/sec       {:.1}", stats.events as f64 / secs);
    println!(
        "arrivals         {} ({} admitted, {} no-route, {} saturated)",
        stats.arrivals, stats.admitted, stats.rejected_no_route, stats.rejected_saturated
    );
    println!("admit fraction   {:.4}", stats.admit_fraction());
    println!(
        "departures       {} ({} no-ops)",
        stats.departures, stats.depart_noops
    );
    println!(
        "link-downs       {} ({} plans evicted)",
        stats.link_downs, stats.evicted
    );
    println!("final live       {}", stats.final_live);
    println!("final epoch      {}", stats.final_epoch);
    println!("rate sum         {:.6}", stats.admitted_rate_sum);
    println!("log fingerprint  {:016x}", report.fingerprint());

    if args.print_stats {
        let snap = state.registry().snapshot();
        println!(
            "double cuts      {} no-op fail_links",
            snap.value("serve.fail_link_noops")
        );
        println!("metrics digest   {:016x}", snap.digest());
    }

    if let Some(path) = &args.metrics_path {
        let snap = state.registry().snapshot();
        if let Err(e) = std::fs::write(path, snap.to_json()) {
            die(&format!("could not write {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }

    if let Some(path) = &args.log_path {
        let mut text = report.log.join("\n");
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            die(&format!("could not write {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }
}

/// The next token as a flag value. A missing token or one that is itself
/// a `--flag` is an error — `serve replay --log --stats` means a
/// forgotten value, not a file named `--stats`.
fn next_str(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    match it.next() {
        Some(v) if v.starts_with("--") => {
            Err(format!("{flag} needs a value, found flag {v} instead"))
        }
        Some(v) => Ok(v.clone()),
        None => Err(format!("{flag} needs a value")),
    }
}

fn next_parsed<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let raw = next_str(it, flag)?;
    raw.parse()
        .map_err(|_| format!("{flag} could not parse {raw}"))
}

fn die(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_flag_set() {
        let parsed = parse_replay_args(&strs(&[
            "--preset",
            "large-1k",
            "--events",
            "5000",
            "--seed",
            "7",
            "--user-pool",
            "8",
            "--stats",
            "--metrics",
            "out.json",
            "--mc-rounds",
            "16",
        ]))
        .unwrap();
        assert_eq!(parsed.preset_name, "large-1k");
        assert_eq!(parsed.trace_config.events, 5000);
        assert_eq!(parsed.trace_config.seed, 7);
        assert_eq!(parsed.trace_config.user_pool, 8);
        assert!(parsed.print_stats);
        assert_eq!(parsed.metrics_path, Some(PathBuf::from("out.json")));
        assert_eq!(parsed.options.mc_rounds, 16);
    }

    #[test]
    fn defaults_match_an_empty_invocation() {
        assert_eq!(parse_replay_args(&[]).unwrap(), ReplayArgs::default());
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        let err = parse_replay_args(&strs(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        // Bare positional words are equally unknown.
        assert!(parse_replay_args(&strs(&["surprise"])).is_err());
    }

    #[test]
    fn a_flag_is_not_a_value() {
        // `--log --stats` is a forgotten value, not a file named --stats.
        let err = parse_replay_args(&strs(&["--log", "--stats"])).unwrap_err();
        assert!(err.contains("--log needs a value"), "{err}");
        let err = parse_replay_args(&strs(&["--events"])).unwrap_err();
        assert!(err.contains("--events needs a value"), "{err}");
    }

    #[test]
    fn bad_values_are_reported_with_their_flag() {
        let err = parse_replay_args(&strs(&["--events", "many"])).unwrap_err();
        assert!(err.contains("--events could not parse many"), "{err}");
    }

    #[test]
    fn the_removed_strategy_flag_is_unknown() {
        // Admission has one engine; the old `--strategy` knob is gone.
        let err = parse_replay_args(&strs(&["--strategy", "from-scratch"])).unwrap_err();
        assert!(err.contains("unknown flag --strategy"), "{err}");
    }

    /// Degenerate trace knobs are parse-time errors, not replay panics:
    /// a zero arrival rate would never emit an event, a zero holding time
    /// has no well-defined event order, and a pool of one user cannot
    /// form demands. `--user-pool 0` stays valid ("all users").
    #[test]
    fn degenerate_trace_knobs_are_rejected_at_parse_time() {
        let err = parse_replay_args(&strs(&["--arrival-rate", "0"])).unwrap_err();
        assert!(err.contains("invalid trace config"), "{err}");
        assert!(err.contains("arrival rate"), "{err}");
        let err = parse_replay_args(&strs(&["--mean-holding", "0"])).unwrap_err();
        assert!(err.contains("mean holding"), "{err}");
        let err = parse_replay_args(&strs(&["--link-down-rate", "-1"])).unwrap_err();
        assert!(err.contains("link-down rate"), "{err}");
        let err = parse_replay_args(&strs(&["--user-pool", "1"])).unwrap_err();
        assert!(err.contains("user pool"), "{err}");
        assert!(parse_replay_args(&strs(&["--user-pool", "0"])).is_ok());
    }
}
