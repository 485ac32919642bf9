//! What every workload reports: the result line, percentiles, peak RSS,
//! and the per-layer metrics derived from telemetry counters.

use std::collections::BTreeMap;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run, printed as the last stdout line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed is a
/// bug in the benchmark, so it reads as an impossible `-1`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "-1".to_string()
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of `samples`, which it
/// sorts. `0` for no samples.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples`.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `num / den`, or `0` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Raw counters reported under their own names.
const RAW_COUNTERS: [&str; 17] = [
    "serve.cache.full_hits",
    "serve.cache.misses",
    "serve.cache.invalidated_by_node",
    "serve.cache.cert_saves",
    "serve.cache.repairs",
    "alg2.search.pops",
    "alg2.search.relaxations",
    "alg2.search.exhaustions",
    "alg2.spur_searches",
    "alg2.widths_searched",
    "alg2.reach_skips",
    "alg2.spt.hits",
    "alg3.heap_pushes",
    "alg3.stale_pops",
    "alg3.accepts",
    "mc.rounds",
    "mc.fusion_attempts",
];

/// The counter-derived per-layer metrics, from counters summed over a
/// run. `arrivals` is the number of demands the `alg2` counters were
/// spent on. A counter the program no longer registers reads as `0` and
/// is named on stderr as absent: deleting a layer is not a failure.
pub fn counter_metrics(counters: &BTreeMap<String, u64>, arrivals: u64) -> Vec<Metric> {
    let mut absent = Vec::new();
    let mut get = |name: &'static str| -> f64 {
        counters.get(name).map_or_else(
            || {
                absent.push(name);
                0.0
            },
            |&v| v as f64,
        )
    };
    let mut out: Vec<Metric> = RAW_COUNTERS
        .iter()
        .map(|&name| Metric {
            name,
            value: get(name),
            unit: "count",
        })
        .collect();
    let reused = get("serve.cache.widths_reused");
    let recomputed = get("serve.cache.widths_recomputed");
    let pops = get("alg2.search.pops");
    let searches = get("alg2.widths_searched") + get("alg2.spur_searches");
    let exhaustions = get("alg2.search.exhaustions");
    let accepts = get("alg3.accepts");
    let pushes = get("alg3.heap_pushes");
    out.extend([
        Metric {
            name: "serve.cache.width_reuse",
            value: ratio(reused, reused + recomputed),
            unit: "ratio",
        },
        Metric {
            name: "alg2.pops_per_arrival",
            value: ratio(pops, arrivals as f64),
            unit: "count",
        },
        Metric {
            name: "alg2.exhausted_frac",
            value: ratio(exhaustions, searches),
            unit: "ratio",
        },
        Metric {
            name: "alg3.accept_frac",
            value: ratio(accepts, pushes),
            unit: "ratio",
        },
    ]);
    absent.sort_unstable();
    absent.dedup();
    if !absent.is_empty() {
        eprintln!("absent counters (reported as 0): {}", absent.join(", "));
    }
    out
}

/// Adds every counter of `snapshot` into `into`.
pub fn add_counters<'a>(
    into: &mut BTreeMap<String, u64>,
    snapshot: impl Iterator<Item = (&'a str, u64)>,
) {
    for (name, value) in snapshot {
        *into.entry(name.to_string()).or_default() += value;
    }
}

/// FNV-1a over `text` — the same hash the replay log fingerprint uses.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `serve::state` layer, timed from outside: seconds spent inside
/// `admit` and inside `depart`/`fail_link`.
pub fn serve_timings(admit_s: f64, release_s: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "serve.admit_s",
            value: admit_s,
            unit: "s",
        },
        Metric {
            name: "serve.release_s",
            value: release_s,
            unit: "s",
        },
    ]
}

/// The sweep's stage times from its rows: Monte Carlo, routing per
/// algorithm, and the runner's own share (campaign wall minus cell wall).
pub fn sweep_timings(mc_s: f64, route_nf_s: f64, route_qcast_s: f64, runner_s: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "sweep.mc_s",
            value: mc_s,
            unit: "s",
        },
        Metric {
            name: "sweep.route_s.alg_n_fusion",
            value: route_nf_s,
            unit: "s",
        },
        Metric {
            name: "sweep.route_s.qcast_n",
            value: route_qcast_s,
            unit: "s",
        },
        Metric {
            name: "sweep.runner_s",
            value: runner_s,
            unit: "s",
        },
    ]
}
