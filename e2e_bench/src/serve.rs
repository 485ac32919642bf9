//! The online-admission workloads: closed-loop replays of seeded traces
//! against one `ServiceState` on the `large-1k` preset.
//!
//! One caller drives the state: every event waits for the previous one,
//! so each admission routes against the residual the previous event left.
//! Virtual trace timestamps are not paced. Each `admit`, `depart` and
//! `fail_link` call is timed from outside.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fusion_serve::{
    generate, replay, resolve_preset, AdmitOutcome, PlanId, RejectReason, ReplayOptions,
    ServiceState, Trace, TraceConfig, TraceEventKind,
};
use fusion_telemetry::Registry;

use crate::calib::{at_reference, calibrated_setup, Kernel};
use crate::report::{
    add_counters, counter_metrics, fnv1a, median, peak_rss_mb, percentile, ratio, serve_timings,
    sweep_timings, Metric, RunResult,
};
use crate::{more_time, Args, MIN_REPS, SETUP_REPS};

/// How often a pass samples the calibration kernel.
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);

/// One serve workload: the trace shape and how many traces make one unit
/// of measured work.
pub struct ServeWorkload {
    pub name: &'static str,
    pub user_pool: usize,
    pub mean_holding: f64,
    pub link_down_rate: f64,
    pub events: usize,
    pub traces: usize,
}

/// Every arrival is a fresh pair: the candidate cache is bypassed and the
/// time goes to Algorithm 2 search plus per-admission setup.
pub const CHURN: ServeWorkload = ServeWorkload {
    name: "serve_churn",
    user_pool: 0,
    mean_holding: 25.0,
    link_down_rate: 0.05,
    events: 2_200,
    traces: 1,
};

/// Eight hot users saturate the network: nearly every width is answered
/// from the candidate cache, and `depart`/`fail_link` invalidation does
/// most of the work.
pub const HOT: ServeWorkload = ServeWorkload {
    name: "serve_hot",
    user_pool: 8,
    mean_holding: 2_000.0,
    link_down_rate: 0.05,
    events: 20_000,
    traces: 8,
};

/// The trace seed whose outputs are pinned in `reference/serve.txt`.
pub const DEFAULT_SEED: u64 = 0xCAFE;

const PRESET: &str = "large-1k";

/// Pinned `(workload, seed, trace) -> (log fingerprint, digest hash)`.
const PINS: &str = include_str!("../reference/serve.txt");

/// The generator seed of trace `j` of a unit: trace 0 uses the workload
/// seed itself, so `serve replay --seed S` reproduces it.
fn trace_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        return seed;
    }
    let mut x = seed ^ (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The generated inputs: the world and the traces of one unit.
struct World {
    state: ServiceState,
    traces: Vec<Trace>,
}

fn build_world(w: &ServeWorkload, seed: u64) -> World {
    let preset = resolve_preset(PRESET).expect("large-1k is a serve preset");
    let net = preset.network_instance(0);
    let traces = (0..w.traces)
        .map(|j| {
            generate(
                &net,
                &TraceConfig {
                    events: w.events,
                    arrival_rate: 1.0,
                    mean_holding: w.mean_holding,
                    link_down_rate: w.link_down_rate,
                    user_pool: w.user_pool,
                    seed: trace_seed(seed, j),
                },
            )
        })
        .collect();
    World {
        state: ServiceState::new(net, preset.routing_config()),
        traces,
    }
}

impl World {
    // `clone` rather than a copy, so the benchmark still builds if the
    // routing config stops being `Copy`.
    #[allow(clippy::clone_on_copy)]
    fn fresh_state(&self, registry: Registry) -> ServiceState {
        ServiceState::with_telemetry(
            self.state.network().clone(),
            self.state.config().clone(),
            registry,
        )
    }
}

/// What one event did, as the replay log records it.
enum Outcome {
    Admit(AdmitOutcome),
    Depart(Option<PlanId>),
    LinkDown(Vec<PlanId>),
}

/// The latency class of an event's call into the state.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Call {
    /// A departure whose arrival holds no plan: nothing is called.
    Nothing,
    Admit,
    /// A `depart`, or a `fail_link` that evicted a plan: a release that
    /// returns capacity.
    Release,
    /// A `fail_link` that crossed no live plan.
    IdleCut,
}

impl Outcome {
    fn call(&self) -> Call {
        match self {
            Outcome::Admit(_) => Call::Admit,
            Outcome::Depart(None) => Call::Nothing,
            Outcome::LinkDown(victims) if victims.is_empty() => Call::IdleCut,
            Outcome::Depart(Some(_)) | Outcome::LinkDown(_) => Call::Release,
        }
    }
}

/// One closed-loop pass over a trace.
struct Pass {
    outcomes: Vec<Outcome>,
    /// Wall time of each event's call into the state, in ms.
    call_ms: Vec<f64>,
    wall: Duration,
    /// Calibration kernel samples taken during the pass, in seconds.
    calib_s: Vec<f64>,
    /// `false` when the pass panicked or its outputs differ from the
    /// reference.
    ok: bool,
}

impl Pass {
    fn failed() -> Self {
        Pass {
            outcomes: Vec::new(),
            call_ms: Vec::new(),
            wall: Duration::ZERO,
            calib_s: Vec::new(),
            ok: false,
        }
    }

    /// Summed call time of one class, in seconds.
    fn class_s(&self, class: Call) -> f64 {
        self.outcomes
            .iter()
            .zip(&self.call_ms)
            .filter(|(o, _)| o.call() == class)
            .map(|(_, t)| t)
            .sum::<f64>()
            / 1e3
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Drives `state` through `trace`, one event at a time.
fn drive(state: &mut ServiceState, trace: &Trace, kernel: &mut Kernel) -> Pass {
    let n = trace.events.len();
    let mut outcomes = Vec::with_capacity(n);
    let mut call_ms = Vec::with_capacity(n);
    // arrival index -> live plan, and plan -> arrival index.
    let mut plan_of: Vec<Option<PlanId>> = vec![None; n];
    let mut arrival_of: BTreeMap<PlanId, usize> = BTreeMap::new();
    let mut calib_s = vec![kernel.sample()];
    let mut sampled = Instant::now();
    let start = Instant::now();
    for event in &trace.events {
        if sampled.elapsed() >= CALIBRATE_EVERY {
            calib_s.push(kernel.sample());
            sampled = Instant::now();
        }
        let t = Instant::now();
        let outcome = match event.kind {
            TraceEventKind::Arrival {
                arrival,
                source,
                dest,
            } => {
                let out = state.admit(source, dest);
                call_ms.push(ms(t.elapsed()));
                if let Some(id) = out.id() {
                    plan_of[arrival] = Some(id);
                    arrival_of.insert(id, arrival);
                }
                Outcome::Admit(out)
            }
            TraceEventKind::Departure { arrival } => {
                let id = plan_of[arrival].take();
                match id {
                    Some(id) => {
                        let gone = state.depart(id);
                        call_ms.push(ms(t.elapsed()));
                        assert!(gone.is_some(), "departing plan {id} was not live");
                        arrival_of.remove(&id);
                    }
                    None => call_ms.push(0.0),
                }
                Outcome::Depart(id)
            }
            TraceEventKind::LinkDown { edge } => {
                let victims = state.fail_link(edge);
                call_ms.push(ms(t.elapsed()));
                for id in &victims {
                    if let Some(arrival) = arrival_of.remove(id) {
                        plan_of[arrival] = None;
                    }
                }
                Outcome::LinkDown(victims)
            }
        };
        outcomes.push(outcome);
    }
    let wall = start.elapsed();
    calib_s.push(kernel.sample());
    Pass {
        outcomes,
        call_ms,
        wall,
        calib_s,
        ok: true,
    }
}

/// The replay log lines of a pass, byte-for-byte as `fusion_serve::replay`
/// writes them (with Monte Carlo off).
fn log_lines(trace: &Trace, outcomes: &[Outcome]) -> Vec<String> {
    trace
        .events
        .iter()
        .zip(outcomes)
        .enumerate()
        .map(|(i, (event, outcome))| match (event.kind, outcome) {
            (TraceEventKind::Arrival { source, dest, .. }, Outcome::Admit(out)) => match out {
                AdmitOutcome::Accepted { id, rate } => format!(
                    "{i} arrive {source}->{dest} accept {id} rate={:016x}",
                    rate.to_bits()
                ),
                AdmitOutcome::Rejected(reason) => {
                    let tag = match reason {
                        RejectReason::NoRoute => "no-route",
                        RejectReason::Saturated => "saturated",
                    };
                    format!("{i} arrive {source}->{dest} reject {tag}")
                }
            },
            (TraceEventKind::Departure { arrival }, Outcome::Depart(id)) => match id {
                Some(id) => format!("{i} depart arrival={arrival} {id}"),
                None => format!("{i} depart arrival={arrival} noop"),
            },
            (TraceEventKind::LinkDown { edge }, Outcome::LinkDown(victims)) => {
                let ids: Vec<String> = victims.iter().map(PlanId::to_string).collect();
                format!("{i} linkdown e{} evict [{}]", edge.index(), ids.join(","))
            }
            _ => unreachable!("outcomes are recorded per event kind"),
        })
        .collect()
}

/// The replay fingerprint: FNV-1a over the log lines, newline-terminated.
fn fingerprint(lines: &[String]) -> u64 {
    let mut text = lines.join("\n");
    text.push('\n');
    fnv1a(&text)
}

/// A stable hash of the final `StateDigest`: epoch, plan counter,
/// residual qubits and every live plan's footprint.
fn digest_hash(state: &ServiceState) -> u64 {
    let digest = state.digest();
    let mut text = format!(
        "epoch {} next {} channels {}\nresidual",
        digest.epoch,
        digest.next_plan,
        digest.ledger.total_channels_used()
    );
    for q in digest.ledger.residual() {
        text.push_str(&format!(" {q}"));
    }
    for (id, usage) in &digest.live {
        text.push_str(&format!("\n{id}"));
        for (node, qubits) in &usage.node_qubits {
            text.push_str(&format!(" {node}:{qubits}"));
        }
        for ((a, b), channels) in &usage.edge_channels {
            text.push_str(&format!(" {a}-{b}:{channels}"));
        }
    }
    fnv1a(&text)
}

/// The expected `(log fingerprint, digest hash)` of one trace.
type Expected = (u64, u64);

fn pinned(w: &ServeWorkload, seed: u64, j: usize) -> Option<Expected> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [name, s, t, log, digest] = f[..] else {
                return None;
            };
            (name == w.name && s.parse() == Ok(seed) && t.parse() == Ok(j)).then(|| {
                (
                    u64::from_str_radix(log, 16).expect("pinned fingerprint is hex"),
                    u64::from_str_radix(digest, 16).expect("pinned digest is hex"),
                )
            })
        })
}

/// The outputs of `fusion_serve::replay` on trace `j` from a fresh state.
fn replayed(world: &World, j: usize) -> Expected {
    let mut state = world.fresh_state(Registry::disabled());
    let report = replay(&mut state, &world.traces[j], &ReplayOptions::default());
    (report.fingerprint(), digest_hash(&state))
}

/// The reference outputs of every trace: pinned for the default seed,
/// otherwise computed (untimed) with `fusion_serve::replay`.
fn expected(w: &ServeWorkload, seed: u64, world: &World) -> Vec<Expected> {
    (0..w.traces)
        .map(|j| pinned(w, seed, j).unwrap_or_else(|| replayed(world, j)))
        .collect()
}

/// One checked pass: drives a fresh state through trace `j` and compares
/// its log, final digest and ledger audit with the reference. A panic
/// marks the pass failed.
fn checked_pass(
    world: &World,
    j: usize,
    registry: Registry,
    expect: Expected,
    kernel: &mut Kernel,
) -> (Pass, ServiceState) {
    let mut state = world.fresh_state(registry);
    let trace = &world.traces[j];
    let pass = catch_unwind(AssertUnwindSafe(|| {
        let mut pass = drive(&mut state, trace, kernel);
        let lines = log_lines(trace, &pass.outcomes);
        pass.ok = (fingerprint(&lines), digest_hash(&state)) == expect && state.audit().is_ok();
        pass
    }))
    .unwrap_or_else(|_| Pass::failed());
    if !pass.ok {
        eprintln!("trace {j}: outputs differ from the reference");
    }
    (pass, state)
}

/// One pass over every trace of the unit.
fn unit(
    world: &World,
    expect: &[Expected],
    traced: bool,
    kernel: &mut Kernel,
) -> (Vec<Pass>, BTreeMap<String, u64>) {
    let mut counters = BTreeMap::new();
    let passes = expect
        .iter()
        .enumerate()
        .map(|(j, &e)| {
            let registry = if traced {
                Registry::enabled()
            } else {
                Registry::disabled()
            };
            let (pass, state) = checked_pass(world, j, registry, e, kernel);
            add_counters(&mut counters, state.registry().snapshot().iter());
            pass
        })
        .collect();
    (passes, counters)
}

fn wall_s(unit: &[Pass]) -> f64 {
    unit.iter().map(|p| p.wall.as_secs_f64()).sum()
}

/// [`wall_s`] at reference speed.
fn scaled_wall_s(unit: &[Pass]) -> f64 {
    unit.iter()
        .map(|p| at_reference(p.wall.as_secs_f64(), median(&mut p.calib_s.clone())))
        .sum()
}

/// Events attempted and failed over all units (a failed pass fails every
/// event of its trace).
fn tally(world: &World, units: &[Vec<Pass>]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for passes in units {
        for (trace, pass) in world.traces.iter().zip(passes) {
            let n = trace.events.len() as u64;
            attempted += n;
            if !pass.ok {
                failed += n;
            }
        }
    }
    (attempted, failed)
}

/// Deterministic totals of one unit.
#[derive(Default)]
struct Totals {
    arrivals: u64,
    admitted: u64,
    rate_sum: f64,
}

fn totals(unit: &[Pass]) -> Totals {
    let mut t = Totals::default();
    for outcome in unit.iter().flat_map(|p| &p.outcomes) {
        if let Outcome::Admit(out) = outcome {
            t.arrivals += 1;
            if let AdmitOutcome::Accepted { rate, .. } = out {
                t.admitted += 1;
                t.rate_sum += rate;
            }
        }
    }
    t
}

pub fn print_reference(w: &ServeWorkload, seed: u64) {
    let world = build_world(w, seed);
    for j in 0..w.traces {
        let (log, digest) = replayed(&world, j);
        println!("{} {seed} {j} {log:016x} {digest:016x}", w.name);
    }
}

pub fn run(w: &ServeWorkload, args: &Args) -> Result<RunResult, String> {
    let mut kernel = Kernel::new();
    let (setup_s, world) =
        calibrated_setup(&mut kernel, SETUP_REPS, || Ok(build_world(w, args.seed)))?;
    let expect = expected(w, args.seed, &world);
    let result = if args.trace {
        traced(&world, &expect, &mut kernel)
    } else {
        timed(&world, &expect, args.seconds, setup_s, &mut kernel)
    };
    kernel.report();
    result
}

/// The fastest time of every event's call over all units, in ms, at
/// reference speed (`calibrated`) or as measured. Traces whose passes
/// failed are left out.
fn fastest(units: &[Vec<Pass>], calibrated: bool) -> Vec<(Call, f64)> {
    let mut best = Vec::new();
    for (j, pass) in units[0].iter().enumerate() {
        if !units.iter().all(|u| u[j].ok) {
            continue;
        }
        let scale: Vec<f64> = units
            .iter()
            .map(|u| {
                if calibrated {
                    at_reference(1.0, median(&mut u[j].calib_s.clone()))
                } else {
                    1.0
                }
            })
            .collect();
        for (e, outcome) in pass.outcomes.iter().enumerate() {
            let t = units
                .iter()
                .zip(&scale)
                .map(|(u, f)| u[j].call_ms[e] * f)
                .fold(f64::INFINITY, f64::min);
            best.push((outcome.call(), t));
        }
    }
    best
}

/// The end-to-end run, telemetry off: at least `MIN_REPS` units, more
/// while `seconds` allow. Every event is deterministic, so each call is
/// timed once per unit and its fastest time at reference speed is kept.
fn timed(
    world: &World,
    expect: &[Expected],
    seconds: f64,
    setup_s: f64,
    kernel: &mut Kernel,
) -> Result<RunResult, String> {
    let mut units: Vec<Vec<Pass>> = Vec::new();
    let mut measured = 0.0;
    let mut last = 0.0;
    while units.len() < MIN_REPS || more_time(measured, last, seconds) {
        let passes = unit(world, expect, false, kernel).0;
        last = wall_s(&passes);
        measured += last;
        units.push(passes);
    }
    let (attempted, failed) = tally(world, &units);
    let t = totals(&units[0]);
    let class = |best: &[(Call, f64)], c: Call| -> Vec<f64> {
        best.iter()
            .filter(|(k, _)| *k == c)
            .map(|(_, t)| *t)
            .collect()
    };
    let best = fastest(&units, true);
    let raw = fastest(&units, false);
    let events = best.len();
    let service_s = best.iter().map(|(_, t)| t).sum::<f64>() / 1e3;
    let (mut admit, mut release) = (class(&best, Call::Admit), class(&best, Call::Release));
    let mut raw_admit = class(&raw, Call::Admit);
    eprintln!(
        "as measured: {:.3} events/s, admit p50 {:.4} ms, p99 {:.4} ms",
        ratio(events as f64, raw.iter().map(|(_, t)| t).sum::<f64>() / 1e3),
        percentile(&mut raw_admit, 0.50),
        percentile(&mut raw_admit, 0.99)
    );
    eprintln!(
        "{} units of {events} events, {measured:.3} s measured; {} admits, {} releases timed",
        units.len(),
        admit.len(),
        release.len()
    );
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "events_per_s",
            value: ratio(events as f64, service_s),
            unit: "1/s",
        },
        Metric {
            name: "admit_p50_ms",
            value: percentile(&mut admit, 0.50),
            unit: "ms",
        },
        Metric {
            name: "admit_p99_ms",
            value: percentile(&mut admit, 0.99),
            unit: "ms",
        },
        Metric {
            name: "release_p90_ms",
            value: percentile(&mut release, 0.90),
            unit: "ms",
        },
        Metric {
            name: "admitted_frac",
            value: ratio(t.admitted as f64, t.arrivals as f64),
            unit: "ratio",
        },
        Metric {
            name: "ent_rate",
            value: t.rate_sum,
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

/// The per-layer run: one unit with telemetry on, one with it off, one
/// more with it on. The two traced units must count identically.
fn traced(world: &World, expect: &[Expected], kernel: &mut Kernel) -> Result<RunResult, String> {
    let (first, counters) = unit(world, expect, true, kernel);
    let (untraced, _) = unit(world, expect, false, kernel);
    let (second, counters_again) = unit(world, expect, true, kernel);
    let repeatable = counters == counters_again;
    if !repeatable {
        eprintln!("two traced units counted differently");
    }
    let overhead =
        (scaled_wall_s(&first) + scaled_wall_s(&second)) / 2.0 / scaled_wall_s(&untraced) - 1.0;
    let class_s = |class| untraced.iter().map(|p| p.class_s(class)).sum::<f64>();
    let release_s = class_s(Call::Release) + class_s(Call::IdleCut);
    let mut metrics = serve_timings(class_s(Call::Admit), release_s);
    metrics.extend(counter_metrics(&counters, totals(&first).arrivals));
    metrics.extend(sweep_timings(0.0, 0.0, 0.0, 0.0));
    metrics.push(Metric {
        name: "telemetry.overhead_frac",
        value: overhead,
        unit: "ratio",
    });
    let (attempted, failed) = tally(world, &[first, untraced, second]);
    Ok(RunResult {
        correct: failed == 0 && repeatable,
        attempted,
        failed,
        metrics,
    })
}
