//! The telemetry determinism oracle.
//!
//! The deterministic plane (counters and histograms) must be a pure
//! function of the work performed: two replays of the same seeded trace
//! against identical fresh states must produce **byte-identical**
//! [`fusion_telemetry::MetricsSnapshot`]s — same JSON, same FNV digest —
//! no matter how different their wall-clock profiles are. Spans live in
//! the separate timing plane and must never leak a key into a snapshot;
//! that separation is what makes the digest safe to compare at all.
//!
//! The reduced grid runs in tier-1 CI on every push; the wide grid
//! (`--ignored`) covers larger networks and longer traces in the
//! scheduled `wide-differential` workflow:
//!
//! ```text
//! cargo test --release -p fusion-serve --test telemetry_determinism -- --ignored
//! ```

use fusion_core::algorithms::RoutingConfig;
use fusion_core::{NetworkParams, QuantumNetwork};
use fusion_serve::{generate, replay, ReplayOptions, ServiceState, TraceConfig};
use fusion_telemetry::Registry;
use fusion_topology::{GeneratorKind, TopologyConfig};

use proptest::prelude::*;
use proptest::test_runner::{ProptestConfig, TestCaseError};

#[allow(clippy::too_many_arguments)]
fn build_state(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
    h: usize,
    registry: Registry,
) -> ServiceState {
    let topo = TopologyConfig {
        num_switches: switches,
        num_user_pairs: pairs,
        avg_degree: 6.0,
        kind: if grid {
            GeneratorKind::Grid
        } else {
            GeneratorKind::default()
        },
        ..TopologyConfig::default()
    }
    .generate(seed);
    let mut net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    net.set_uniform_link_success(Some(p));
    net.set_swap_success(q);
    ServiceState::with_telemetry(
        net,
        RoutingConfig {
            h,
            ..RoutingConfig::n_fusion()
        },
        registry,
    )
}

/// Replays the same trace twice on identical fresh states with separate
/// enabled registries and asserts the deterministic plane is
/// byte-identical — while deliberately skewing the two runs' wall-clock
/// (extra spans on one side) to prove the timing plane cannot leak in.
#[allow(clippy::too_many_arguments)]
fn check_telemetry_case(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
    h: usize,
    events: usize,
    trace_seed: u64,
    link_down_rate: f64,
    mc_rounds: usize,
) -> Result<(), TestCaseError> {
    let trace_config = TraceConfig {
        events,
        seed: trace_seed,
        link_down_rate,
        ..TraceConfig::default()
    };
    let options = ReplayOptions {
        mc_rounds,
        ..ReplayOptions::default()
    };

    let run = |noise_spans: usize| {
        let registry = Registry::enabled();
        // Asymmetric span load: wall-time activity that must not show up
        // in the snapshot comparison below.
        for _ in 0..noise_spans {
            let _g = registry.span("noise");
        }
        let mut state = build_state(switches, pairs, grid, seed, p, q, h, registry.clone());
        let trace = generate(state.network(), &trace_config);
        let report = replay(&mut state, &trace, &options);
        (registry.snapshot(), report, state.digest())
    };
    let (snap_a, report_a, digest_a) = run(0);
    let (snap_b, report_b, digest_b) = run(64);

    prop_assert_eq!(&report_a, &report_b, "replay reports diverged");
    prop_assert_eq!(digest_a == digest_b, true, "state digests diverged");
    prop_assert_eq!(
        snap_a.to_json(),
        snap_b.to_json(),
        "counter snapshots diverged"
    );
    prop_assert_eq!(snap_a.digest(), snap_b.digest());

    // The replay span recorded on the timing plane and only there.
    prop_assert!(
        snap_a.iter().all(|(name, _)| !name.contains("noise")
            && name != "serve.replay/count"
            && name != "serve.replay/total_ns"),
        "a span key leaked into the deterministic plane: {:?}",
        snap_a
    );

    // The snapshot is not vacuous: the replay layer recorded, every
    // arrival trace built width slices (the first arrival meets a fresh
    // network, so it is never saturated), and with MC rounds on, so did
    // the Monte Carlo layer.
    prop_assert_eq!(snap_a.value("serve.replay.events"), events as u64);
    if mc_rounds > 0 && snap_a.value("serve.replay.admitted") > 0 {
        prop_assert!(snap_a.value("mc.rounds") > 0, "MC counters missing");
    }
    if snap_a.value("serve.replay.arrivals") > 0 {
        prop_assert!(
            snap_a.value("alg2.widths_searched") > 0,
            "Algorithm 2 counters missing"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reduced tier-1 grid: small worlds, short traces.
    #[test]
    fn snapshots_are_byte_identical_across_replays_reduced(
        switches in 10usize..24,
        pairs in 2usize..5,
        grid in proptest::bool::ANY,
        seed in 0u64..1_000,
        p in 0.55f64..0.95,
        q in 0.7f64..1.0,
        h in 1usize..4,
        events in 30usize..70,
        trace_seed in 0u64..1_000,
        link_down_rate in 0.0f64..0.15,
        mc_rounds in 0usize..12,
    ) {
        check_telemetry_case(
            switches, pairs, grid, seed, p, q, h,
            events, trace_seed, link_down_rate, mc_rounds,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wide grid for the scheduled `wide-differential` workflow: larger
    /// networks, longer traces, heavier MC sampling.
    #[test]
    #[ignore = "wide telemetry-determinism grid; minutes of runtime, run with -- --ignored"]
    fn snapshots_are_byte_identical_across_replays_wide(
        switches in 10usize..70,
        pairs in 2usize..8,
        grid in proptest::bool::ANY,
        seed in 0u64..10_000,
        p in 0.4f64..1.0,
        q in 0.5f64..1.0,
        h in 1usize..5,
        events in 60usize..200,
        trace_seed in 0u64..10_000,
        link_down_rate in 0.0f64..0.25,
        mc_rounds in 0usize..32,
    ) {
        check_telemetry_case(
            switches, pairs, grid, seed, p, q, h,
            events, trace_seed, link_down_rate, mc_rounds,
        )?;
    }
}
