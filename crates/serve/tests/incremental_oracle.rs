//! The incremental-admission differential oracle.
//!
//! [`AdmitStrategy::Incremental`] must be **byte-identical** to
//! [`AdmitStrategy::FromScratch`] — not statistically close, not
//! rate-equal: the same `RouteTrace` (Algorithm 2 candidates, Algorithm 3
//! `MergeOutcome`, finished plan) at every admission, the same
//! `StateDigest` after every event, and the same `ReplayReport`
//! (byte-stable log + stats) over whole traces. Two states driven in
//! lockstep through random admit/depart/link-down traces check exactly
//! that, which makes the candidate cache's invalidation rule (footprint ×
//! flip-band, see `src/cache.rs`) falsifiable: one missed invalidation
//! anywhere and a later admission reuses stale candidates and diverges.
//!
//! The reduced grid runs in tier-1 CI on every push; the wide grid
//! (`--ignored`) covers larger networks and harsher p/q corners in the
//! scheduled `wide-differential` workflow:
//!
//! ```text
//! cargo test --release -p fusion-serve --test incremental_oracle -- --ignored
//! ```

use std::collections::BTreeMap;

use fusion_core::algorithms::{AdmitStrategy, RoutingConfig};
use fusion_core::{NetworkParams, QuantumNetwork};
use fusion_serve::{
    replay, AdmitOutcome, ReplayOptions, ServiceState, TraceConfig, TraceEventKind,
};
use fusion_telemetry::Registry;
use fusion_topology::{GeneratorKind, TopologyConfig};

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

#[allow(clippy::too_many_arguments)]
fn build_state(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
    h: usize,
    classic: bool,
    strategy: AdmitStrategy,
) -> ServiceState {
    let topo = TopologyConfig {
        num_switches: switches,
        num_user_pairs: pairs,
        avg_degree: 6.0,
        kind: if grid {
            GeneratorKind::Grid
        } else {
            GeneratorKind::default() // Waxman, the paper's family
        },
        ..TopologyConfig::default()
    }
    .generate(seed);
    let mut net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    net.set_uniform_link_success(Some(p));
    net.set_swap_success(q);
    let base = if classic {
        RoutingConfig::classic()
    } else {
        RoutingConfig::n_fusion()
    };
    // Enabled telemetry throughout: the oracle's byte-identity assertions
    // double as proof that counters never affect behavior.
    ServiceState::with_telemetry(
        net,
        RoutingConfig {
            h,
            admit_strategy: strategy,
            ..base
        },
        Registry::enabled(),
    )
}

/// Drives an incremental and a from-scratch state through the same trace
/// in lockstep, asserting byte-identity of every admission trace and
/// every post-event digest, then replays the whole trace through the
/// replay harness on fresh states and compares the reports.
#[allow(clippy::too_many_arguments)]
fn check_incremental_case(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
    h: usize,
    classic: bool,
    events: usize,
    trace_seed: u64,
    link_down_rate: f64,
    mean_holding: f64,
    user_pool: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut inc = build_state(
        switches,
        pairs,
        grid,
        seed,
        p,
        q,
        h,
        classic,
        AdmitStrategy::Incremental,
    );
    let mut scratch = build_state(
        switches,
        pairs,
        grid,
        seed,
        p,
        q,
        h,
        classic,
        AdmitStrategy::FromScratch,
    );
    let trace = fusion_serve::generate(
        inc.network(),
        &TraceConfig {
            events,
            arrival_rate: 1.0,
            mean_holding,
            link_down_rate,
            user_pool,
            seed: trace_seed,
        },
    );

    // Outcomes are asserted identical at every step, so one id map
    // serves both states.
    let mut by_arrival = BTreeMap::new();
    for (i, event) in trace.events.iter().enumerate() {
        match event.kind {
            TraceEventKind::Arrival {
                arrival,
                source,
                dest,
            } => {
                let (outcome_inc, trace_inc) = inc.admit_traced(source, dest);
                let (outcome_scr, trace_scr) = scratch.admit_traced(source, dest);
                prop_assert_eq!(
                    &outcome_inc,
                    &outcome_scr,
                    "outcome diverged at arrival {} (event {})",
                    arrival,
                    i
                );
                prop_assert_eq!(
                    trace_inc == trace_scr,
                    true,
                    "RouteTrace diverged at arrival {} (event {})",
                    arrival,
                    i
                );
                if let AdmitOutcome::Accepted { id, .. } = outcome_inc {
                    by_arrival.insert(arrival, id);
                }
            }
            TraceEventKind::Departure { arrival } => {
                if let Some(id) = by_arrival.remove(&arrival) {
                    let a = inc.depart(id);
                    let b = scratch.depart(id);
                    prop_assert_eq!(a.is_some(), b.is_some(), "departure {} diverged", arrival);
                }
            }
            TraceEventKind::LinkDown { edge } => {
                let va = inc.fail_link(edge);
                let vb = scratch.fail_link(edge);
                prop_assert_eq!(&va, &vb, "eviction set diverged at event {}", i);
                for id in va {
                    by_arrival.retain(|_, v| *v != id);
                }
            }
        }
        prop_assert_eq!(
            inc.digest() == scratch.digest(),
            true,
            "digest diverged after event {}",
            i
        );
    }
    inc.audit().map_err(TestCaseError::fail)?;

    // Whole-trace replay through the harness: reports and final digests
    // byte-identical on fresh states.
    let mut fresh_inc = build_state(
        switches,
        pairs,
        grid,
        seed,
        p,
        q,
        h,
        classic,
        AdmitStrategy::Incremental,
    );
    let mut fresh_scr = build_state(
        switches,
        pairs,
        grid,
        seed,
        p,
        q,
        h,
        classic,
        AdmitStrategy::FromScratch,
    );
    let options = ReplayOptions::default();
    let report_inc = replay(&mut fresh_inc, &trace, &options);
    let report_scr = replay(&mut fresh_scr, &trace, &options);
    prop_assert_eq!(
        report_inc.fingerprint(),
        report_scr.fingerprint(),
        "replay logs diverged"
    );
    prop_assert_eq!(report_inc == report_scr, true, "replay reports diverged");
    prop_assert_eq!(
        fresh_inc.digest() == fresh_scr.digest(),
        true,
        "replay digests diverged"
    );
    // The incremental run must actually have exercised the cache, and
    // only the incremental strategy may register cache counters.
    let snap_inc = fresh_inc.registry().snapshot();
    prop_assert_eq!(snap_inc.value("serve.cache.admissions") > 0, events > 0);
    let snap_scr = fresh_scr.registry().snapshot();
    prop_assert!(snap_scr.get("serve.cache.admissions").is_none());
    Ok(())
}

/// Churn variant: churn-bound traces (short holds, link-downs, optionally
/// a small recurring user pool) drive the cache through its damage →
/// repair path rather than kill → miss. On top of the lockstep
/// byte-identity of [`check_incremental_case`], asserts that two
/// same-seed incremental runs produce byte-identical
/// [`fusion_telemetry::MetricsSnapshot`]s (counters are a pure function
/// of the counted work), and returns a snapshot so pinned callers can
/// assert the path they target (`serve.cache.repairs`,
/// `serve.cache.cert_saves`, ...) was actually exercised.
#[allow(clippy::too_many_arguments)]
fn check_churn_case(
    switches: usize,
    pairs: usize,
    grid: bool,
    seed: u64,
    p: f64,
    q: f64,
    h: usize,
    classic: bool,
    events: usize,
    trace_seed: u64,
    link_down_rate: f64,
    mean_holding: f64,
    user_pool: usize,
) -> Result<fusion_telemetry::MetricsSnapshot, proptest::test_runner::TestCaseError> {
    check_incremental_case(
        switches,
        pairs,
        grid,
        seed,
        p,
        q,
        h,
        classic,
        events,
        trace_seed,
        link_down_rate,
        mean_holding,
        user_pool,
    )?;

    let mut snaps = Vec::new();
    for _ in 0..2 {
        let mut st = build_state(
            switches,
            pairs,
            grid,
            seed,
            p,
            q,
            h,
            classic,
            AdmitStrategy::Incremental,
        );
        let trace = fusion_serve::generate(
            st.network(),
            &TraceConfig {
                events,
                arrival_rate: 1.0,
                mean_holding,
                link_down_rate,
                user_pool,
                seed: trace_seed,
            },
        );
        let _ = replay(&mut st, &trace, &ReplayOptions::default());
        snaps.push(st.registry().snapshot());
    }
    prop_assert_eq!(
        snaps[0].digest(),
        snaps[1].digest(),
        "metrics digests diverged across same-seed runs"
    );
    prop_assert_eq!(
        snaps[0] == snaps[1],
        true,
        "metrics snapshots diverged across same-seed runs"
    );
    Ok(snaps.swap_remove(0))
}

/// The hardest invalidation case, pinned deterministically for tier-1:
/// `fail_link` returns capacity (residuals *increase*, so stale cached
/// candidates would under-route), after which re-admitting the evicted
/// pair must be byte-identical between strategies.
#[test]
fn fail_link_then_readmission_is_byte_identical() {
    let mut inc = build_state(
        22,
        3,
        false,
        9,
        0.9,
        0.9,
        3,
        false,
        AdmitStrategy::Incremental,
    );
    let mut scratch = build_state(
        22,
        3,
        false,
        9,
        0.9,
        0.9,
        3,
        false,
        AdmitStrategy::FromScratch,
    );
    let users: Vec<_> = {
        let net = inc.network();
        net.graph()
            .node_ids()
            .filter(|&v| !net.is_switch(v))
            .collect()
    };
    let (s, d) = (users[0], users[1]);

    // Warm the cache: admit the pair repeatedly until saturation.
    let mut live = Vec::new();
    loop {
        let (a, ta) = inc.admit_traced(s, d);
        let (b, tb) = scratch.admit_traced(s, d);
        assert_eq!(a, b);
        assert!(ta == tb, "warmup traces diverged");
        match a {
            AdmitOutcome::Accepted { id, .. } => live.push(id),
            AdmitOutcome::Rejected(_) => break,
        }
    }
    assert!(!live.is_empty(), "small world must admit at least one plan");

    // Cut a fiber one live plan crosses: its capacity comes back.
    let lp = inc.get(live[0]).expect("plan is live").clone();
    let &((u, v), _) = lp.usage.edge_channels.first().expect("plan uses edges");
    let edge = inc.network().graph().find_edge(u, v).expect("edge exists");
    let evicted_inc = inc.fail_link(edge);
    let evicted_scr = scratch.fail_link(edge);
    assert_eq!(evicted_inc, evicted_scr);
    assert!(!evicted_inc.is_empty());
    assert!(
        inc.digest() == scratch.digest(),
        "digest diverged after cut"
    );

    // Re-admission of the same pair against the *restored* capacity: any
    // cached width slice that missed its invalidation would reuse
    // candidates computed for the saturated network and diverge here.
    let (a, ta) = inc.admit_traced(s, d);
    let (b, tb) = scratch.admit_traced(s, d);
    assert_eq!(a, b, "re-admission outcome diverged");
    assert!(ta == tb, "re-admission trace diverged");
    assert!(
        matches!(a, AdmitOutcome::Accepted { .. }),
        "restored capacity must readmit the evicted pair"
    );
    assert!(inc.digest() == scratch.digest());
    inc.audit().unwrap();
    scratch.audit().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reduced tier-1 grid: small worlds, short traces, every event
    /// byte-compared between strategies.
    #[test]
    fn incremental_matches_from_scratch_reduced(
        switches in 10usize..28,
        pairs in 2usize..6,
        grid in proptest::bool::ANY,
        seed in 0u64..1_000,
        p in 0.55f64..0.95,
        q in 0.7f64..1.0,
        h in 1usize..4,
        classic in proptest::bool::ANY,
        events in 30usize..80,
        trace_seed in 0u64..1_000,
        link_down_rate in 0.0f64..0.15,
        mean_holding in 4.0f64..40.0,
    ) {
        check_incremental_case(
            switches, pairs, grid, seed, p, q, h, classic,
            events, trace_seed, link_down_rate, mean_holding, 0,
        )?;
    }
}

/// Pinned churn-bound cases for tier-1: high-churn traces (user-pool 0,
/// short holds, link-downs) must stay byte-identical to from-scratch at
/// every event and produce the same `MetricsSnapshot` twice from the
/// same seed. Damage is inflicted organically here; whether a damaged
/// slot survives to be repair-served is a deep tail of the trace
/// distribution (the flipping batch must avoid every ordinal-0 read),
/// so the repairs-fire guarantee is pinned separately, at the state
/// level, in `state::tests::repair_fires_through_the_full_admission_path`.
#[test]
fn repair_heavy_churn_pinned_cases() {
    for trace_seed in [11u64, 12, 13, 14] {
        check_churn_case(
            24, 4, false, 17, 0.9, 0.9, 3, false, 90, trace_seed, 0.1, 3.0, 0,
        )
        .expect("repair-heavy oracle case failed");
    }
}

/// Certificate-heavy pinned cases for tier-1: a small recurring user
/// pool over a churning network is exactly the regime the certificate
/// footprints are built for — the same pairs re-admit while charges and
/// returns flip thresholds all over the probed region. Byte-identity to
/// from-scratch is asserted at every event by the harness; on top, the
/// certificates must *do their job*: at least one flip must land on a
/// raw-footprint read the certificate proves irrelevant
/// (`serve.cache.cert_saves`), and flips that do land must be classified
/// past ordinal 0 at least once (`serve.cache.flip_ordinal` — the "churn
/// wall" this PR breaks was every flip killing at ordinal 0).
#[test]
fn certificate_churn_pinned_cases() {
    let mut total_saves = 0;
    let mut past_zero = 0;
    for trace_seed in [21u64, 22, 23, 24] {
        let snap = check_churn_case(
            24, 4, false, 17, 0.9, 0.9, 3, false, 90, trace_seed, 0.1, 3.0, 4,
        )
        .expect("certificate-churn oracle case failed");
        total_saves += snap.value("serve.cache.cert_saves");
        let flips_total = snap.value("serve.cache.flip_ordinal/count");
        let flips_at_zero = snap.value("serve.cache.flip_ordinal/p2_00");
        past_zero += flips_total - flips_at_zero;
    }
    assert!(
        total_saves > 0,
        "certificate footprints never saved a slot a raw footprint would have killed"
    );
    assert!(
        past_zero > 0,
        "every tracked flip classified at ordinal 0: repair lattice never engaged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reduced repair-heavy grid for tier-1: churn-bound traces (short
    /// holds, link-downs) where invalidations land mid-slot and slots are
    /// repaired, not killed. Every event byte-compared between
    /// strategies; counters deterministic across same-seed runs.
    #[test]
    fn repair_heavy_matches_from_scratch_reduced(
        switches in 12usize..28,
        pairs in 2usize..6,
        grid in proptest::bool::ANY,
        seed in 0u64..1_000,
        p in 0.55f64..0.95,
        q in 0.7f64..1.0,
        h in 1usize..4,
        classic in proptest::bool::ANY,
        events in 40usize..90,
        trace_seed in 0u64..1_000,
        link_down_rate in 0.05f64..0.3,
        mean_holding in 1.0f64..6.0,
    ) {
        check_churn_case(
            switches, pairs, grid, seed, p, q, h, classic,
            events, trace_seed, link_down_rate, mean_holding, 0,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reduced certificate-churn grid for tier-1: small recurring user
    /// pools over churning worlds, so the same pairs re-admit while
    /// thresholds flip — the regime where certificate footprints decide
    /// between reuse, repair, and kill on nearly every event. Every event
    /// byte-compared between strategies.
    #[test]
    fn certificate_churn_matches_from_scratch_reduced(
        switches in 12usize..28,
        pairs in 2usize..6,
        grid in proptest::bool::ANY,
        seed in 0u64..1_000,
        p in 0.55f64..0.95,
        q in 0.7f64..1.0,
        h in 1usize..4,
        classic in proptest::bool::ANY,
        events in 40usize..90,
        trace_seed in 0u64..1_000,
        link_down_rate in 0.0f64..0.2,
        mean_holding in 1.0f64..8.0,
        user_pool in 2usize..6,
    ) {
        check_churn_case(
            switches, pairs, grid, seed, p, q, h, classic,
            events, trace_seed, link_down_rate, mean_holding, user_pool,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wide repair-heavy grid for the scheduled `wide-differential`
    /// workflow: larger churn-bound worlds, longer traces, harsher
    /// failure rates — the regime where partial repair carries the load.
    #[test]
    #[ignore = "wide repair-heavy oracle grid; minutes of runtime, run with -- --ignored"]
    fn repair_heavy_matches_from_scratch_wide(
        switches in 12usize..80,
        pairs in 2usize..8,
        grid in proptest::bool::ANY,
        seed in 0u64..10_000,
        p in 0.4f64..1.0,
        q in 0.5f64..1.0,
        h in 1usize..5,
        classic in proptest::bool::ANY,
        events in 60usize..200,
        trace_seed in 0u64..10_000,
        link_down_rate in 0.05f64..0.35,
        mean_holding in 1.0f64..8.0,
    ) {
        check_churn_case(
            switches, pairs, grid, seed, p, q, h, classic,
            events, trace_seed, link_down_rate, mean_holding, 0,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wide certificate-churn grid for the scheduled `wide-differential`
    /// workflow: larger worlds, longer recurring-pool traces, harsher
    /// churn — the regime where a single unsound certificate (a tracked
    /// read missing from the footprint) would let a stale slice serve
    /// and diverge from from-scratch.
    #[test]
    #[ignore = "wide certificate-churn oracle grid; minutes of runtime, run with -- --ignored"]
    fn certificate_churn_matches_from_scratch_wide(
        switches in 12usize..80,
        pairs in 2usize..8,
        grid in proptest::bool::ANY,
        seed in 0u64..10_000,
        p in 0.4f64..1.0,
        q in 0.5f64..1.0,
        h in 1usize..5,
        classic in proptest::bool::ANY,
        events in 60usize..200,
        trace_seed in 0u64..10_000,
        link_down_rate in 0.0f64..0.35,
        mean_holding in 1.0f64..10.0,
        user_pool in 2usize..8,
    ) {
        check_churn_case(
            switches, pairs, grid, seed, p, q, h, classic,
            events, trace_seed, link_down_rate, mean_holding, user_pool,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wide grid for the scheduled `wide-differential` workflow: larger
    /// networks, longer traces, harsher failure rates.
    #[test]
    #[ignore = "wide incremental-oracle grid; minutes of runtime, run with -- --ignored"]
    fn incremental_matches_from_scratch_wide(
        switches in 10usize..80,
        pairs in 2usize..8,
        grid in proptest::bool::ANY,
        seed in 0u64..10_000,
        p in 0.4f64..1.0,
        q in 0.5f64..1.0,
        h in 1usize..5,
        classic in proptest::bool::ANY,
        events in 60usize..240,
        trace_seed in 0u64..10_000,
        link_down_rate in 0.0f64..0.25,
        mean_holding in 2.0f64..60.0,
    ) {
        check_incremental_case(
            switches, pairs, grid, seed, p, q, h, classic,
            events, trace_seed, link_down_rate, mean_holding, 0,
        )?;
    }
}
