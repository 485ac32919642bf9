//! The incremental-admission oracle: the persistent engine under churn.
//!
//! A `ServiceState` admits every arrival on one Algorithm 2 engine that
//! stays alive across the whole trace, while departures and link-downs
//! move the residual capacities under it. That admission must be
//! **byte-identical** to building everything from scratch: at every
//! arrival the returned `RouteTrace` (Algorithm 2 candidates, Algorithm 3
//! `MergeOutcome`, finished plan) equals the batch pipeline on the
//! reduced network taken just before the call (`common::admit_checked`),
//! the ledger balances after every event, a fresh state replaying the
//! trace through [`replay`] ends in the same digest, and two same-seed
//! replays produce the same metrics snapshot.
//!
//! The grids are the churn regimes that stressed the former candidate
//! cache hardest, and now stress what the engine carries between
//! admissions: plain churn, repair-heavy churn (short holds, frequent
//! link-downs) and certificate churn (a small recurring user pool, so
//! the same pairs re-admit while the residuals around them move).
//! `service_oracle.rs` checks the conservation and no-op oracles on its
//! own grids.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use fusion_serve::{replay, AdmitOutcome, ReplayOptions, TraceConfig, TraceEventKind};
use fusion_telemetry::MetricsSnapshot;

use common::{admit_checked, build_state};
use proptest::prelude::*;
use proptest::test_runner::{ProptestConfig, TestCaseError};

/// What one checked run saw: enough for the pinned cases to show they
/// exercise the regime they are named for.
struct ChurnRun {
    /// Plans evicted by link-downs.
    evicted: usize,
    /// Arrivals whose (source, dest) pair had arrived before.
    repeat_arrivals: usize,
    /// The metrics of a fresh same-seed replay.
    snapshot: MetricsSnapshot,
}

/// Drives one sampled world through a random trace, checking every
/// arrival against the batch pipeline and the ledger after every event,
/// then replays the trace twice on fresh states: both replays must end
/// in the checked loop's digest with identical metrics snapshots.
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
) -> Result<ChurnRun, TestCaseError> {
    let build = || build_state(switches, pairs, grid, seed, p, q, h, classic);
    let mut state = build();
    let trace = fusion_serve::generate(
        state.network(),
        &TraceConfig {
            events,
            arrival_rate: 1.0,
            mean_holding,
            link_down_rate,
            user_pool,
            seed: trace_seed,
        },
    );

    let mut by_arrival = BTreeMap::new();
    let mut seen_pairs = BTreeSet::new();
    let (mut evicted, mut repeat_arrivals) = (0, 0);
    for (i, event) in trace.events.iter().enumerate() {
        match event.kind {
            TraceEventKind::Arrival {
                arrival,
                source,
                dest,
            } => {
                if !seen_pairs.insert((source, dest)) {
                    repeat_arrivals += 1;
                }
                if let AdmitOutcome::Accepted { id, .. } =
                    admit_checked(&mut state, source, dest, arrival)?
                {
                    by_arrival.insert(arrival, id);
                }
            }
            TraceEventKind::Departure { arrival } => {
                if let Some(id) = by_arrival.remove(&arrival) {
                    prop_assert!(state.depart(id).is_some(), "departure {} lost", arrival);
                }
            }
            TraceEventKind::LinkDown { edge } => {
                let victims = state.fail_link(edge);
                evicted += victims.len();
                by_arrival.retain(|_, id| !victims.contains(id));
            }
        }
        state
            .audit()
            .map_err(|e| TestCaseError::fail(format!("event {i}: {e}")))?;
    }

    let mut snapshots = Vec::new();
    for _ in 0..2 {
        let mut fresh = build();
        replay(&mut fresh, &trace, &ReplayOptions::default());
        prop_assert_eq!(
            fresh.digest() == state.digest(),
            true,
            "replay() and the checked loop disagree on the final state"
        );
        snapshots.push(fresh.registry().snapshot());
    }
    prop_assert_eq!(
        snapshots[0].digest(),
        snapshots[1].digest(),
        "metrics digests diverged across same-seed runs"
    );
    prop_assert_eq!(
        snapshots[0] == snapshots[1],
        true,
        "metrics snapshots diverged across same-seed runs"
    );
    Ok(ChurnRun {
        evicted,
        repeat_arrivals,
        snapshot: snapshots.swap_remove(0),
    })
}

/// A cut returns capacity (residuals *increase*), after which
/// re-admitting the evicted pair must still match the batch pipeline on
/// the restored network: nothing the engine kept from the saturating
/// admissions may leak into it. Pinned for tier-1.
#[test]
fn fail_link_then_readmission_is_byte_identical() {
    let mut state = build_state(22, 3, false, 9, 0.9, 0.9, 3, false);
    let users: Vec<_> = {
        let net = state.network();
        net.graph()
            .node_ids()
            .filter(|&v| !net.is_switch(v))
            .collect()
    };
    let (s, d) = (users[0], users[1]);

    // Admit the pair repeatedly until saturation.
    let mut live = Vec::new();
    for arrival in 0.. {
        match admit_checked(&mut state, s, d, arrival).expect("warmup admission matches batch") {
            AdmitOutcome::Accepted { id, .. } => live.push(id),
            AdmitOutcome::Rejected(_) => break,
        }
    }
    assert!(!live.is_empty(), "small world must admit at least one plan");

    // Cut a fiber one live plan crosses: its capacity comes back.
    let lp = state.get(live[0]).expect("plan is live").clone();
    let &((u, v), _) = lp.usage.edge_channels.first().expect("plan uses edges");
    let edge = state
        .network()
        .graph()
        .find_edge(u, v)
        .expect("edge exists");
    assert!(!state.fail_link(edge).is_empty());
    state.audit().unwrap();

    let outcome =
        admit_checked(&mut state, s, d, live.len() + 1).expect("re-admission matches batch");
    assert!(
        matches!(outcome, AdmitOutcome::Accepted { .. }),
        "restored capacity must readmit the evicted pair"
    );
    state.audit().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reduced tier-1 grid: small worlds, short traces, every arrival
    /// byte-compared with the batch pipeline.
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

/// Pinned repair-heavy cases for tier-1: short holds and link-downs
/// with every user, so capacity is charged, returned and cut between
/// nearly every pair of admissions.
#[test]
fn repair_heavy_churn_pinned_cases() {
    let mut evicted = 0;
    for trace_seed in [11u64, 12, 13, 14] {
        let run = check_incremental_case(
            24, 4, false, 17, 0.9, 0.9, 3, false, 90, trace_seed, 0.1, 3.0, 0,
        )
        .expect("repair-heavy oracle case failed");
        assert!(run.snapshot.value("alg2.widths_searched") > 0);
        evicted += run.evicted;
    }
    assert!(evicted > 0, "no link-down ever evicted a live plan");
}

/// Pinned certificate-churn cases for tier-1: a recurring pool of four
/// users over a churning network, so the same pairs re-admit on the one
/// engine while charges and returns move the residuals they route on.
#[test]
fn certificate_churn_pinned_cases() {
    let mut repeats = 0;
    for trace_seed in [21u64, 22, 23, 24] {
        let run = check_incremental_case(
            24, 4, false, 17, 0.9, 0.9, 3, false, 90, trace_seed, 0.1, 3.0, 4,
        )
        .expect("certificate-churn oracle case failed");
        assert!(run.snapshot.value("alg2.widths_searched") > 0);
        repeats += run.repeat_arrivals;
    }
    assert!(repeats > 0, "the recurring pool never repeated a pair");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reduced repair-heavy grid for tier-1: short holds and frequent
    /// link-downs with every user.
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
        check_incremental_case(
            switches, pairs, grid, seed, p, q, h, classic,
            events, trace_seed, link_down_rate, mean_holding, 0,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reduced certificate-churn grid for tier-1: small recurring user
    /// pools over churning worlds, so the same pairs re-admit while the
    /// residuals around them move.
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
        check_incremental_case(
            switches, pairs, grid, seed, p, q, h, classic,
            events, trace_seed, link_down_rate, mean_holding, user_pool,
        )?;
    }
}
