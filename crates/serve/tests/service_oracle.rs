//! The service-layer correctness oracles.
//!
//! Three properties lock the online engine to the batch pipeline:
//!
//! 1. **Residual-capacity equivalence** — at every arrival of a random
//!    admit/depart/link-down trace, the production admission
//!    (`admit_traced`: the state's persistent Algorithm 2 engine, then
//!    the merge and Algorithm 4) is byte-identical (Algorithm 2
//!    candidates, Algorithm 3 `MergeOutcome`, and the finished plan) to
//!    running the batch pipeline on a network whose capacities were
//!    pre-reduced by the live plans (`QuantumNetwork::with_capacities`),
//!    taken just before the call. The engine lives across every event of
//!    the trace, so any state it carried from one admission into the
//!    next would diverge here. When the serve side refuses to route
//!    (saturated), the reduced network must be unroutable too.
//! 2. **Conservation** — `depart ∘ admit` restores the ledger exactly,
//!    the ledger audit balances against the live set after every event,
//!    and no residual counter ever exceeds its capacity (they are
//!    unsigned, so "negative" manifests as overflow wrap or an
//!    overdraft — both caught here).
//! 3. **Rejected admissions are no-ops** — deleting every rejected
//!    arrival (and its scheduled departure) from the trace and replaying
//!    from scratch yields the same final `StateDigest`.
//!
//! Oracle 1's per-arrival check lives in `common/mod.rs`;
//! `incremental_oracle.rs` runs it over churn-bound traces.
//!
//! The reduced grid runs in tier-1 CI on every push; the wide grid
//! (`--ignored`) covers larger networks and harsher p/q corners for
//! release validation:
//!
//! ```text
//! cargo test --release -p fusion-serve --test service_oracle -- --ignored
//! ```

mod common;

use std::collections::{BTreeMap, BTreeSet};

use fusion_serve::{replay, AdmitOutcome, ReplayOptions, Trace, TraceConfig, TraceEventKind};

use common::{admit_checked, build_state};
use proptest::prelude::*;
use proptest::test_runner::{ProptestConfig, TestCaseError};

/// Drives one sampled world through a random trace, checking the
/// equivalence and conservation oracles at every event, then replays the
/// rejected-arrivals-filtered trace and checks no-op independence.
#[allow(clippy::too_many_arguments)]
fn check_service_case(
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
) -> Result<(), TestCaseError> {
    let mut state = build_state(switches, pairs, grid, seed, p, q, h, classic);
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
    let mut arrival_of = BTreeMap::new();
    let mut rejected = BTreeSet::new();
    for event in &trace.events {
        match event.kind {
            TraceEventKind::Arrival {
                arrival,
                source,
                dest,
            } => {
                // Oracle 2a, on the outcome of Oracle 1's call: depart ∘
                // admit restores the ledger exactly; rejection changes
                // nothing at all.
                let ledger_before = state.ledger().clone();
                let digest_before = state.digest();
                match admit_checked(&mut state, source, dest, arrival)? {
                    AdmitOutcome::Accepted { id, .. } => {
                        let mut undone = state.clone();
                        undone.depart(id).expect("just admitted");
                        prop_assert_eq!(
                            undone.ledger() == &ledger_before,
                            true,
                            "depart(admit(..)) did not restore the ledger at arrival {}",
                            arrival
                        );
                        by_arrival.insert(arrival, id);
                        arrival_of.insert(id, arrival);
                    }
                    AdmitOutcome::Rejected(_) => {
                        prop_assert_eq!(
                            state.digest() == digest_before,
                            true,
                            "rejected admission mutated the state at arrival {}",
                            arrival
                        );
                        rejected.insert(arrival);
                    }
                }
            }
            TraceEventKind::Departure { arrival } => {
                if let Some(id) = by_arrival.remove(&arrival) {
                    arrival_of.remove(&id);
                    state.depart(id).expect("tracked plan is live");
                }
            }
            TraceEventKind::LinkDown { edge } => {
                for id in state.fail_link(edge) {
                    let arrival = arrival_of.remove(&id).expect("victim tracked");
                    by_arrival.remove(&arrival);
                }
            }
        }
        // Oracle 2b: residual counters never exceed capacity (the u32
        // analogue of "never negative") and the books balance.
        for (free, cap) in state.residual().iter().zip(state.ledger().capacities()) {
            prop_assert_eq!(
                free <= cap,
                true,
                "residual {} above capacity {}",
                free,
                cap
            );
        }
        state.audit().map_err(TestCaseError::fail)?;
    }

    // The manual loop above must agree with the production replay loop.
    let mut fresh = build_state(switches, pairs, grid, seed, p, q, h, classic);
    replay(&mut fresh, &trace, &ReplayOptions::default());
    prop_assert_eq!(
        fresh.digest() == state.digest(),
        true,
        "oracle loop and replay() disagree on the final state"
    );

    // Oracle 3: deleting the rejected no-op arrivals (and their scheduled
    // departures) replays to the same final state.
    let filtered = Trace {
        events: trace
            .events
            .iter()
            .filter(|e| match e.kind {
                TraceEventKind::Arrival { arrival, .. } | TraceEventKind::Departure { arrival } => {
                    !rejected.contains(&arrival)
                }
                TraceEventKind::LinkDown { .. } => true,
            })
            .copied()
            .collect(),
    };
    let mut independent = build_state(switches, pairs, grid, seed, p, q, h, classic);
    replay(&mut independent, &filtered, &ReplayOptions::default());
    prop_assert_eq!(
        independent.digest() == state.digest(),
        true,
        "final state depends on {} rejected no-op arrivals",
        rejected.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tier-1 reduced grid: small Waxman/grid worlds, both swap
    /// modes, short traces with link-downs, with every user or a small
    /// recurring pool of them.
    #[test]
    fn service_oracles_hold_reduced(
        switches in 10usize..28,
        pairs in 2usize..6,
        grid in proptest::bool::ANY,
        seed in 0u64..1_000_000,
        p in 0.15f64..0.9,
        q in 0.6f64..1.0,
        h in 1usize..4,
        classic in proptest::bool::ANY,
        events in 30usize..80,
        trace_seed in 0u64..1_000_000,
        link_down in 0usize..2,
        mean_holding in 4.0f64..40.0,
        pool in 0usize..3,
    ) {
        check_service_case(
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
            link_down as f64 * 0.08,
            mean_holding,
            2 * pool,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The wide grid: larger worlds, longer traces, heavier load (small
    /// mean holding pushes churn; large pushes saturation), harsher p/q
    /// corners, and recurring user pools. Run explicitly with
    /// `-- --ignored`.
    #[test]
    #[ignore = "wide service-oracle grid; ~13 s under --release, run with -- --ignored"]
    fn service_oracles_hold_wide(
        switches in 10usize..80,
        pairs in 2usize..10,
        grid in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
        p in 0.02f64..0.999,
        q in 0.3f64..1.0,
        h in 1usize..5,
        classic in proptest::bool::ANY,
        events in 60usize..240,
        trace_seed in 0u64..u64::MAX,
        link_down in 0usize..3,
        mean_holding in 1.0f64..120.0,
        pool in 0usize..4,
    ) {
        check_service_case(
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
            link_down as f64 * 0.05,
            mean_holding,
            2 * pool,
        )?;
    }
}
