//! Trace replay: drive a [`ServiceState`] through a generated event
//! sequence, producing a byte-stable log and aggregate statistics.
//!
//! The log is the determinism artifact: every line is fully determined by
//! `(network, routing config, trace)`, with floating-point rates rendered
//! as their IEEE-754 bit patterns so two replays can be compared
//! byte-for-byte (see [`ReplayReport::fingerprint`]).
//!
//! How much search an admission did is deliberately *not* part of that
//! artifact: it is observable separately through the `alg2.*` counters
//! in the state's telemetry registry
//! ([`ServiceState::registry`](crate::ServiceState::registry)).
//!
//! When the state carries an enabled registry, the replay loop also
//! folds the final [`ReplayStats`] into `serve.replay.*` counters (one
//! bulk add per counter, after the event loop) and wraps the loop in a
//! `serve.replay` wall-time span — the span stays in the timing plane
//! and never reaches a snapshot.

use std::collections::BTreeMap;

use fusion_sim::{estimate_demand_plan, McCounters};
use fusion_telemetry::Registry;

use crate::state::{AdmitOutcome, PlanId, RejectReason, ServiceState};
use crate::trace::{Trace, TraceEventKind};

/// Replay-time knobs (all orthogonal to the trace itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Monte-Carlo rounds per admitted plan; `0` skips simulation and
    /// logs only the analytic rate.
    pub mc_rounds: usize,
    /// Base seed of the per-admission Monte-Carlo estimates. Each
    /// admission derives its own stream from this and its plan id, so
    /// estimates are independent of interleaving.
    pub mc_seed: u64,
    /// Audit the ledger against the live set every this many events;
    /// `0` disables auditing.
    pub audit_every: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            mc_rounds: 0,
            mc_seed: 0x5eed,
            audit_every: 0,
        }
    }
}

/// Aggregate counters of one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    /// Total events processed.
    pub events: usize,
    /// Arrival events.
    pub arrivals: usize,
    /// Arrivals admitted.
    pub admitted: usize,
    /// Arrivals rejected because no route fit the residual capacity.
    pub rejected_no_route: usize,
    /// Arrivals rejected without routing (no free switch qubit at all).
    pub rejected_saturated: usize,
    /// Departure events that tore a live plan down.
    pub departures: usize,
    /// Departure events whose arrival was rejected or already evicted.
    pub depart_noops: usize,
    /// Link-down events.
    pub link_downs: usize,
    /// Plans evicted by link-downs.
    pub evicted: usize,
    /// Live plans at the end of the replay.
    pub final_live: usize,
    /// State epoch at the end of the replay.
    pub final_epoch: u64,
    /// Sum of analytic rates over admitted plans (throughput proxy).
    pub admitted_rate_sum: f64,
}

impl ReplayStats {
    /// Fraction of arrivals admitted, in `[0, 1]`.
    #[must_use]
    pub fn admit_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.admitted as f64 / self.arrivals as f64
        }
    }
}

/// The outcome of a replay: the byte-stable log and the counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// One line per event, byte-stable for a fixed
    /// `(network, config, trace)`.
    pub log: Vec<String>,
    /// Aggregate counters.
    pub stats: ReplayStats,
}

impl ReplayReport {
    /// FNV-1a over the log lines — a cheap order-sensitive digest for
    /// determinism checks and for `serve replay` output.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in &self.log {
            for &b in line.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= u64::from(b'\n');
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Replays `trace` against `state`, mutating it in place.
///
/// Arrivals call [`ServiceState::admit`]; departures resolve their arrival
/// index to a plan id (no-ops when the arrival was rejected or evicted);
/// link-downs call [`ServiceState::fail_link`]. With `mc_rounds > 0`,
/// every admitted plan is also Monte-Carlo estimated with a per-plan seed
/// so the estimate does not depend on what else is in flight.
///
/// # Panics
///
/// Panics if the ledger audit fails (`audit_every > 0`) — that is a bug
/// in the engine, not in the trace.
pub fn replay(state: &mut ServiceState, trace: &Trace, options: &ReplayOptions) -> ReplayReport {
    let registry = state.registry().clone();
    let mc_counters = McCounters::from_registry(&registry);
    let _span = registry.span("serve.replay");
    let mut log = Vec::with_capacity(trace.events.len());
    let mut stats = ReplayStats::default();
    // arrival index -> live plan id (removed again on departure/eviction).
    let mut by_arrival: BTreeMap<usize, PlanId> = BTreeMap::new();
    let mut arrival_of: BTreeMap<PlanId, usize> = BTreeMap::new();

    for (i, event) in trace.events.iter().enumerate() {
        stats.events += 1;
        match event.kind {
            TraceEventKind::Arrival {
                arrival,
                source,
                dest,
            } => {
                stats.arrivals += 1;
                match state.admit(source, dest) {
                    AdmitOutcome::Accepted { id, rate } => {
                        stats.admitted += 1;
                        stats.admitted_rate_sum += rate;
                        by_arrival.insert(arrival, id);
                        arrival_of.insert(id, arrival);
                        let mut line = format!(
                            "{i} arrive {source}->{dest} accept {id} rate={:016x}",
                            rate.to_bits()
                        );
                        if options.mc_rounds > 0 {
                            let plan = &state.get(id).expect("just admitted").plan;
                            let est = estimate_demand_plan(
                                state.network(),
                                plan,
                                state.config().mode,
                                options.mc_rounds,
                                options.mc_seed.wrapping_add(id.index()),
                                &mc_counters,
                            );
                            line.push_str(&format!(" mc={:016x}", est.mean.to_bits()));
                        }
                        log.push(line);
                    }
                    AdmitOutcome::Rejected(reason) => {
                        let tag = match reason {
                            RejectReason::NoRoute => {
                                stats.rejected_no_route += 1;
                                "no-route"
                            }
                            RejectReason::Saturated => {
                                stats.rejected_saturated += 1;
                                "saturated"
                            }
                        };
                        log.push(format!("{i} arrive {source}->{dest} reject {tag}"));
                    }
                }
            }
            TraceEventKind::Departure { arrival } => {
                if let Some(id) = by_arrival.remove(&arrival) {
                    arrival_of.remove(&id);
                    state.depart(id).expect("arrival map tracks live plans");
                    stats.departures += 1;
                    log.push(format!("{i} depart arrival={arrival} {id}"));
                } else {
                    stats.depart_noops += 1;
                    log.push(format!("{i} depart arrival={arrival} noop"));
                }
            }
            TraceEventKind::LinkDown { edge } => {
                stats.link_downs += 1;
                let victims = state.fail_link(edge);
                stats.evicted += victims.len();
                for id in &victims {
                    let arrival = arrival_of.remove(id).expect("victim was tracked");
                    by_arrival.remove(&arrival);
                }
                let ids: Vec<String> = victims.iter().map(PlanId::to_string).collect();
                log.push(format!(
                    "{i} linkdown e{} evict [{}]",
                    edge.index(),
                    ids.join(",")
                ));
            }
        }
        if options.audit_every > 0 && (i + 1) % options.audit_every == 0 {
            state.audit().expect("ledger out of balance mid-replay");
        }
    }

    stats.final_live = state.live_count();
    stats.final_epoch = state.epoch();
    record_replay_counters(&registry, &stats);
    ReplayReport { log, stats }
}

/// Folds one replay's aggregate stats into the `serve.replay.*` counters:
/// a handful of bulk adds, so the per-event path pays nothing. Gauges
/// (`final_live`, `final_epoch`, `admitted_rate_sum`) stay out — counters
/// are monotonic event counts and those are end-of-replay state.
fn record_replay_counters(registry: &Registry, stats: &ReplayStats) {
    if !registry.is_enabled() {
        return;
    }
    let add = |name: &str, value: usize| registry.counter(name).add(value as u64);
    add("serve.replay.events", stats.events);
    add("serve.replay.arrivals", stats.arrivals);
    add("serve.replay.admitted", stats.admitted);
    add("serve.replay.rejected_no_route", stats.rejected_no_route);
    add("serve.replay.rejected_saturated", stats.rejected_saturated);
    add("serve.replay.departures", stats.departures);
    add("serve.replay.depart_noops", stats.depart_noops);
    add("serve.replay.link_downs", stats.link_downs);
    add("serve.replay.evicted", stats.evicted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServiceState;
    use crate::trace::{generate, TraceConfig};
    use fusion_core::algorithms::RoutingConfig;
    use fusion_core::{NetworkParams, QuantumNetwork};
    use fusion_topology::TopologyConfig;

    fn state() -> ServiceState {
        let topo = TopologyConfig {
            num_switches: 20,
            num_user_pairs: 4,
            avg_degree: 5.0,
            ..TopologyConfig::default()
        }
        .generate(3);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        ServiceState::new(net, RoutingConfig::n_fusion())
    }

    #[test]
    fn replay_is_deterministic_and_balanced() {
        let config = TraceConfig {
            events: 400,
            link_down_rate: 0.05,
            ..TraceConfig::default()
        };
        let mut s1 = state();
        let trace = generate(s1.network(), &config);
        let r1 = replay(
            &mut s1,
            &trace,
            &ReplayOptions {
                audit_every: 7,
                ..ReplayOptions::default()
            },
        );
        let mut s2 = state();
        let r2 = replay(
            &mut s2,
            &trace,
            &ReplayOptions {
                audit_every: 7,
                ..ReplayOptions::default()
            },
        );
        assert_eq!(r1, r2, "same trace must replay identically");
        assert_eq!(r1.fingerprint(), r2.fingerprint());
        assert_eq!(s1.digest(), s2.digest());
        assert_eq!(r1.log.len(), 400);
        assert!(r1.stats.admitted > 0, "{:?}", r1.stats);
        assert_eq!(
            r1.stats.admitted,
            r1.stats.departures + r1.stats.evicted + r1.stats.final_live,
            "every admitted plan departs, is evicted, or stays live: {:?}",
            r1.stats
        );
        s1.audit().unwrap();
    }

    #[test]
    fn mc_rounds_change_log_but_not_state() {
        let config = TraceConfig {
            events: 120,
            ..TraceConfig::default()
        };
        let mut plain = state();
        let trace = generate(plain.network(), &config);
        let r_plain = replay(&mut plain, &trace, &ReplayOptions::default());
        let mut mc = state();
        let r_mc = replay(
            &mut mc,
            &trace,
            &ReplayOptions {
                mc_rounds: 16,
                ..ReplayOptions::default()
            },
        );
        assert_eq!(plain.digest(), mc.digest(), "MC is observational only");
        assert_eq!(r_plain.stats, r_mc.stats);
        assert_ne!(r_plain.fingerprint(), r_mc.fingerprint());
    }
}
