//! Seeded deterministic trace generation: Poisson arrivals, exponential
//! holding times, optional Poisson link-down events.
//!
//! A [`Trace`] is generated up front from a [`TraceConfig`] and a network
//! (which supplies the user population and link set), so the same
//! `(network, config)` pair always yields the same event sequence —
//! byte-identical replay logs are the determinism contract of the serve
//! smoke test and of `serve replay`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fusion_core::QuantumNetwork;
use fusion_graph::{EdgeId, NodeId};
use fusion_sim::failure::sample_link_outage;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Knobs of the trace generator. Rates are per unit of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Total number of events to emit (arrivals + departures + link-downs).
    pub events: usize,
    /// Poisson rate of demand arrivals.
    pub arrival_rate: f64,
    /// Mean of the exponential holding time of an admitted demand.
    pub mean_holding: f64,
    /// Poisson rate of transient link failures; `0.0` disables them.
    pub link_down_rate: f64,
    /// Restrict demands to the first `user_pool` users of the network
    /// (`0` = every user). A small pool makes demands *recur* and
    /// saturates the capacity around the pool; the default of `0` leaves
    /// the generator's RNG stream untouched.
    pub user_pool: usize,
    /// Seed of the generator's RNG.
    pub seed: u64,
}

impl TraceConfig {
    /// Checks the knobs for values the generator has no well-defined
    /// deterministic trace for, so callers (the CLI in particular) can
    /// reject them at parse time instead of panicking mid-generation:
    ///
    /// * `arrival_rate` must be finite and positive — a rate of `0`
    ///   never produces an arrival, and the event loop would spin
    ///   forever waiting for one.
    /// * `mean_holding` must be finite and positive — a holding time of
    ///   `0` collapses every session into a same-instant
    ///   arrival/departure pair whose ordering is an accident of the
    ///   event-queue tie-break, not a modeled workload.
    /// * `link_down_rate` must be finite and non-negative (`0` disables
    ///   link failures).
    /// * `user_pool` must not be `1` — a single user cannot form a
    ///   demand pair, and the distinct-destination rejection loop would
    ///   never terminate. `0` means "every user" and pools of two or
    ///   more are checked against the actual population by [`generate`].
    ///
    /// [`generate`] enforces the same rules by panicking, so a validated
    /// config never aborts generation for config-shaped reasons.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first offending knob.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.arrival_rate.is_finite() && self.arrival_rate > 0.0) {
            return Err(format!(
                "arrival rate must be finite and positive, got {}",
                self.arrival_rate
            ));
        }
        if !(self.mean_holding.is_finite() && self.mean_holding > 0.0) {
            return Err(format!(
                "mean holding time must be finite and positive, got {}",
                self.mean_holding
            ));
        }
        if !(self.link_down_rate.is_finite() && self.link_down_rate >= 0.0) {
            return Err(format!(
                "link-down rate must be finite and non-negative, got {}",
                self.link_down_rate
            ));
        }
        if self.user_pool == 1 {
            return Err(
                "user pool of 1 cannot form demand pairs (use 0 for all users, or >= 2)"
                    .to_string(),
            );
        }
        Ok(())
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            events: 1_000,
            arrival_rate: 1.0,
            mean_holding: 25.0,
            link_down_rate: 0.0,
            user_pool: 0,
            seed: 0xCAFE,
        }
    }
}

/// One event of a trace. Departures and link-downs refer to earlier
/// arrivals / network edges; the replay layer resolves what (if anything)
/// they affect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A demand arrives and asks to be admitted.
    Arrival {
        /// Index of this arrival (0-based, dense).
        arrival: usize,
        /// Source user.
        source: NodeId,
        /// Destination user.
        dest: NodeId,
    },
    /// The demand admitted at `arrival` ends its session. A no-op at
    /// replay time if that arrival was rejected or already evicted.
    Departure {
        /// Index of the arrival whose session ends.
        arrival: usize,
    },
    /// A transient fiber cut on `edge`.
    LinkDown {
        /// The failed link.
        edge: EdgeId,
    },
}

/// A timestamped trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: f64,
    /// What happens.
    pub kind: TraceEventKind,
}

/// A generated event sequence, in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The events, ascending by [`TraceEvent::at`].
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of arrival events in the trace.
    #[must_use]
    pub fn arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Arrival { .. }))
            .count()
    }
}

/// Samples `Exp(rate)` via inversion. `u < 1` so the argument of `ln` is
/// positive; the result is finite and non-negative.
fn exp_sample<R: RngCore>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

/// Generates a trace of exactly `config.events` events over `net`.
///
/// Arrivals form a Poisson process of rate `arrival_rate` between
/// uniformly random *distinct* user pairs (drawn from the first
/// [`TraceConfig::user_pool`] users when that knob is set); each arrival schedules its own
/// departure an `Exp(1/mean_holding)` holding time later; link-downs form
/// an independent Poisson process of rate `link_down_rate` over uniformly
/// random links. Scheduled departures falling beyond the event budget are
/// simply cut off.
///
/// # Panics
///
/// Panics if the config fails [`TraceConfig::validate`], if the network
/// (restricted to the pool) has fewer than two users, or if
/// `link_down_rate > 0` on an edgeless network.
#[must_use]
pub fn generate(net: &QuantumNetwork, config: &TraceConfig) -> Trace {
    if let Err(reason) = config.validate() {
        panic!("invalid trace config: {reason}");
    }
    let mut users: Vec<NodeId> = net
        .graph()
        .node_ids()
        .filter(|&v| !net.is_switch(v))
        .collect();
    if config.user_pool > 0 {
        users.truncate(config.user_pool);
    }
    assert!(users.len() >= 2, "need at least two users to form demands");
    let holding_rate = 1.0 / config.mean_holding;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut events = Vec::with_capacity(config.events);
    let mut next_arrival = exp_sample(&mut rng, config.arrival_rate);
    let mut next_link_down = if config.link_down_rate > 0.0 {
        exp_sample(&mut rng, config.link_down_rate)
    } else {
        f64::INFINITY
    };
    // Pending departures ordered by time. Holding times are positive and
    // finite, so `f64::to_bits` is order-preserving and gives us a total
    // order without an Ord wrapper.
    let mut departures: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut arrivals = 0usize;

    while events.len() < config.events {
        let t_dep = departures
            .peek()
            .map_or(f64::INFINITY, |Reverse((bits, _))| f64::from_bits(*bits));
        if t_dep <= next_arrival && t_dep <= next_link_down {
            let Reverse((bits, arrival)) = departures.pop().expect("peeked");
            events.push(TraceEvent {
                at: f64::from_bits(bits),
                kind: TraceEventKind::Departure { arrival },
            });
        } else if next_arrival <= next_link_down {
            let at = next_arrival;
            let source = users[rng.gen_range(0..users.len())];
            let dest = loop {
                let d = users[rng.gen_range(0..users.len())];
                if d != source {
                    break d;
                }
            };
            let holding = exp_sample(&mut rng, holding_rate);
            departures.push(Reverse(((at + holding).to_bits(), arrivals)));
            events.push(TraceEvent {
                at,
                kind: TraceEventKind::Arrival {
                    arrival: arrivals,
                    source,
                    dest,
                },
            });
            arrivals += 1;
            next_arrival += exp_sample(&mut rng, config.arrival_rate);
        } else {
            let edge = sample_link_outage(net, &mut rng)
                .expect("link-down rate set on an edgeless network");
            events.push(TraceEvent {
                at: next_link_down,
                kind: TraceEventKind::LinkDown { edge },
            });
            next_link_down += exp_sample(&mut rng, config.link_down_rate);
        }
    }

    Trace { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::NetworkParams;
    use fusion_topology::TopologyConfig;

    fn net() -> QuantumNetwork {
        let topo = TopologyConfig {
            num_switches: 20,
            num_user_pairs: 4,
            avg_degree: 5.0,
            ..TopologyConfig::default()
        }
        .generate(3);
        QuantumNetwork::from_topology(&topo, &NetworkParams::default())
    }

    #[test]
    fn trace_is_deterministic_and_time_ordered() {
        let net = net();
        let config = TraceConfig {
            events: 500,
            link_down_rate: 0.05,
            ..TraceConfig::default()
        };
        let a = generate(&net, &config);
        let b = generate(&net, &config);
        assert_eq!(a, b, "same seed must yield the same trace");
        assert_eq!(a.events.len(), 500);
        for w in a.events.windows(2) {
            assert!(w[0].at <= w[1].at, "events out of order");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let net = net();
        let a = generate(&net, &TraceConfig::default());
        let b = generate(
            &net,
            &TraceConfig {
                seed: 0xBEEF,
                ..TraceConfig::default()
            },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn departures_follow_their_arrivals() {
        let net = net();
        let trace = generate(
            &net,
            &TraceConfig {
                events: 2_000,
                link_down_rate: 0.02,
                ..TraceConfig::default()
            },
        );
        let mut seen_arrivals = vec![false; trace.events.len()];
        let mut departed = vec![false; trace.events.len()];
        let mut kinds = [0usize; 3];
        for e in &trace.events {
            match e.kind {
                TraceEventKind::Arrival {
                    arrival,
                    source,
                    dest,
                } => {
                    assert_ne!(source, dest);
                    seen_arrivals[arrival] = true;
                    kinds[0] += 1;
                }
                TraceEventKind::Departure { arrival } => {
                    assert!(seen_arrivals[arrival], "departure before its arrival");
                    assert!(!departed[arrival], "double departure in trace");
                    departed[arrival] = true;
                    kinds[1] += 1;
                }
                TraceEventKind::LinkDown { .. } => kinds[2] += 1,
            }
        }
        assert!(kinds[0] > 0 && kinds[1] > 0 && kinds[2] > 0, "{kinds:?}");
        assert!(kinds[1] <= kinds[0], "cannot depart more than arrived");
    }

    /// Degenerate knob values are rejected by `validate` with a message
    /// naming the knob — the CLI surfaces these at parse time, before a
    /// network is even built.
    #[test]
    fn validate_rejects_degenerate_knobs() {
        let base = TraceConfig::default();
        assert_eq!(base.validate(), Ok(()));

        let cases: [(TraceConfig, &str); 7] = [
            (
                TraceConfig {
                    arrival_rate: 0.0,
                    ..base
                },
                "arrival rate",
            ),
            (
                TraceConfig {
                    arrival_rate: f64::NAN,
                    ..base
                },
                "arrival rate",
            ),
            (
                TraceConfig {
                    arrival_rate: f64::INFINITY,
                    ..base
                },
                "arrival rate",
            ),
            (
                TraceConfig {
                    mean_holding: 0.0,
                    ..base
                },
                "mean holding",
            ),
            (
                TraceConfig {
                    mean_holding: -3.0,
                    ..base
                },
                "mean holding",
            ),
            (
                TraceConfig {
                    link_down_rate: -0.5,
                    ..base
                },
                "link-down rate",
            ),
            (
                TraceConfig {
                    user_pool: 1,
                    ..base
                },
                "user pool",
            ),
        ];
        for (config, knob) in cases {
            let err = config.validate().expect_err(knob);
            assert!(err.contains(knob), "error {err:?} should name {knob:?}");
        }
    }

    /// `user_pool: 0` means "every user": it is valid, recurring demands
    /// are still possible (same pair drawn twice), and the trace is
    /// deterministic. `user_pool >= 2` restricts to a prefix and yields a
    /// different — still deterministic — trace.
    #[test]
    fn user_pool_zero_means_all_users_and_stays_deterministic() {
        let net = net();
        let all = TraceConfig {
            events: 300,
            user_pool: 0,
            ..TraceConfig::default()
        };
        assert_eq!(all.validate(), Ok(()));
        assert_eq!(generate(&net, &all), generate(&net, &all));

        let pool = TraceConfig {
            user_pool: 2,
            ..all
        };
        assert_eq!(pool.validate(), Ok(()));
        let trace = generate(&net, &pool);
        assert_eq!(trace, generate(&net, &pool));
        // With two users every arrival is the same (unordered) pair.
        let mut pairs: Vec<(NodeId, NodeId)> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Arrival { source, dest, .. } => {
                    Some((source.min(dest), source.max(dest)))
                }
                _ => None,
            })
            .collect();
        pairs.dedup();
        assert_eq!(pairs.len(), 1, "pool of 2 admits exactly one pair");
    }

    #[test]
    #[should_panic(expected = "invalid trace config")]
    fn generate_panics_on_zero_arrival_rate() {
        let net = net();
        let _ = generate(
            &net,
            &TraceConfig {
                arrival_rate: 0.0,
                ..TraceConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "invalid trace config")]
    fn generate_panics_on_zero_holding_time() {
        let net = net();
        let _ = generate(
            &net,
            &TraceConfig {
                mean_holding: 0.0,
                ..TraceConfig::default()
            },
        );
    }
}
