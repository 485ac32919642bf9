//! Extension: time-slotted network operation.
//!
//! The paper routes one synchronized attempt (§III-B); a real network runs
//! attempt rounds back to back while demands arrive and depart. This
//! module simulates that timeline: demands arrive at configured rounds,
//! the central controller re-routes the active set whenever it changes
//! (Phase I), every round executes one synchronized attempt per active
//! demand (Phases II-III), and established demands depart. The output is
//! the latency distribution — the quantity studied by the waiting-time
//! line of work the paper cites (Shchukin et al. \[14\]) — plus backlog and
//! throughput traces.

use fusion_core::algorithms::{route, RoutingConfig};
use fusion_core::{Demand, DemandId, QuantumNetwork};
use fusion_graph::NodeId;
use fusion_telemetry::Registry;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::connectivity::sample_round;

/// One demand template with its arrival round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Round index at which the demand enters the queue.
    pub round: usize,
    /// Source user.
    pub source: NodeId,
    /// Destination user.
    pub dest: NodeId,
}

/// Configuration of a timeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineConfig {
    /// Number of synchronized rounds to simulate.
    pub rounds: usize,
    /// Routing knobs used at every (re-)planning step.
    pub routing: RoutingConfig,
    /// Give up on a demand after this many attempt rounds (it departs
    /// unserved); `None` keeps retrying until the horizon.
    pub max_attempts: Option<usize>,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            rounds: 100,
            routing: RoutingConfig::n_fusion(),
            max_attempts: None,
        }
    }
}

/// Outcome for one demand over the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DemandOutcome {
    /// Arrival round.
    pub arrived: usize,
    /// Round at which the state was established, if it was.
    pub served: Option<usize>,
    /// Attempt rounds consumed.
    pub attempts: usize,
}

impl DemandOutcome {
    /// Rounds from arrival to establishment (inclusive of the serving
    /// round); `None` if never served.
    #[must_use]
    pub fn latency(&self) -> Option<usize> {
        self.served.map(|s| s - self.arrived + 1)
    }
}

/// Aggregated result of a timeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineReport {
    /// Per-demand outcomes, in arrival order.
    pub outcomes: Vec<DemandOutcome>,
    /// Number of active demands at the start of every round.
    pub backlog: Vec<usize>,
    /// Times the controller had to re-plan (active set changed).
    pub replans: usize,
}

impl TimelineReport {
    /// Demands served within the horizon.
    #[must_use]
    pub fn served(&self) -> usize {
        self.outcomes.iter().filter(|o| o.served.is_some()).count()
    }

    /// Mean latency over served demands; `None` if nothing was served.
    #[must_use]
    pub fn mean_latency(&self) -> Option<f64> {
        let latencies: Vec<usize> = self
            .outcomes
            .iter()
            .filter_map(DemandOutcome::latency)
            .collect();
        if latencies.is_empty() {
            return None;
        }
        Some(latencies.iter().sum::<usize>() as f64 / latencies.len() as f64)
    }

    /// Served states per simulated round.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.backlog.is_empty() {
            return 0.0;
        }
        self.served() as f64 / self.backlog.len() as f64
    }
}

/// Runs the time-slotted simulation.
///
/// # Panics
///
/// Panics if `config.rounds == 0`.
pub fn run_timeline(
    net: &QuantumNetwork,
    arrivals: &[Arrival],
    config: &TimelineConfig,
    rng: &mut impl Rng,
) -> TimelineReport {
    assert!(config.rounds > 0, "timeline needs at least one round");
    let mut outcomes: Vec<DemandOutcome> = arrivals
        .iter()
        .map(|a| DemandOutcome {
            arrived: a.round,
            served: None,
            attempts: 0,
        })
        .collect();
    let mut active: Vec<usize> = Vec::new(); // indices into arrivals
    let mut backlog = Vec::with_capacity(config.rounds);
    let mut replans = 0usize;
    let mut plan = None;

    for round in 0..config.rounds {
        // Admit arrivals scheduled for this round.
        let mut changed = false;
        for (i, a) in arrivals.iter().enumerate() {
            if a.round == round {
                active.push(i);
                changed = true;
            }
        }
        backlog.push(active.len());
        if active.is_empty() {
            continue;
        }
        // Phase I: (re-)plan when the active set changed.
        if changed || plan.is_none() {
            let demands: Vec<Demand> = active
                .iter()
                .enumerate()
                .map(|(slot, &i)| {
                    Demand::new(DemandId::new(slot), arrivals[i].source, arrivals[i].dest)
                })
                .collect();
            let (caps, telemetry) = (net.capacities(), Registry::disabled());
            let routed = route(net, &demands, &config.routing, &caps, 1, &telemetry);
            plan = Some((routed.plan, active.clone()));
            replans += 1;
        }
        let (current_plan, plan_members) = plan.as_ref().expect("planned above");

        // Phases II-III: one synchronized attempt per active demand.
        let mut departed = Vec::new();
        for (slot, &i) in plan_members.iter().enumerate() {
            if !active.contains(&i) {
                continue; // departed since planning
            }
            let outcome = &mut outcomes[i];
            outcome.attempts += 1;
            if sample_round(net, &current_plan.plans[slot], current_plan.mode, rng) {
                outcome.served = Some(round);
                departed.push(i);
            } else if config
                .max_attempts
                .is_some_and(|cap| outcome.attempts >= cap)
            {
                departed.push(i);
            }
        }
        if !departed.is_empty() {
            active.retain(|i| !departed.contains(i));
            plan = None; // capacity freed: re-plan next round
        }
    }
    TimelineReport {
        outcomes,
        backlog,
        replans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::NetworkParams;
    use fusion_topology::TopologyConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world(seed: u64) -> (QuantumNetwork, Vec<(NodeId, NodeId)>) {
        let topo = TopologyConfig {
            num_switches: 25,
            num_user_pairs: 5,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(seed);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        (net, topo.demands.clone())
    }

    fn batch_arrivals(pairs: &[(NodeId, NodeId)], round: usize) -> Vec<Arrival> {
        pairs
            .iter()
            .map(|&(source, dest)| Arrival {
                round,
                source,
                dest,
            })
            .collect()
    }

    #[test]
    fn serves_everything_given_time() {
        let (net, pairs) = world(1);
        let arrivals = batch_arrivals(&pairs, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let report = run_timeline(&net, &arrivals, &TimelineConfig::default(), &mut rng);
        // With 100 rounds and per-round success well above 0.1, all five
        // demands are served with overwhelming probability.
        assert_eq!(report.served(), 5, "outcomes: {:?}", report.outcomes);
        let mean = report.mean_latency().expect("served demands");
        assert!(mean >= 1.0);
        // Backlog starts at 5 and must reach 0.
        assert_eq!(report.backlog[0], 5);
        assert_eq!(*report.backlog.last().unwrap(), 0);
    }

    #[test]
    fn latency_counts_from_arrival() {
        let (net, pairs) = world(2);
        let arrivals = vec![Arrival {
            round: 10,
            source: pairs[0].0,
            dest: pairs[0].1,
        }];
        let mut rng = StdRng::seed_from_u64(3);
        let report = run_timeline(&net, &arrivals, &TimelineConfig::default(), &mut rng);
        let outcome = report.outcomes[0];
        if let Some(served) = outcome.served {
            assert!(served >= 10);
            assert_eq!(outcome.latency().unwrap(), served - 10 + 1);
            assert_eq!(outcome.attempts, outcome.latency().unwrap());
        }
    }

    #[test]
    fn max_attempts_bounds_retries() {
        let (mut net, pairs) = world(3);
        net.set_uniform_link_success(Some(0.01)); // nearly hopeless
        let arrivals = batch_arrivals(&pairs[..2], 0);
        let mut rng = StdRng::seed_from_u64(5);
        let config = TimelineConfig {
            max_attempts: Some(3),
            ..TimelineConfig::default()
        };
        let report = run_timeline(&net, &arrivals, &config, &mut rng);
        for o in &report.outcomes {
            assert!(o.attempts <= 3);
        }
        // Departed-unserved demands free the backlog.
        assert_eq!(*report.backlog.last().unwrap(), 0);
    }

    #[test]
    fn staggered_arrivals_trigger_replanning() {
        let (net, pairs) = world(4);
        let mut arrivals = batch_arrivals(&pairs[..2], 0);
        arrivals.extend(batch_arrivals(&pairs[2..4], 5));
        let mut rng = StdRng::seed_from_u64(9);
        let report = run_timeline(&net, &arrivals, &TimelineConfig::default(), &mut rng);
        assert!(report.replans >= 2, "two arrival waves need two plans");
    }

    #[test]
    fn higher_link_quality_means_lower_latency() {
        let (mut net, pairs) = world(6);
        let arrivals = batch_arrivals(&pairs, 0);
        let latency_at = |net: &QuantumNetwork, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            run_timeline(net, &arrivals, &TimelineConfig::default(), &mut rng)
                .mean_latency()
                .unwrap_or(f64::INFINITY)
        };
        net.set_uniform_link_success(Some(0.9));
        let fast: f64 = (0..5).map(|s| latency_at(&net, s)).sum::<f64>() / 5.0;
        net.set_uniform_link_success(Some(0.25));
        let slow: f64 = (0..5).map(|s| latency_at(&net, s)).sum::<f64>() / 5.0;
        assert!(
            fast < slow,
            "latency must fall with link quality: {fast} vs {slow}"
        );
    }
}
