//! Plan-level Monte Carlo rate estimation.
//!
//! Demands own disjoint qubits once routed, so their round outcomes are
//! independent: the network entanglement rate is estimated per demand and
//! summed. With more than one thread, rounds are sharded across threads
//! with independent seeded RNGs, keeping results reproducible for a fixed
//! `(seed, threads)` pair.

use fusion_core::{DemandPlan, NetworkPlan, QuantumNetwork, SwapMode};
use fusion_telemetry::{Counter, Registry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::connectivity::PlanSampler;
use crate::stats::RateEstimate;

/// Counter handles for the Monte Carlo layer. Default handles are
/// no-ops; wire real ones with [`McCounters::from_registry`]. Both
/// counts are pure functions of `(plan, rounds)` — fusion draws per
/// round are fixed by the plan — so they are deterministic and
/// independent of how rounds are sharded over threads.
#[derive(Debug, Clone, Default)]
pub struct McCounters {
    /// Monte Carlo rounds simulated (per demand plan).
    pub rounds: Counter,
    /// Fusion draws performed across those rounds.
    pub fusion_attempts: Counter,
}

impl McCounters {
    /// Creates handles named `mc.rounds` and `mc.fusion_attempts` in
    /// `registry`.
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return McCounters::default();
        }
        McCounters {
            rounds: registry.counter("mc.rounds"),
            fusion_attempts: registry.counter("mc.fusion_attempts"),
        }
    }

    /// Records `rounds` rounds of `sampler`.
    fn record(&self, sampler: &PlanSampler, rounds: usize) {
        self.rounds.add(rounds as u64);
        self.fusion_attempts
            .add(rounds as u64 * sampler.fusion_draws_per_round());
    }
}

/// Monte Carlo estimate of a routed network's entanglement rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanEstimate {
    /// Per-demand success-probability estimates, in demand order.
    pub per_demand: Vec<RateEstimate>,
    /// Number of rounds simulated.
    pub rounds: usize,
}

impl PlanEstimate {
    /// The estimated network entanglement rate (sum of demand means).
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        self.per_demand.iter().map(|e| e.mean).sum()
    }

    /// Standard error of the total rate (demands are independent).
    #[must_use]
    pub fn total_stderr(&self) -> f64 {
        self.per_demand
            .iter()
            .map(|e| e.stderr * e.stderr)
            .sum::<f64>()
            .sqrt()
    }
}

/// Estimates one demand plan's success probability over `rounds` Monte
/// Carlo rounds — the service layer's per-admission check: an online
/// engine evaluates each arrival's plan individually rather than
/// re-simulating the whole plan set.
///
/// Seeding is per call: the same `(plan, seed, rounds)` triple always
/// reproduces the same estimate, independent of what else was admitted.
/// The counts are recorded into `counters` in bulk after the simulation
/// loop, so instrumentation adds no per-round cost; pass
/// `McCounters::default()` to record nothing.
///
/// # Panics
///
/// Panics if `rounds == 0`.
#[must_use]
pub fn estimate_demand_plan(
    net: &QuantumNetwork,
    plan: &DemandPlan,
    mode: SwapMode,
    rounds: usize,
    seed: u64,
    counters: &McCounters,
) -> RateEstimate {
    assert!(rounds > 0, "need at least one round");
    let mut sampler = PlanSampler::new(net, plan, mode);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for _ in 0..rounds {
        if sampler.sample(&mut rng) {
            hits += 1;
        }
    }
    counters.record(&sampler, rounds);
    RateEstimate::from_successes(hits, rounds)
}

/// Estimates the plan's entanglement rate over `rounds` Monte Carlo
/// rounds, recording into `counters` (`McCounters::default()` records
/// nothing).
///
/// With `threads == 1`, demand `i` runs [`estimate_demand_plan`] on its
/// own stream seeded `seed + i`. With more threads, every demand's
/// rounds are split over `threads` workers with derived seeds, and the
/// round count is rounded up to a multiple of `threads` (what
/// [`PlanEstimate::rounds`] reports). Counts are recorded per demand
/// from the calling thread with that effective round count, so
/// snapshots match the serial run whenever `threads` divides `rounds`
/// and never depend on worker scheduling.
///
/// # Panics
///
/// Panics if `rounds == 0` or `threads == 0`.
#[must_use]
pub fn estimate_plan(
    net: &QuantumNetwork,
    plan: &NetworkPlan,
    rounds: usize,
    seed: u64,
    threads: usize,
    counters: &McCounters,
) -> PlanEstimate {
    assert!(rounds > 0, "need at least one round");
    assert!(threads > 0, "need at least one thread");
    if threads == 1 {
        let per_demand = plan
            .plans
            .iter()
            .enumerate()
            .map(|(i, dp)| {
                let seed = seed.wrapping_add(i as u64);
                estimate_demand_plan(net, dp, plan.mode, rounds, seed, counters)
            })
            .collect();
        return PlanEstimate { per_demand, rounds };
    }

    let per_thread = rounds.div_ceil(threads);
    let total_rounds = per_thread * threads;
    for dp in &plan.plans {
        counters.record(&PlanSampler::new(net, dp, plan.mode), total_rounds);
    }
    let hits: Vec<Mutex<usize>> = plan.plans.iter().map(|_| Mutex::new(0usize)).collect();

    crossbeam::scope(|scope| {
        for t in 0..threads {
            let hits = &hits;
            let plan = &plan;
            let net = &net;
            scope.spawn(move |_| {
                for (i, dp) in plan.plans.iter().enumerate() {
                    let mut sampler = PlanSampler::new(net, dp, plan.mode);
                    let mut rng = StdRng::seed_from_u64(
                        seed.wrapping_add((t * plan.plans.len() + i) as u64 ^ 0x9e37_79b9),
                    );
                    let mut local = 0usize;
                    for _ in 0..per_thread {
                        if sampler.sample(&mut rng) {
                            local += 1;
                        }
                    }
                    *hits[i].lock() += local;
                }
            });
        }
    })
    .expect("simulation workers must not panic");

    let per_demand = hits
        .into_iter()
        .map(|h| RateEstimate::from_successes(h.into_inner(), total_rounds))
        .collect();
    PlanEstimate {
        per_demand,
        rounds: total_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::algorithms::alg_n_fusion;
    use fusion_core::{Demand, NetworkParams};
    use fusion_topology::TopologyConfig;

    fn routed_world() -> (QuantumNetwork, NetworkPlan) {
        let topo = TopologyConfig {
            num_switches: 25,
            num_user_pairs: 4,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(21);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        let plan = alg_n_fusion(&net, &demands);
        (net, plan)
    }

    #[test]
    fn monte_carlo_agrees_with_analytic() {
        let (net, plan) = routed_world();
        let est = estimate_plan(&net, &plan, 8_000, 3, 1, &McCounters::default());
        let analytic = plan.total_rate(&net);
        // Eq. 1 is exact on series-parallel flows and optimistic on
        // reconvergent ones, so simulation may only undershoot — and by a
        // bounded amount per demand.
        assert!(
            est.total_rate() <= analytic + 4.0 * est.total_stderr(),
            "simulation exceeded the analytic bound: {} vs {analytic}",
            est.total_rate()
        );
        let max_gap = 0.12 * plan.plans.len() as f64 + 4.0 * est.total_stderr();
        assert!(
            analytic - est.total_rate() < max_gap,
            "Eq. 1 optimism too large: simulated {} vs analytic {analytic}",
            est.total_rate()
        );
    }

    #[test]
    fn parallel_matches_serial_statistics() {
        let (net, plan) = routed_world();
        let counted = |threads: usize| {
            let registry = Registry::enabled();
            let mc = McCounters::from_registry(&registry);
            let est = estimate_plan(&net, &plan, 4_000, 9, threads, &mc);
            (est, registry.snapshot())
        };
        let (serial, serial_counts) = counted(1);
        let (parallel, parallel_counts) = counted(4);
        assert!(
            (serial.total_rate() - parallel.total_rate()).abs()
                < 4.0 * (serial.total_stderr() + parallel.total_stderr()) + 0.05,
            "serial {} vs parallel {}",
            serial.total_rate(),
            parallel.total_rate()
        );
        assert_eq!(parallel.rounds, 4_000);
        // 4 divides 4_000, so the sharded run counts the same work.
        assert_eq!(parallel_counts, serial_counts);
    }

    #[test]
    fn parallel_is_deterministic_per_seed_and_threads() {
        let (net, plan) = routed_world();
        for threads in [1, 3] {
            let a = estimate_plan(&net, &plan, 2_000, 5, threads, &McCounters::default());
            let b = estimate_plan(&net, &plan, 2_000, 5, threads, &McCounters::default());
            assert_eq!(a.total_rate(), b.total_rate(), "threads={threads}");
        }
        // One thread keeps the per-demand serial streams.
        let serial = estimate_plan(&net, &plan, 2_000, 5, 1, &McCounters::default());
        for (i, dp) in plan.plans.iter().enumerate() {
            let mc = McCounters::default();
            let alone = estimate_demand_plan(&net, dp, plan.mode, 2_000, 5 + i as u64, &mc);
            assert_eq!(serial.per_demand[i].mean, alone.mean, "demand {i}");
        }
    }

    #[test]
    fn estimates_are_probabilities() {
        let (net, plan) = routed_world();
        let est = estimate_plan(&net, &plan, 500, 1, 1, &McCounters::default());
        for d in &est.per_demand {
            assert!((0.0..=1.0).contains(&d.mean));
        }
        assert!(est.total_rate() <= plan.plans.len() as f64);
    }
}
