//! Fast per-round outcome sampling for routed demands.
//!
//! Under n-fusion a demanded state is established exactly when its source
//! and destination users are connected in the random subgraph where each
//! routed channel is up (`1-(1-p)^w`) and each participating switch's GHZ
//! fusion succeeded (`q`) — a failed fusion loses every link the switch
//! held for the state (§III-C). Under classic swapping each accepted path
//! is a bundle of pre-committed lanes; the state is established when some
//! lane survives every hop and every intermediate BSM.

use std::collections::HashMap;

use fusion_core::{DemandPlan, QuantumNetwork, SwapMode};
use fusion_graph::{GenerationalDisjointSets, NodeId};
use rand::Rng;

/// Reusable per-demand round sampler for either swapping technology.
///
/// Construction resolves every graph lookup (node indexing, hop → edge,
/// channel success probabilities) once; [`sample`](PlanSampler::sample)
/// then runs allocation-free, so a Monte Carlo loop costs only the RNG
/// draws and a generationally-reset union-find. The sampler snapshots the
/// network's success probabilities at construction time.
///
/// The RNG draw sequence is identical to the historical per-round
/// implementation, so estimates for a fixed seed are unchanged.
#[derive(Debug, Clone)]
pub enum PlanSampler {
    /// n-fusion percolation sampling.
    Flow(FlowSampler),
    /// Classic pre-committed-lane sampling.
    Classic(ClassicSampler),
}

impl PlanSampler {
    /// Builds the sampler matching `mode`.
    #[must_use]
    pub fn new(net: &QuantumNetwork, plan: &DemandPlan, mode: SwapMode) -> Self {
        match mode {
            SwapMode::NFusion => PlanSampler::Flow(FlowSampler::new(net, plan)),
            SwapMode::Classic => PlanSampler::Classic(ClassicSampler::new(net, plan)),
        }
    }

    /// Samples one round; `true` when the demanded state is established.
    pub fn sample(&mut self, rng: &mut impl Rng) -> bool {
        match self {
            PlanSampler::Flow(s) => s.sample(rng),
            PlanSampler::Classic(s) => s.sample(rng),
        }
    }

    /// Fusion draws one round performs: one per participating switch
    /// under n-fusion, zero under classic swapping (BSMs there are
    /// conditional on lane survival, not unconditional per-round draws).
    /// A pure function of the plan, so round-count telemetry derived from
    /// it stays deterministic.
    #[must_use]
    pub fn fusion_draws_per_round(&self) -> u64 {
        match self {
            PlanSampler::Flow(s) => s.fusion_draws_per_round(),
            PlanSampler::Classic(_) => 0,
        }
    }
}

/// Allocation-free n-fusion round sampler (percolation over the flow-like
/// graph, §III-C).
///
/// Per round: one fusion draw per participating switch, one channel draw
/// per flow edge whose endpoints are up, then a source–sink connectivity
/// query on a generationally-reset union-find.
#[derive(Debug, Clone)]
pub struct FlowSampler {
    /// `true` at indices whose flow node is a switch (draws a fusion).
    switch_mask: Vec<bool>,
    /// Resolved flow edges `(ui, vi, channel_success)`; edges without a
    /// backing network hop are dropped at build time (they never drew).
    edges: Vec<(usize, usize, f64)>,
    source: Option<usize>,
    sink: Option<usize>,
    q: f64,
    switch_up: Vec<bool>,
    sets: GenerationalDisjointSets,
}

impl FlowSampler {
    /// Resolves `plan.flow` against `net` once.
    #[must_use]
    pub fn new(net: &QuantumNetwork, plan: &DemandPlan) -> Self {
        let flow = &plan.flow;
        let nodes = flow.nodes();
        let index: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let switch_mask: Vec<bool> = nodes.iter().map(|&n| net.is_switch(n)).collect();
        let edges = flow
            .edges()
            .filter_map(|(u, v, w)| {
                let (edge, _) = net.hop(u, v)?;
                Some((index[&u], index[&v], net.channel_success(edge, w)))
            })
            .collect();
        FlowSampler {
            switch_up: vec![false; switch_mask.len()],
            sets: GenerationalDisjointSets::new(switch_mask.len()),
            switch_mask,
            edges,
            source: index.get(&flow.source()).copied(),
            sink: index.get(&flow.sink()).copied(),
            q: net.swap_success(),
        }
    }

    /// Fusion draws per round: one per switch in the flow.
    #[must_use]
    pub fn fusion_draws_per_round(&self) -> u64 {
        self.switch_mask.iter().filter(|&&s| s).count() as u64
    }

    /// Samples one percolation round.
    pub fn sample(&mut self, rng: &mut impl Rng) -> bool {
        let n = self.switch_mask.len();
        if n == 0 {
            return false;
        }
        // Sample switch fusions once per state per switch.
        for (up, &is_switch) in self.switch_up.iter_mut().zip(&self.switch_mask) {
            *up = !is_switch || rng.gen_bool(self.q);
        }
        self.sets.reset(n);
        for &(ui, vi, p) in &self.edges {
            if !self.switch_up[ui] || !self.switch_up[vi] {
                continue;
            }
            if rng.gen_bool(p) {
                self.sets.union(ui, vi);
            }
        }
        let (Some(s), Some(d)) = (self.source, self.sink) else {
            return false;
        };
        self.sets.same_set(s, d)
    }
}

/// Allocation-free classic-swapping round sampler: each accepted path is a
/// single pre-committed lane — one link per hop, one BSM per intermediate
/// switch (the paper's classic model, see `fusion_core::metrics::classic`).
#[derive(Debug, Clone)]
pub struct ClassicSampler {
    /// Per routed path with all hops resolvable: the per-hop link success
    /// probabilities.
    lanes: Vec<Vec<f64>>,
    q: f64,
}

impl ClassicSampler {
    /// Resolves `plan.paths` against `net` once. Paths with a missing hop
    /// are dropped (they can never carry the state and never drew).
    #[must_use]
    pub fn new(net: &QuantumNetwork, plan: &DemandPlan) -> Self {
        let lanes = plan
            .paths
            .iter()
            .filter_map(|wp| {
                wp.hops()
                    .map(|(u, v, _)| net.hop(u, v).map(|(_, p)| p))
                    .collect::<Option<Vec<f64>>>()
            })
            .collect();
        ClassicSampler {
            lanes,
            q: net.swap_success(),
        }
    }

    /// Samples one round: the first lane that survives every hop and every
    /// intermediate BSM establishes the state.
    pub fn sample(&mut self, rng: &mut impl Rng) -> bool {
        'lane: for lane in &self.lanes {
            // The lane's link on every hop must herald successfully.
            for &p in lane {
                if !rng.gen_bool(p) {
                    continue 'lane;
                }
            }
            // Every intermediate BSM must succeed.
            for _ in 0..lane.len().saturating_sub(1) {
                if !rng.gen_bool(self.q) {
                    continue 'lane;
                }
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::{metrics, Demand, DemandId, WidthedPath};
    use fusion_graph::Path;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_plan(p: f64, q: f64, width: u32) -> (QuantumNetwork, DemandPlan) {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let v1 = b.switch(1.0, 0.0, 100);
        let v2 = b.switch(2.0, 0.0, 100);
        let d = b.user(3.0, 0.0);
        b.link(s, v1).unwrap();
        b.link(v1, v2).unwrap();
        b.link(v2, d).unwrap();
        let mut net = b.build();
        net.set_uniform_link_success(Some(p));
        net.set_swap_success(q);
        let demand = Demand::new(DemandId::new(0), s, d);
        let mut plan = DemandPlan::empty(demand);
        let path = Path::new(vec![s, v1, v2, d]);
        plan.flow.add_path(&path, width);
        plan.paths.push(WidthedPath::uniform(path, width));
        (net, plan)
    }

    fn estimate(
        net: &QuantumNetwork,
        plan: &DemandPlan,
        mode: SwapMode,
        rounds: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = PlanSampler::new(net, plan, mode);
        let hits = (0..rounds).filter(|_| sampler.sample(&mut rng)).count();
        hits as f64 / rounds as f64
    }

    #[test]
    fn nfusion_sampling_matches_eq1_on_paths() {
        let (net, plan) = chain_plan(0.5, 0.8, 2);
        let analytic = metrics::flow_rate(&net, &plan.flow).value();
        let measured = estimate(&net, &plan, SwapMode::NFusion, 40_000, 7);
        assert!(
            (measured - analytic).abs() < 0.01,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn nfusion_sampling_matches_eq1_on_branching_flow() {
        // Two disjoint branches: series-parallel, Eq. 1 is exact.
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let v1 = b.switch(1.0, 1.0, 100);
        let v2 = b.switch(1.0, -1.0, 100);
        let d = b.user(2.0, 0.0);
        for (u, v) in [(s, v1), (v1, d), (s, v2), (v2, d)] {
            b.link(u, v).unwrap();
        }
        let mut net = b.build();
        net.set_uniform_link_success(Some(0.4));
        net.set_swap_success(0.7);
        let demand = Demand::new(DemandId::new(0), s, d);
        let mut plan = DemandPlan::empty(demand);
        plan.flow.add_path(&Path::new(vec![s, v1, d]), 1);
        plan.flow.add_path(&Path::new(vec![s, v2, d]), 2);
        plan.paths
            .push(WidthedPath::uniform(Path::new(vec![s, v1, d]), 1));

        let analytic = metrics::flow_rate(&net, &plan.flow).value();
        let measured = estimate(&net, &plan, SwapMode::NFusion, 40_000, 11);
        assert!(
            (measured - analytic).abs() < 0.01,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn classic_sampling_matches_single_lane_formula() {
        let (net, plan) = chain_plan(0.5, 0.8, 2);
        let analytic = plan.rate(&net, SwapMode::Classic);
        let measured = estimate(&net, &plan, SwapMode::Classic, 40_000, 13);
        assert!(
            (measured - analytic).abs() < 0.01,
            "measured {measured} vs analytic {analytic}"
        );
    }

    /// Verbatim copy of the pre-sampler n-fusion round: rebuilds the
    /// index map and union-find from scratch every round. Kept as the
    /// reference the reusable sampler must match draw-for-draw.
    fn naive_flow_round(net: &QuantumNetwork, plan: &DemandPlan, rng: &mut impl rand::Rng) -> bool {
        use fusion_graph::DisjointSets;
        let flow = &plan.flow;
        if flow.is_empty() {
            return false;
        }
        let nodes = flow.nodes();
        let index: std::collections::HashMap<fusion_graph::NodeId, usize> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let q = net.swap_success();
        let switch_up: Vec<bool> = nodes
            .iter()
            .map(|&n| !net.is_switch(n) || rng.gen_bool(q))
            .collect();
        let mut sets = DisjointSets::new(nodes.len());
        for (u, v, w) in flow.edges() {
            let Some((edge, _)) = net.hop(u, v) else {
                continue;
            };
            let (ui, vi) = (index[&u], index[&v]);
            if !switch_up[ui] || !switch_up[vi] {
                continue;
            }
            if rng.gen_bool(net.channel_success(edge, w)) {
                sets.union(ui, vi);
            }
        }
        let (Some(&s), Some(&d)) = (index.get(&flow.source()), index.get(&flow.sink())) else {
            return false;
        };
        sets.same_set(s, d)
    }

    #[test]
    fn reused_sampler_matches_from_scratch_rebuild() {
        // Across many rounds, one reused sampler (generational union-find
        // reset) must produce the exact outcome sequence of a sampler
        // rebuilt from scratch each round, and of the historical
        // implementation — same seed, draw-for-draw.
        for (p, q, seed) in [(0.5, 0.8, 7u64), (0.2, 0.5, 11), (0.9, 0.95, 13)] {
            let (net, plan) = chain_plan(p, q, 2);
            let mut reused = FlowSampler::new(&net, &plan);
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let mut rng_c = StdRng::seed_from_u64(seed);
            for round in 0..500 {
                let a = reused.sample(&mut rng_a);
                let b = FlowSampler::new(&net, &plan).sample(&mut rng_b);
                let c = naive_flow_round(&net, &plan, &mut rng_c);
                assert_eq!(a, b, "round {round}: reuse diverged from rebuild");
                assert_eq!(a, c, "round {round}: sampler diverged from naive");
            }
        }
    }

    #[test]
    fn reused_sampler_matches_rebuild_under_edge_failures() {
        // Randomized link-decay rounds: degrade the network, rebuild a
        // fresh sampler on the degraded instance, and check the reused
        // sampler built on the same degraded instance agrees.
        use crate::failure::FailureModel;
        let (net, plan) = chain_plan(0.7, 0.9, 2);
        for round in 0..20u64 {
            let model = FailureModel {
                switch_outage: 0.0,
                link_decay: 0.05 * (round % 10) as f64,
            };
            let degraded = model.degrade(&net);
            let mut reused = FlowSampler::new(&degraded, &plan);
            let mut rng_a = StdRng::seed_from_u64(round);
            let mut rng_b = StdRng::seed_from_u64(round);
            for _ in 0..200 {
                let a = reused.sample(&mut rng_a);
                let b = FlowSampler::new(&degraded, &plan).sample(&mut rng_b);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn classic_sampler_reuse_matches_rebuild() {
        let (net, plan) = chain_plan(0.6, 0.8, 2);
        let mut reused = ClassicSampler::new(&net, &plan);
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        for _ in 0..500 {
            assert_eq!(
                reused.sample(&mut rng_a),
                ClassicSampler::new(&net, &plan).sample(&mut rng_b)
            );
        }
    }

    #[test]
    fn empty_plans_never_succeed() {
        let (net, mut plan) = chain_plan(0.9, 0.9, 1);
        plan.paths.clear();
        plan.flow = fusion_core::FlowGraph::new(plan.demand.source, plan.demand.dest);
        let mut rng = StdRng::seed_from_u64(1);
        for mode in [SwapMode::NFusion, SwapMode::Classic] {
            assert!(!PlanSampler::new(&net, &plan, mode).sample(&mut rng));
        }
    }

    #[test]
    fn perfect_network_always_succeeds() {
        let (net, plan) = {
            let (mut net, plan) = chain_plan(1.0, 1.0, 1);
            net.set_uniform_link_success(Some(1.0));
            (net, plan)
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            for mode in [SwapMode::NFusion, SwapMode::Classic] {
                assert!(PlanSampler::new(&net, &plan, mode).sample(&mut rng));
            }
        }
    }
}
