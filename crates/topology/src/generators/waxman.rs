use fusion_graph::{NodeId, UnGraph};
use rand::Rng;

use super::place_switches;
use crate::config::TopologyConfig;
use crate::geometry::{widen_square, Position};
use crate::model::{Link, Site};

/// Generates the switch layer with the Waxman model \[31\].
///
/// Pairs closer than the configured maximum edge length are connected with
/// probability `β·exp(-d / (alpha·L_max))`. The scale `β` is calibrated
/// analytically so the expected number of edges matches the target average
/// degree, which is how the paper controls degree while keeping Waxman's
/// distance bias.
pub(crate) fn waxman(cfg: &TopologyConfig, alpha: f64, rng: &mut impl Rng) -> UnGraph<Site, Link> {
    assert!(alpha > 0.0, "waxman alpha must be positive");
    let n = cfg.num_switches;
    let mut graph = place_switches(n, cfg.side, rng);
    let positions: Vec<Position> = graph.node_weights().map(|s| s.position).collect();
    let d_cap = cfg.max_edge_length();

    // Pass 1: sum the locality weights of candidate pairs. Recomputing
    // distances in pass 2 instead of storing every candidate keeps memory
    // O(n) — at 10k switches the candidate list would hold millions of
    // pairs. The RNG is only consumed in pass 2, in the same pair order as
    // the original single-pass formulation, so generated topologies are
    // unchanged for a fixed seed.
    let mut weight_sum = 0.0;
    for_each_candidate(&positions, d_cap, |_, _, d| {
        weight_sum += (-d / (alpha * d_cap)).exp();
    });

    let target_edges = cfg.avg_degree * n as f64 / 2.0;
    let beta = if weight_sum > 0.0 {
        target_edges / weight_sum
    } else {
        0.0
    };
    // Pass 2: sample each candidate pair.
    for_each_candidate(&positions, d_cap, |u, v, d| {
        let w = (-d / (alpha * d_cap)).exp();
        let p = (beta * w).min(1.0);
        if rng.gen_bool(p) {
            graph.add_edge(NodeId::new(u), NodeId::new(v), Link::new(d));
        }
    });
    graph
}

/// Calls `visit(u, v, d)` for every pair `u < v` of `positions`, in
/// `(u, v)` order, whose distance `d` is at most `d_cap`.
///
/// A pair whose squared distance lies past [`widen_square`] of `d_cap²`
/// is provably longer than `d_cap`, so it is skipped before its `hypot`.
/// Every other pair takes the `d <= d_cap` test on its
/// [`Position::distance`], so the candidates, their lengths and their
/// order are exactly a full scan's.
fn for_each_candidate(
    positions: &[Position],
    d_cap: f64,
    mut visit: impl FnMut(usize, usize, f64),
) {
    let cut = widen_square(d_cap * d_cap);
    for (u, &a) in positions.iter().enumerate() {
        for (v, &b) in positions.iter().enumerate().skip(u + 1) {
            if a.distance_squared(b) > cut {
                continue;
            }
            let d = a.distance(b);
            if d <= d_cap {
                visit(u, v, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(n: usize, degree: f64) -> TopologyConfig {
        TopologyConfig {
            num_switches: n,
            avg_degree: degree,
            ..TopologyConfig::default()
        }
    }

    /// The reference: every pair measured, in `(u, v)` order.
    fn full_scan(positions: &[Position], d_cap: f64) -> Vec<(usize, usize, f64)> {
        let mut pairs = Vec::new();
        for u in 0..positions.len() {
            for v in (u + 1)..positions.len() {
                let d = positions[u].distance(positions[v]);
                if d <= d_cap {
                    pairs.push((u, v, d));
                }
            }
        }
        pairs
    }

    fn candidates(positions: &[Position], d_cap: f64) -> Vec<(usize, usize, f64)> {
        let mut pairs = Vec::new();
        for_each_candidate(positions, d_cap, |u, v, d| pairs.push((u, v, d)));
        pairs
    }

    #[test]
    fn a_pair_at_exactly_the_cap_is_kept_and_one_ulp_past_is_not() {
        let d_cap = 4743.416490252569;
        let positions = [
            Position::new(0.0, 0.0),
            Position::new(d_cap, 0.0),
            Position::new(0.0, -d_cap.next_up()),
        ];
        assert_eq!(candidates(&positions, d_cap), [(0, 1, d_cap)]);
        assert_eq!(
            candidates(&positions, d_cap.next_up()),
            [(0, 1, d_cap), (0, 2, d_cap.next_up())]
        );
    }

    #[test]
    fn a_pair_at_the_cap_whose_square_rounds_past_the_capped_square_is_kept() {
        // Found by search: this pair's `hypot` is exactly the cap, but its
        // squared length rounds above `d_cap * d_cap`. A prefilter at the
        // bare capped square would skip it.
        let (a, b) = (Position::new(0.0, 0.0), Position::new(243.875, 776.375));
        let d_cap = a.distance(b);
        assert!(a.distance_squared(b) > d_cap * d_cap);
        assert_eq!(candidates(&[a, b], d_cap), [(0, 1, d_cap)]);
    }

    #[test]
    fn candidates_match_a_full_scan() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0, 1, 2, 9, 60] {
            let positions: Vec<Position> =
                (0..n).map(|_| Position::sample(&mut rng, 100.0)).collect();
            for d_cap in [0.0, 3.0, 25.0, 70.0, 200.0] {
                assert_eq!(
                    candidates(&positions, d_cap),
                    full_scan(&positions, d_cap),
                    "n = {n}, d_cap = {d_cap}"
                );
            }
        }
    }

    #[test]
    fn hits_target_degree_approximately() {
        let c = cfg(100, 10.0);
        let mut total = 0.0;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = waxman(&c, 0.4, &mut rng);
            total += g.average_degree();
        }
        let avg = total / 5.0;
        assert!(
            (avg - 10.0).abs() < 2.0,
            "average degree {avg} too far from target 10"
        );
    }

    #[test]
    fn respects_edge_length_cap() {
        let c = cfg(80, 8.0);
        let mut rng = StdRng::seed_from_u64(2);
        let g = waxman(&c, 0.4, &mut rng);
        let cap = c.max_edge_length();
        for e in g.edges() {
            assert!(e.weight.length <= cap + 1e-9);
        }
    }

    #[test]
    fn edge_lengths_match_positions() {
        let c = cfg(40, 6.0);
        let mut rng = StdRng::seed_from_u64(3);
        let g = waxman(&c, 0.4, &mut rng);
        for e in g.edges() {
            let d = g
                .node(e.source)
                .position
                .distance(g.node(e.target).position);
            assert!((d - e.weight.length).abs() < 1e-9);
        }
    }

    #[test]
    fn all_nodes_are_switches() {
        let c = cfg(30, 6.0);
        let mut rng = StdRng::seed_from_u64(4);
        let g = waxman(&c, 0.4, &mut rng);
        assert_eq!(g.node_count(), 30);
        assert!(g.node_weights().all(|s| !s.is_user()));
    }

    #[test]
    fn higher_alpha_means_longer_edges() {
        // Larger alpha weakens the distance penalty, so mean edge length
        // should grow (averaged over seeds).
        let c = cfg(80, 8.0);
        let mean_len = |alpha: f64| {
            let mut total = 0.0;
            let mut count = 0usize;
            for seed in 0..5 {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = waxman(&c, alpha, &mut rng);
                total += g.edges().map(|e| e.weight.length).sum::<f64>();
                count += g.edge_count();
            }
            total / count as f64
        };
        assert!(mean_len(2.0) > mean_len(0.1));
    }
}
