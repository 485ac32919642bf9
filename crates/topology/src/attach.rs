use fusion_graph::{NodeId, UnGraph};
use rand::Rng;

use crate::config::TopologyConfig;
use crate::geometry::{widen_square, Position};
use crate::model::{Link, Role, Site};

/// Places `2 · num_user_pairs` quantum-users uniformly in the area, connects
/// each to its `user_attach` nearest switches, and returns the demand list
/// (consecutive users form a pair; one demanded quantum state per pair).
///
/// Users never connect to other users (§V-A), and user-switch links get
/// their Euclidean length so they participate in the `exp(-α·L)` success
/// model like any other fiber.
pub(crate) fn attach_users(
    graph: &mut UnGraph<Site, Link>,
    cfg: &TopologyConfig,
    rng: &mut impl Rng,
) -> Vec<(NodeId, NodeId)> {
    let switches: Vec<NodeId> = graph
        .node_ids()
        .filter(|&n| graph.node(n).role == Role::Switch)
        .collect();
    assert!(
        cfg.num_user_pairs == 0 || !switches.is_empty(),
        "cannot attach users without switches"
    );

    let mut demands = Vec::with_capacity(cfg.num_user_pairs);
    for _ in 0..cfg.num_user_pairs {
        let a = add_user(graph, &switches, cfg, rng);
        let b = add_user(graph, &switches, cfg, rng);
        demands.push((a, b));
    }
    demands
}

fn add_user(
    graph: &mut UnGraph<Site, Link>,
    switches: &[NodeId],
    cfg: &TopologyConfig,
    rng: &mut impl Rng,
) -> NodeId {
    let pos = Position::sample(rng, cfg.side);
    let user = graph.add_node(Site::user(pos));
    for (d, s) in nearest(graph, switches, pos, cfg.user_attach) {
        graph.add_edge(user, s, Link::new(d));
    }
    user
}

/// The first `k` of `switches` ordered by `(distance to pos, id)`, with
/// their distances.
///
/// Only a switch whose squared distance is within [`widen_square`] of
/// the k-th smallest square can be among them: each of the true k
/// nearest is no farther than one of the k switches with the smallest
/// squares. So one scan finds that k-th square, and only the switches
/// inside its widened bound are measured and sorted, with the comparator
/// a full sort by distance uses. The result is that sort's first `k`.
fn nearest(
    graph: &UnGraph<Site, Link>,
    switches: &[NodeId],
    pos: Position,
    k: usize,
) -> Vec<(f64, NodeId)> {
    let at = |s: NodeId| graph.node(s).position;
    // The k smallest squared distances, ascending.
    let mut smallest: Vec<f64> = Vec::with_capacity(k.min(switches.len()) + 1);
    for &s in switches {
        let square = pos.distance_squared(at(s));
        assert!(!square.is_nan(), "finite distances");
        if smallest.len() < k || smallest.last().is_some_and(|&kth| square < kth) {
            smallest.insert(smallest.partition_point(|&b| b <= square), square);
            smallest.truncate(k);
        }
    }
    let cut = match smallest.last() {
        Some(&kth) if k < switches.len() => widen_square(kth),
        _ => f64::INFINITY,
    };
    let mut near: Vec<(f64, NodeId)> = switches
        .iter()
        .filter_map(|&s| {
            let p = at(s);
            (pos.distance_squared(p) <= cut).then(|| (pos.distance(p), s))
        })
        .collect();
    near.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite distances")
            .then(a.1.cmp(&b.1))
    });
    near.truncate(k);
    near
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::deterministic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_cfg(pairs: usize, attach: usize) -> TopologyConfig {
        TopologyConfig {
            num_user_pairs: pairs,
            user_attach: attach,
            side: 100.0,
            ..TopologyConfig::default()
        }
    }

    #[test]
    fn attaches_expected_counts() {
        let mut g = deterministic::grid(3, 3, 10.0);
        let cfg = base_cfg(3, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let demands = attach_users(&mut g, &cfg, &mut rng);
        assert_eq!(demands.len(), 3);
        let users: Vec<_> = g.node_ids().filter(|&n| g.node(n).is_user()).collect();
        assert_eq!(users.len(), 6);
        for u in users {
            assert_eq!(
                g.degree(u),
                2,
                "user must attach to exactly user_attach switches"
            );
            for v in g.neighbors(u) {
                assert_eq!(
                    g.node(v).role,
                    Role::Switch,
                    "users only connect to switches"
                );
            }
        }
    }

    #[test]
    fn links_carry_true_distance() {
        let mut g = deterministic::grid(2, 2, 10.0);
        let cfg = base_cfg(1, 1);
        let mut rng = StdRng::seed_from_u64(2);
        attach_users(&mut g, &cfg, &mut rng);
        for e in g.edges() {
            let d = g
                .node(e.source)
                .position
                .distance(g.node(e.target).position);
            assert!((d - e.weight.length).abs() < 1e-9);
        }
    }

    #[test]
    fn nearest_switch_is_chosen() {
        let mut g = deterministic::line(5, 10.0); // switches at x = 0,10,20,30,40
        let cfg = base_cfg(1, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let demands = attach_users(&mut g, &cfg, &mut rng);
        let (a, _) = demands[0];
        let a_pos = g.node(a).position;
        let attached = g.neighbors(a).next().unwrap();
        let d_attached = a_pos.distance(g.node(attached).position);
        for s in g.node_ids().filter(|&n| !g.node(n).is_user()) {
            assert!(d_attached <= a_pos.distance(g.node(s).position) + 1e-9);
        }
    }

    /// Switches at `points`, ids in the given order.
    fn switches_at(points: &[(f64, f64)]) -> (UnGraph<Site, Link>, Vec<NodeId>) {
        let mut g = UnGraph::new();
        let ids = points
            .iter()
            .map(|&(x, y)| g.add_node(Site::switch(Position::new(x, y))))
            .collect();
        (g, ids)
    }

    /// The reference: every switch measured and sorted.
    fn by_full_sort(
        g: &UnGraph<Site, Link>,
        switches: &[NodeId],
        pos: Position,
        k: usize,
    ) -> Vec<(f64, NodeId)> {
        let mut all: Vec<(f64, NodeId)> = switches
            .iter()
            .map(|&s| (pos.distance(g.node(s).position), s))
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    fn ids(near: &[(f64, NodeId)]) -> Vec<usize> {
        near.iter().map(|&(_, s)| s.index()).collect()
    }

    #[test]
    fn equidistant_switches_break_ties_by_id() {
        // Ids 1, 3, 4 and 6 sit at exactly distance √2 from (1, 1); the
        // others are farther.
        let (g, all) = switches_at(&[
            (5.0, 5.0),
            (2.0, 2.0),
            (1.0, 4.0),
            (0.0, 0.0),
            (2.0, 0.0),
            (-3.0, 1.0),
            (0.0, 2.0),
        ]);
        let user = Position::new(1.0, 1.0);
        for k in 1..=all.len() + 1 {
            let near = nearest(&g, &all, user, k);
            assert_eq!(near, by_full_sort(&g, &all, user, k), "k = {k}");
        }
        assert_eq!(ids(&nearest(&g, &all, user, 2)), [1, 3]);
        assert_eq!(ids(&nearest(&g, &all, user, 4)), [1, 3, 4, 6]);
        // Reversed ids must not change which ones win a tie.
        let reversed: Vec<NodeId> = all.iter().rev().copied().collect();
        assert_eq!(ids(&nearest(&g, &reversed, user, 3)), [1, 3, 4]);
    }

    #[test]
    fn a_user_on_a_switch_takes_it_at_length_zero() {
        // The k-th smallest square is 0, so only exact coincidences pass
        // the cut for k = 1; ids 1 and 3 both coincide with the user.
        let (g, all) = switches_at(&[(3.0, 4.0), (7.0, 7.0), (8.0, 7.0), (7.0, 7.0)]);
        let user = Position::new(7.0, 7.0);
        assert_eq!(nearest(&g, &all, user, 1), [(0.0, NodeId::new(1))]);
        assert_eq!(
            nearest(&g, &all, user, 3),
            [
                (0.0, NodeId::new(1)),
                (0.0, NodeId::new(3)),
                (1.0, NodeId::new(2))
            ]
        );
        for k in 1..=5 {
            assert_eq!(nearest(&g, &all, user, k), by_full_sort(&g, &all, user, k));
        }
    }

    #[test]
    fn a_switch_farther_by_square_but_nearer_by_hypot_wins() {
        // Found by search: from the origin, switch 0's squared distance
        // rounds below switch 1's, yet its `hypot` is one ulp larger. A
        // cut at the bare k-th square would drop switch 1, the true
        // nearest.
        let a = (5095.90930847456, 7507.251780735793);
        let b = (6570.3157828836975, 6257.641048569963);
        let (g, all) = switches_at(&[a, b, (9000.0, 9000.0)]);
        let user = Position::new(0.0, 0.0);
        let (pa, pb) = (g.node(all[0]).position, g.node(all[1]).position);
        assert!(user.distance_squared(pa) < user.distance_squared(pb));
        assert!(user.distance(pa) > user.distance(pb));
        assert_eq!(ids(&nearest(&g, &all, user, 1)), [1]);
        assert_eq!(ids(&nearest(&g, &all, user, 2)), [1, 0]);
    }

    #[test]
    fn zero_pairs_is_noop() {
        let mut g = deterministic::grid(2, 2, 1.0);
        let cfg = base_cfg(0, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let demands = attach_users(&mut g, &cfg, &mut rng);
        assert!(demands.is_empty());
        assert_eq!(g.node_count(), 4);
    }
}
