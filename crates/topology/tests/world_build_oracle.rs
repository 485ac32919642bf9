//! Differential oracle for the world build.
//!
//! [`TopologyConfig::generate`] must build exactly the world the
//! straightforward build gives: each user measured against every switch
//! and wired to the first `user_attach` of them sorted by `(distance,
//! id)`, and every Waxman switch pair measured in both passes. The
//! oracle keeps that build as its reference and compares the two bit for
//! bit: every site's position bits and role, every edge's endpoints and
//! length bits in insertion order, and the demand list.
//!
//! The reference re-implements what the world build skips work in: the
//! full-sort attachment and the full-scan Waxman generator, on the same
//! seeded RNG stream, so a changed draw order shows up as moved users.
//! The other stages are unchanged code and come from `generate` itself,
//! run on the same config with no users: the Watts–Strogatz, Aiello and
//! grid switch layers and the bridging edges (a Waxman layer's bridges
//! are the edges after the reference's own). The grid draws nothing, so
//! its users are drawn from a fresh stream. Watts–Strogatz and Aiello
//! draw a data-dependent number of values, so their users' positions are
//! read from the generated world and only their links are re-derived.
//!
//! Random positions never land on the margins the build relies on; the
//! unit tests in `attach.rs`, `generators/waxman.rs` and `geometry.rs`
//! pin those cases. The reduced grid runs in tier-1; the wide grid
//! (`--ignored`) covers larger worlds and more cases:
//!
//! ```text
//! cargo test --release -p fusion-topology --test world_build_oracle -- --ignored
//! ```

use fusion_graph::{NodeId, UnGraph};
use fusion_topology::{GeneratorKind, Link, Position, Site, Topology, TopologyConfig};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything the comparison reads, as bits.
#[derive(Debug, PartialEq)]
struct World {
    /// Per site in id order: position bits and whether it is a user.
    sites: Vec<(u64, u64, bool)>,
    /// Per edge in insertion order: endpoints and length bits.
    edges: Vec<(usize, usize, u64)>,
    demands: Vec<(usize, usize)>,
}

fn world(graph: &UnGraph<Site, Link>, demands: &[(NodeId, NodeId)]) -> World {
    World {
        sites: graph
            .node_weights()
            .map(|s| (s.position.x.to_bits(), s.position.y.to_bits(), s.is_user()))
            .collect(),
        edges: graph
            .edges()
            .map(|e| {
                (
                    e.source.index(),
                    e.target.index(),
                    e.weight.length.to_bits(),
                )
            })
            .collect(),
        demands: demands
            .iter()
            .map(|(a, b)| (a.index(), b.index()))
            .collect(),
    }
}

/// The full-scan Waxman generator: every pair's `hypot` in both passes.
fn full_scan_waxman(cfg: &TopologyConfig, alpha: f64, rng: &mut StdRng) -> UnGraph<Site, Link> {
    let n = cfg.num_switches;
    let mut graph = UnGraph::new();
    for _ in 0..n {
        graph.add_node(Site::switch(Position::sample(rng, cfg.side)));
    }
    let d_cap = cfg.max_edge_length();
    let span = |g: &UnGraph<Site, Link>, u: usize, v: usize| {
        g.node(NodeId::new(u))
            .position
            .distance(g.node(NodeId::new(v)).position)
    };
    let mut weight_sum = 0.0;
    for u in 0..n {
        for v in (u + 1)..n {
            let d = span(&graph, u, v);
            if d <= d_cap {
                weight_sum += (-d / (alpha * d_cap)).exp();
            }
        }
    }
    let target_edges = cfg.avg_degree * n as f64 / 2.0;
    let beta = if weight_sum > 0.0 {
        target_edges / weight_sum
    } else {
        0.0
    };
    for u in 0..n {
        for v in (u + 1)..n {
            let d = span(&graph, u, v);
            if d > d_cap {
                continue;
            }
            let w = (-d / (alpha * d_cap)).exp();
            let p = (beta * w).min(1.0);
            if rng.gen_bool(p) {
                graph.add_edge(NodeId::new(u), NodeId::new(v), Link::new(d));
            }
        }
    }
    graph
}

/// The full-sort attachment of one user at `pos`.
fn attach_by_full_sort(
    graph: &mut UnGraph<Site, Link>,
    switches: &[NodeId],
    pos: Position,
    k: usize,
) -> NodeId {
    let user = graph.add_node(Site::user(pos));
    let mut by_distance: Vec<(f64, NodeId)> = switches
        .iter()
        .map(|&s| (pos.distance(graph.node(s).position), s))
        .collect();
    by_distance.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite distances")
            .then(a.1.cmp(&b.1))
    });
    for &(d, s) in by_distance.iter().take(k) {
        graph.add_edge(user, s, Link::new(d));
    }
    user
}

/// The reference world for `cfg` and `seed`, given the generated one
/// (read only for the Watts–Strogatz and Aiello user positions).
fn reference(
    cfg: &TopologyConfig,
    seed: u64,
    generated: &Topology,
) -> Result<World, TestCaseError> {
    let bare = TopologyConfig {
        num_user_pairs: 0,
        ..cfg.clone()
    };
    let mut graph = bare.generate(seed).graph;
    let mut rng = StdRng::seed_from_u64(seed);
    if let GeneratorKind::Waxman { alpha } = cfg.kind {
        let scanned = world(&full_scan_waxman(cfg, alpha, &mut rng), &[]);
        let layer = world(&graph, &[]);
        prop_assert_eq!(&layer.sites, &scanned.sites);
        prop_assert_eq!(
            layer.edges.get(..scanned.edges.len()),
            Some(&scanned.edges[..])
        );
    }
    let switches: Vec<NodeId> = graph.node_ids().collect();
    let users: Vec<Position> = match cfg.kind {
        GeneratorKind::Waxman { .. } | GeneratorKind::Grid => (0..2 * cfg.num_user_pairs)
            .map(|_| Position::sample(&mut rng, cfg.side))
            .collect(),
        GeneratorKind::WattsStrogatz { .. } | GeneratorKind::Aiello { .. } => generated
            .user_ids()
            .map(|u| generated.graph.node(u).position)
            .collect(),
    };
    let mut demands = Vec::new();
    for pair in users.chunks(2) {
        let a = attach_by_full_sort(&mut graph, &switches, pair[0], cfg.user_attach);
        let b = attach_by_full_sort(&mut graph, &switches, pair[1], cfg.user_attach);
        demands.push((a, b));
    }
    Ok(world(&graph, &demands))
}

fn check(cfg: &TopologyConfig, seed: u64) -> Result<(), TestCaseError> {
    let generated = cfg.generate(seed);
    let expected = reference(cfg, seed, &generated)?;
    prop_assert_eq!(world(&generated.graph, &generated.demands), expected);
    Ok(())
}

/// Every generator family, with its parameter drawn in range.
fn kinds() -> impl Strategy<Value = GeneratorKind> {
    prop_oneof![
        (0.1f64..3.0).prop_map(|alpha| GeneratorKind::Waxman { alpha }),
        (0.0f64..1.0).prop_map(|rewire| GeneratorKind::WattsStrogatz { rewire }),
        (2.1f64..3.5).prop_map(|gamma| GeneratorKind::Aiello { gamma }),
        Just(GeneratorKind::Grid),
    ]
}

/// Sides whose squared distances are tiny, ordinary and huge.
const SIDES: [f64; 4] = [10_000.0, 1.0, 3.7e-3, 6.1e7];

/// Configs over every family with up to `max_switches` switches,
/// `user_attach` 1–8 (often more than the switch count), and edge caps
/// from most pairs beyond the cap (~0.5) to none (15).
fn configs(max_switches: usize) -> impl Strategy<Value = (TopologyConfig, u64)> {
    (
        (kinds(), 2..max_switches, 0usize..12, 1usize..9),
        (0.5f64..15.0, 2.0f64..12.0, 0..SIDES.len(), 0u64..1 << 40),
    )
        .prop_map(|((kind, n, pairs, attach), (factor, degree, side, seed))| {
            let cfg = TopologyConfig {
                num_switches: n,
                num_user_pairs: pairs,
                side: SIDES[side],
                avg_degree: degree,
                user_attach: attach,
                max_edge_factor: factor,
                kind,
            };
            (cfg, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Worlds of 2–120 switches.
    #[test]
    fn generated_worlds_match_the_full_scan_build((cfg, seed) in configs(120)) {
        check(&cfg, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// The wide grid: 2–400 switches. Run explicitly with `-- --ignored`.
    #[test]
    #[ignore = "wide differential grid; run with -- --ignored"]
    fn generated_worlds_match_the_full_scan_build_wide((cfg, seed) in configs(400)) {
        check(&cfg, seed)?;
    }
}

#[test]
fn preset_worlds_match_the_full_scan_build() {
    // The shapes the benchmarks build: 100-switch Waxman and 1k-switch
    // Waxman and grid worlds with 50 user pairs.
    let large = |n, kind| TopologyConfig {
        num_switches: n,
        num_user_pairs: 50,
        kind,
        ..TopologyConfig::default()
    };
    let configs = [
        TopologyConfig::default(),
        large(1_000, GeneratorKind::default()),
        large(1_000, GeneratorKind::Grid),
    ];
    for cfg in &configs {
        if let Err(e) = check(cfg, 0x5eed) {
            panic!("{cfg:?}: {e}");
        }
    }
}
