//! Protocol-level equivalence: the registry-backed simulator (Bell pairs,
//! GHZ fusions, Pauli trims) agrees with percolation connectivity round by
//! round, its long-run rates agree with Equation 1, and the fusion
//! sequences it performs are physically valid on the exact stabilizer
//! simulator.

use ghz_entanglement_routing::core::algorithms::alg_n_fusion;
use ghz_entanglement_routing::core::{Demand, NetworkParams, QuantumNetwork};
use ghz_entanglement_routing::quantum::stabilizer::{fuse_groups, measure_out_x, Tableau};
use ghz_entanglement_routing::quantum::EntanglementRegistry;
use ghz_entanglement_routing::sim::protocol::simulate_round;
use ghz_entanglement_routing::sim::FlowSampler;
use ghz_entanglement_routing::topology::TopologyConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn registry_protocol_tracks_percolation_rates() {
    let topo = TopologyConfig {
        num_switches: 25,
        num_user_pairs: 4,
        avg_degree: 6.0,
        ..TopologyConfig::default()
    }
    .generate(13);
    let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    let demands = Demand::from_topology(&topo);
    let plan = alg_n_fusion(&net, &demands);
    let mut rng = StdRng::seed_from_u64(99);

    for (i, dp) in plan.plans.iter().enumerate() {
        if dp.is_unserved() {
            continue;
        }
        let rounds = 4_000;
        let mut protocol_hits = 0;
        let mut percolation_hits = 0;
        for _ in 0..rounds {
            // simulate_round itself debug-asserts registry == percolation
            // on identical sampled outcomes; here we also compare the two
            // estimators statistically on independent samples.
            if simulate_round(&net, dp, &mut rng).established {
                protocol_hits += 1;
            }
            if FlowSampler::new(&net, dp).sample(&mut rng) {
                percolation_hits += 1;
            }
        }
        let protocol = protocol_hits as f64 / rounds as f64;
        let percolation = percolation_hits as f64 / rounds as f64;
        assert!(
            (protocol - percolation).abs() < 0.04,
            "demand {i}: protocol {protocol} vs percolation {percolation}"
        );
        // Eq. 1 upper-bounds both (it is optimistic on reconvergent flows).
        let analytic = plan.demand_rate(&net, i);
        assert!(
            protocol <= analytic + 0.04,
            "demand {i}: protocol {protocol} above Eq.1 bound {analytic}"
        );
    }
}

#[test]
fn registry_and_tableau_agree_on_a_fusion_cascade() {
    // Build the same 4-segment repeater fusion in both substrates and
    // check they agree on who ends up entangled.
    let mut reg = EntanglementRegistry::new();
    let reg_qubits: Vec<_> = (0..8).map(|_| reg.alloc()).collect();
    for pair in reg_qubits.chunks(2) {
        reg.create_pair(pair[0], pair[1]).unwrap();
    }
    // Fuse at the three "switches": qubits (1,2), (3,4), (5,6).
    reg.fuse(&[reg_qubits[1], reg_qubits[2]]).unwrap();
    reg.fuse(&[reg_qubits[3], reg_qubits[4]]).unwrap();
    reg.fuse(&[reg_qubits[5], reg_qubits[6]]).unwrap();
    assert!(reg.are_entangled(reg_qubits[0], reg_qubits[7]));

    let mut tab = Tableau::new(8);
    let mut rng = StdRng::seed_from_u64(3);
    for pair in [[0usize, 1], [2, 3], [4, 5], [6, 7]] {
        tab.prepare_ghz(&pair);
    }
    fuse_groups(&mut tab, &[vec![0, 1], vec![2, 3]], &[1, 2], &mut rng);
    fuse_groups(&mut tab, &[vec![0, 3], vec![4, 5]], &[3, 4], &mut rng);
    fuse_groups(&mut tab, &[vec![0, 5], vec![6, 7]], &[5, 6], &mut rng);
    assert!(tab.is_ghz(&[0, 7]), "end users share a Bell pair");
}

#[test]
fn branch_trimming_matches_one_fusion_semantics() {
    // A 3-branch fusion at a switch leaves a 4-GHZ state among the users;
    // Pauli-trimming (1-fusion) reduces it to the demanded Bell pair in
    // both substrates.
    let mut reg = EntanglementRegistry::new();
    let q: Vec<_> = (0..6).map(|_| reg.alloc()).collect();
    for pair in q.chunks(2) {
        reg.create_pair(pair[0], pair[1]).unwrap();
    }
    let out = reg.fuse(&[q[1], q[3], q[5]]).unwrap();
    assert_eq!(out.survivors, 3);
    reg.measure_out(q[2]).unwrap();
    assert!(reg.are_entangled(q[0], q[4]));
    assert_eq!(reg.group_of(q[0]).and_then(|g| reg.group_size(g)), Some(2));

    let mut tab = Tableau::new(6);
    let mut rng = StdRng::seed_from_u64(21);
    for pair in [[0usize, 1], [2, 3], [4, 5]] {
        tab.prepare_ghz(&pair);
    }
    fuse_groups(
        &mut tab,
        &[vec![0, 1], vec![2, 3], vec![4, 5]],
        &[1, 3, 5],
        &mut rng,
    );
    assert!(tab.is_ghz(&[0, 2, 4]));
    measure_out_x(&mut tab, &[0, 2, 4], 2, &mut rng);
    assert!(tab.is_ghz(&[0, 4]), "trimmed to the demanded Bell pair");
}

#[test]
fn protocol_counters_scale_with_widths() {
    // Wider flows generate proportionally more heralded links.
    let topo = TopologyConfig {
        num_switches: 20,
        num_user_pairs: 2,
        avg_degree: 6.0,
        ..TopologyConfig::default()
    }
    .generate(29);
    let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
    let demands = Demand::from_topology(&topo);
    let plan = alg_n_fusion(&net, &demands);
    let dp = plan
        .plans
        .iter()
        .find(|p| !p.is_unserved())
        .expect("routed demand");
    let total_width: u32 = dp.flow.edges().map(|(_, _, w)| w).sum();

    let mut rng = StdRng::seed_from_u64(5);
    let mut total_links = 0usize;
    let rounds = 500;
    for _ in 0..rounds {
        total_links += simulate_round(&net, dp, &mut rng).links_generated;
    }
    let mean_links = total_links as f64 / rounds as f64;
    assert!(
        mean_links <= f64::from(total_width),
        "cannot herald more links than allocated ({mean_links} > {total_width})"
    );
    assert!(
        mean_links > 0.2 * f64::from(total_width),
        "suspiciously few links heralded"
    );
}
