//! Integration: the Section V-C decomposition machinery against random
//! bottleneck topologies, end to end (flow → cut → split → simulate).

use lgg_core::Lgg;
use mgraph::{generators, MultiGraphBuilder, NodeId};
use netmodel::{
    classify, decompose_at_cut, find_interior_min_cut, TrafficSpec, TrafficSpecBuilder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simqueue::{assess_stability, HistoryMode, SimulationBuilder, StabilityVerdict};

/// Two random blobs joined by a `width`-link bottleneck, saturated.
fn bottleneck_spec(seed: u64, width: usize) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let left = generators::connected_random(8, 8, &mut rng);
    let right = generators::connected_random(8, 8, &mut rng);
    let mut b = MultiGraphBuilder::with_nodes(16);
    for (g, off) in [(&left, 0u32), (&right, 8u32)] {
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            b.add_edge(NodeId::new(u.raw() + off), NodeId::new(v.raw() + off))
                .unwrap();
        }
    }
    for i in 0..width {
        let l = rng.random_range(0..8);
        let r = rng.random_range(8..16);
        let _ = i;
        b.add_edge(NodeId::new(l), NodeId::new(r)).unwrap();
    }
    TrafficSpecBuilder::new(b.build())
        .source(0, width as u64)
        .sink(15, 2 * width as u64)
        .build()
        .unwrap()
}

fn stable(spec: &TrafficSpec, steps: u64) -> bool {
    let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
        .history(HistoryMode::Sampled(8))
        .seed(3)
        .build();
    sim.run(steps);
    assess_stability(&sim.metrics().history).verdict != StabilityVerdict::Diverging
}

#[test]
fn random_bottlenecks_decompose_into_feasible_stable_parts() {
    let mut tested = 0;
    for seed in 0..12u64 {
        let width = 1 + (seed as usize % 3);
        let spec = bottleneck_spec(seed, width);
        let class = classify(&spec);
        if !class.feasibility.is_feasible() {
            continue; // random bottleneck placement may under-provision
        }
        let Some(side) = find_interior_min_cut(&spec) else {
            continue; // min cut may sit at a terminal for some draws
        };
        tested += 1;

        let dec = decompose_at_cut(&spec, &side, 0);
        // Structural invariants.
        assert_eq!(
            dec.a_nodes.len() + dec.b_nodes.len(),
            spec.node_count(),
            "seed {seed}: partition must cover V"
        );
        // Rate bookkeeping: B' gains exactly the crossing links as inflow,
        // A' gains them as outflow.
        let b_extra: u64 =
            dec.b_spec.arrival_rate() - dec.b_nodes.iter().map(|&v| spec.in_rate(v)).sum::<u64>();
        let a_extra: u64 = dec.a_spec.extraction_rate()
            - dec.a_nodes.iter().map(|&v| spec.out_rate(v)).sum::<u64>();
        assert_eq!(b_extra, dec.crossing_edges as u64, "seed {seed}");
        assert_eq!(a_extra, dec.crossing_edges as u64, "seed {seed}");

        // The paper's feasibility transfer.
        assert!(
            classify(&dec.b_spec).feasibility.is_feasible(),
            "seed {seed}: B' infeasible"
        );
        assert!(
            classify(&dec.a_spec).feasibility.is_feasible(),
            "seed {seed}: A' infeasible"
        );

        // And the stability transfer, executably.
        assert!(stable(&spec, 4000), "seed {seed}: G unstable");
        assert!(stable(&dec.b_spec, 4000), "seed {seed}: B' unstable");
        assert!(stable(&dec.a_spec, 4000), "seed {seed}: A' unstable");
    }
    assert!(tested >= 5, "only {tested} decomposable draws");
}

#[test]
fn decomposition_is_consistent_with_cut_size() {
    let spec = TrafficSpecBuilder::new(generators::dumbbell(5, 3))
        .source(0, 1)
        .sink(12, 5)
        .build()
        .unwrap();
    let side = find_interior_min_cut(&spec).expect("interior cut");
    let dec = decompose_at_cut(&spec, &side, 2);
    assert_eq!(
        dec.crossing_edges,
        mgraph::ops::cut_size(&spec.graph, &side)
    );
    // The dumbbell's bridge has capacity 1.
    assert_eq!(dec.crossing_edges, 1);
    // Retention propagates to A' only.
    assert_eq!(dec.a_spec.retention, 2);
    assert_eq!(dec.b_spec.retention, 0);
}

#[test]
fn nested_decomposition_terminates() {
    // Apply the induction twice: decompose, then decompose B' again if it
    // still has an interior cut — sizes must strictly shrink (the paper's
    // induction variable).
    let spec = TrafficSpecBuilder::new(generators::dumbbell(6, 6))
        .source(0, 1)
        .sink(17, 6)
        .build()
        .unwrap();
    let mut current = spec;
    let mut sizes = vec![current.node_count()];
    for _ in 0..4 {
        let Some(side) = find_interior_min_cut(&current) else {
            break;
        };
        let dec = decompose_at_cut(&current, &side, 1);
        assert!(dec.b_spec.node_count() < current.node_count());
        sizes.push(dec.b_spec.node_count());
        current = dec.b_spec;
        if !classify(&current).feasibility.is_feasible() {
            panic!("induction produced an infeasible part");
        }
    }
    assert!(sizes.len() >= 2, "at least one decomposition step expected");
    assert!(sizes.windows(2).all(|w| w[1] < w[0]));
}
