//! Integration: Theorem 1 end to end, across randomly generated networks.
//!
//! Feasible arrival rates ⇒ LGG keeps the backlog bounded; arrival rates
//! beyond `f*` ⇒ the backlog diverges at least at the excess rate. The
//! specs are generated randomly and classified with the max-flow machinery,
//! so this exercises every crate in the workspace in one pass.

use lgg_core::bounds::divergence_rate;
use lgg_core::Lgg;
use mgraph::{generators, ops, NodeId};
use netmodel::{classify, Feasibility, TrafficSpec, TrafficSpecBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simqueue::{assess_stability, HistoryMode, SimulationBuilder, StabilityVerdict};

/// Random connected network with one random source and one random sink of
/// generous extraction capacity.
fn random_spec(seed: u64) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(8..40);
    let extra = rng.random_range(0..n);
    let g = generators::connected_random(n, extra, &mut rng);
    let src = rng.random_range(0..n as u32);
    let mut dst = rng.random_range(0..(n - 1) as u32);
    if dst >= src {
        dst += 1;
    }
    let in_rate = rng.random_range(1..=3u64);
    TrafficSpecBuilder::new(g)
        .source(src, in_rate)
        .sink(dst, in_rate + rng.random_range(0..=2))
        .build()
        .unwrap()
}

fn run_verdict(spec: &TrafficSpec, steps: u64) -> (StabilityVerdict, f64) {
    let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
        .history(HistoryMode::Sampled((steps / 1024).max(1)))
        .seed(99)
        .build();
    sim.run(steps);
    let report = assess_stability(&sim.metrics().history);
    (report.verdict, report.slope)
}

#[test]
fn feasible_random_networks_are_stable() {
    let mut feasible_checked = 0;
    for seed in 0..40u64 {
        let spec = random_spec(seed);
        let class = classify(&spec);
        if !class.feasibility.is_feasible() {
            continue;
        }
        feasible_checked += 1;
        let (verdict, slope) = run_verdict(&spec, 6000);
        assert_ne!(
            verdict,
            StabilityVerdict::Diverging,
            "seed {seed}: feasible network diverged (slope {slope}, class {class:?})"
        );
    }
    assert!(
        feasible_checked >= 10,
        "only {feasible_checked} feasible draws"
    );
}

#[test]
fn infeasible_random_networks_diverge_at_excess_rate() {
    let mut infeasible_checked = 0;
    for seed in 100..160u64 {
        let mut spec = random_spec(seed);
        // Force infeasibility: crank the source far beyond its degree.
        let src = spec.sources().next().unwrap();
        let crank = spec.graph.degree(src) as u64 + 3;
        spec.in_rate[src.index()] = crank;
        for v in spec.graph.nodes() {
            if spec.out_rate[v.index()] > 0 {
                spec.out_rate[v.index()] = crank;
            }
        }
        let class = classify(&spec);
        let Feasibility::Infeasible { .. } = class.feasibility else {
            continue;
        };
        infeasible_checked += 1;
        let excess = divergence_rate(&spec).unwrap();
        let (verdict, slope) = run_verdict(&spec, 6000);
        assert_eq!(
            verdict,
            StabilityVerdict::Diverging,
            "seed {seed}: infeasible network did not diverge"
        );
        assert!(
            slope >= 0.9 * excess as f64,
            "seed {seed}: slope {slope} below excess {excess}"
        );
    }
    assert!(
        infeasible_checked >= 20,
        "only {infeasible_checked} infeasible draws"
    );
}

#[test]
fn stability_frontier_on_parallel_links() {
    // parallel_pair(k): f* = k exactly. in = k stable (saturated);
    // in = k+1 diverges with slope ~1.
    for k in [1usize, 3, 5] {
        let stable_spec = TrafficSpecBuilder::new(generators::parallel_pair(k))
            .source(0, k as u64)
            .sink(1, k as u64)
            .build()
            .unwrap();
        let (v, _) = run_verdict(&stable_spec, 6000);
        assert_eq!(v, StabilityVerdict::Stable, "k={k} at capacity");

        let over_spec = TrafficSpecBuilder::new(generators::parallel_pair(k))
            .source(0, k as u64 + 1)
            .sink(1, k as u64 + 1)
            .build()
            .unwrap();
        let (v, slope) = run_verdict(&over_spec, 6000);
        assert_eq!(v, StabilityVerdict::Diverging, "k={k} over capacity");
        assert!((slope - 1.0).abs() < 0.2, "k={k} slope {slope}");
    }
}

#[test]
fn multi_source_multi_sink_grid_stable_at_exact_capacity() {
    // Two corner sources at rate 2 each (= their degree), sinks wide open:
    // saturated but feasible.
    let spec = TrafficSpecBuilder::new(generators::grid2d(5, 5))
        .source(0, 2)
        .source(4, 2)
        .sink(20, 4)
        .sink(24, 4)
        .build()
        .unwrap();
    let class = classify(&spec);
    assert!(class.feasibility.is_feasible());
    let (v, _) = run_verdict(&spec, 20_000);
    assert_eq!(v, StabilityVerdict::Stable);
}

#[test]
fn disconnected_source_is_infeasible_and_diverges() {
    let mut b = mgraph::MultiGraphBuilder::with_nodes(4);
    b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
    // nodes 2-3 disconnected from 0-1
    b.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
    let g = b.build();
    assert!(!ops::is_connected(&g));
    let spec = TrafficSpecBuilder::new(g)
        .source(0, 1)
        .sink(3, 1)
        .build()
        .unwrap();
    let class = classify(&spec);
    assert!(!class.feasibility.is_feasible());
    assert_eq!(class.f_star, 0);
    let (v, slope) = run_verdict(&spec, 4000);
    assert_eq!(v, StabilityVerdict::Diverging);
    assert!((slope - 1.0).abs() < 0.1);
}
