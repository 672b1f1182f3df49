//! Integration: the full public-API pipeline a downstream user would run,
//! mirroring the quickstart example, plus report serialization and the
//! figure experiments.

use experiments::{run_experiment, ExperimentReport};
use lgg_core::analysis::{check_drift_bound, measure_drift};
use lgg_core::bounds::unsaturated_bounds;
use lgg_core::{Lgg, TieBreak};
use mgraph::generators;
use netmodel::{classify, Feasibility, TrafficSpecBuilder};
use simqueue::{assess_stability, HistoryMode, SimulationBuilder, StabilityVerdict};

#[test]
fn quickstart_pipeline() {
    let spec = TrafficSpecBuilder::new(generators::grid2d(5, 5))
        .source(0, 1)
        .sink(24, 4)
        .build()
        .unwrap();

    let class = classify(&spec);
    assert!(matches!(class.feasibility, Feasibility::Unsaturated { .. }));
    assert_eq!(class.f_star, 2);

    let b = unsaturated_bounds(&spec).unwrap();
    assert!(b.state_bound > 0.0);

    let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
        .history(HistoryMode::Sampled(16))
        .seed(42)
        .build();
    sim.run(10_000);
    let m = sim.metrics();
    let stability = assess_stability(&m.history);
    assert_eq!(stability.verdict, StabilityVerdict::Stable);
    assert!((m.sup_pt as f64) < b.state_bound);
    assert!(m.delivery_ratio() > 0.95);
    assert_eq!(m.rejected_plans, 0);
}

#[test]
fn drift_pipeline_respects_property1_with_losses() {
    let spec = TrafficSpecBuilder::new(generators::hypercube(4))
        .source(0, 2)
        .sink(15, 4)
        .build()
        .unwrap();
    let bound = 5.0 * 16.0 * 16.0; // 5 n Δ²
    let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
        .loss(Box::new(simqueue::loss::IidLoss::new(0.15)))
        .history(HistoryMode::None)
        .seed(5)
        .build();
    let samples = measure_drift(&mut sim, 5000);
    let report = check_drift_bound(&samples, bound);
    assert_eq!(report.violations, 0, "max drift {}", report.max_delta);
}

#[test]
fn all_tie_breaks_share_the_stability_region() {
    // The paper: the choice among smaller neighbors "has no impact on the
    // system stability". Saturated dumbbell, all four policies.
    let spec = TrafficSpecBuilder::new(generators::dumbbell(4, 2))
        .source(0, 1)
        .sink(9, 4)
        .build()
        .unwrap();
    for tb in TieBreak::ALL {
        let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::with_tie_break(tb, 17)))
            .history(HistoryMode::Sampled(8))
            .seed(17)
            .build();
        sim.run(8000);
        let v = assess_stability(&sim.metrics().history).verdict;
        assert_eq!(
            v,
            StabilityVerdict::Stable,
            "tie-break {} destabilized a feasible network",
            tb.name()
        );
    }
}

#[test]
fn figure_experiments_pass_and_serialize() {
    for id in ["fig1", "fig2", "fig3", "fig4"] {
        let report = run_experiment(id, true).expect("known id");
        assert!(report.pass, "{id} failed:\n{}", report.markdown());
        let json = serde_json::to_string(&report).unwrap();
        let back: ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(report.markdown().contains(&format!("## {id}")));
    }
}

#[test]
fn metrics_serialize_for_downstream_tooling() {
    let spec = TrafficSpecBuilder::new(generators::path(4))
        .source(0, 1)
        .sink(3, 1)
        .build()
        .unwrap();
    let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
        .history(HistoryMode::Sampled(4))
        .build();
    sim.run(100);
    let json = serde_json::to_string(sim.metrics()).unwrap();
    let back: simqueue::Metrics = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, sim.metrics());
}
