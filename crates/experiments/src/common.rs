//! Shared experiment machinery: run wrappers and the topology catalog.

use lgg_core::Lgg;
use netmodel::TrafficSpec;
use serde::{Deserialize, Serialize};
use simqueue::{
    assess_stability, HistoryMode, RoutingProtocol, SimObserver, Simulation, SimulationBuilder,
    StabilityVerdict, WindowAggregator, WindowStats,
};

/// Condensed outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Stability verdict from the recorded trajectory.
    pub verdict: StabilityVerdict,
    /// Supremum of total stored packets.
    pub sup_total: u64,
    /// Supremum of the network state `P_t`.
    pub sup_pt: u128,
    /// Least-squares backlog slope over the tail (packets/step).
    pub slope: f64,
    /// Delivered / injected.
    pub delivery: f64,
    /// Little's-law mean latency.
    pub mean_latency: f64,
    /// Steps simulated.
    pub steps: u64,
}

impl RunOutcome {
    /// Extracts the outcome from a finished simulation (any observer).
    pub fn from_sim<O: SimObserver>(sim: &Simulation<O>) -> Self {
        let m = sim.metrics();
        let report = assess_stability(&m.history);
        RunOutcome {
            verdict: report.verdict,
            sup_total: m.sup_total,
            sup_pt: m.sup_pt,
            slope: report.slope,
            delivery: m.delivery_ratio(),
            mean_latency: m.mean_latency(),
            steps: m.steps,
        }
    }

    /// `true` when the verdict is [`StabilityVerdict::Stable`].
    pub fn stable(&self) -> bool {
        self.verdict == StabilityVerdict::Stable
    }

    /// `true` when the verdict is [`StabilityVerdict::Diverging`].
    pub fn diverging(&self) -> bool {
        self.verdict == StabilityVerdict::Diverging
    }

    /// Short verdict string for tables.
    pub fn verdict_str(&self) -> &'static str {
        match self.verdict {
            StabilityVerdict::Stable => "stable",
            StabilityVerdict::Diverging => "DIVERGING",
            StabilityVerdict::Undecided => "undecided",
        }
    }
}

/// Steps for quick (test) vs. full (report) runs.
pub fn steps_for(quick: bool, full: u64) -> u64 {
    if quick {
        (full / 10).max(2000)
    } else {
        full
    }
}

/// History stride keeping ~1000 snapshots per run.
pub fn stride_for(steps: u64) -> u64 {
    (steps / 1024).max(1)
}

/// Runs LGG on `spec` with classic defaults (exact injection, no loss).
pub fn run_lgg(spec: &TrafficSpec, steps: u64, seed: u64) -> RunOutcome {
    run_protocol(spec, Box::new(Lgg::new()), steps, seed)
}

/// Runs an arbitrary protocol with classic defaults.
pub fn run_protocol(
    spec: &TrafficSpec,
    protocol: Box<dyn RoutingProtocol>,
    steps: u64,
    seed: u64,
) -> RunOutcome {
    run_customized(spec, protocol, steps, seed, |b| b)
}

/// Runs with a builder hook for custom injection/loss/topology/policies.
pub fn run_customized(
    spec: &TrafficSpec,
    protocol: Box<dyn RoutingProtocol>,
    steps: u64,
    seed: u64,
    customize: impl FnOnce(SimulationBuilder) -> SimulationBuilder,
) -> RunOutcome {
    let builder = SimulationBuilder::new(spec.clone(), protocol)
        .seed(seed)
        .history(HistoryMode::Sampled(stride_for(steps)));
    let mut sim = customize(builder).build();
    sim.run(steps);
    RunOutcome::from_sim(&sim)
}

/// Like [`run_customized`] but with a [`WindowAggregator`] riding along:
/// returns the windowed `P_t` / loss / queue-occupancy time series next
/// to the condensed outcome. The observer is passive — the trajectory
/// (and hence the outcome) is identical to the unobserved run.
pub fn run_windowed(
    spec: &TrafficSpec,
    protocol: Box<dyn RoutingProtocol>,
    steps: u64,
    seed: u64,
    window: u64,
    customize: impl FnOnce(SimulationBuilder<WindowAggregator>) -> SimulationBuilder<WindowAggregator>,
) -> (RunOutcome, Vec<WindowStats>) {
    let builder = SimulationBuilder::new(spec.clone(), protocol)
        .seed(seed)
        .history(HistoryMode::Sampled(stride_for(steps)))
        .observer(WindowAggregator::new(window));
    let mut sim = customize(builder).build();
    sim.run(steps);
    let outcome = RunOutcome::from_sim(&sim);
    (outcome, sim.into_observer().into_windows())
}

/// The named unsaturated specifications used across E1/E2/E11.
pub fn unsaturated_catalog(seed: u64) -> Vec<(String, TrafficSpec)> {
    use mgraph::generators as g;
    use netmodel::TrafficSpecBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<(String, TrafficSpec)> = Vec::new();

    out.push((
        "complete-K6".into(),
        TrafficSpecBuilder::new(g::complete(6))
            .source(0, 1)
            .sink(5, 5)
            .build()
            .unwrap(),
    ));
    out.push((
        "parallel-pair-4".into(),
        TrafficSpecBuilder::new(g::parallel_pair(4))
            .source(0, 1)
            .sink(1, 4)
            .build()
            .unwrap(),
    ));
    out.push((
        "diamond-3x3".into(),
        TrafficSpecBuilder::new(g::layered_diamond(3, 3))
            .source(0, 2)
            .sink(12, 3)
            .build()
            .unwrap(),
    ));
    out.push((
        "grid-5x5".into(),
        TrafficSpecBuilder::new(g::grid2d(5, 5))
            .source(0, 1)
            .sink(24, 4)
            .build()
            .unwrap(),
    ));
    out.push((
        "torus-4x4".into(),
        TrafficSpecBuilder::new(g::torus2d(4, 4))
            .source(0, 2)
            .source(5, 1)
            .sink(15, 4)
            .sink(10, 4)
            .build()
            .unwrap(),
    ));
    out.push((
        "hypercube-4".into(),
        TrafficSpecBuilder::new(g::hypercube(4))
            .source(0, 2)
            .sink(15, 4)
            .build()
            .unwrap(),
    ));
    let rg = g::connected_random(30, 30, &mut rng);
    out.push((
        "random-30".into(),
        TrafficSpecBuilder::new(rg)
            .source(0, 1)
            .sink(29, 3)
            .build()
            .unwrap(),
    ));
    out.push((
        "expander-5x5".into(),
        TrafficSpecBuilder::new(g::margulis_expander(5))
            .source(0, 2)
            .sink(24, 6)
            .build()
            .unwrap(),
    ));
    // Keep only certified-unsaturated entries (the random graph could in
    // principle be tight; in practice the sink rate rarely binds).
    out.retain(|(_, s)| {
        matches!(
            netmodel::classify(s).feasibility,
            netmodel::Feasibility::Unsaturated { .. }
        )
    });
    out
}

/// The named saturated specifications used across E5/E6/E12/E13.
pub fn saturated_catalog() -> Vec<(String, TrafficSpec)> {
    use mgraph::generators as g;
    use netmodel::TrafficSpecBuilder;

    let specs: Vec<(String, TrafficSpec)> = vec![
        (
            "path-5-at-capacity".into(),
            TrafficSpecBuilder::new(g::path(5))
                .source(0, 1)
                .sink(4, 1)
                .build()
                .unwrap(),
        ),
        (
            "sink-limited-K5".into(),
            TrafficSpecBuilder::new(g::complete(5))
                .source(0, 2)
                .sink(4, 2)
                .build()
                .unwrap(),
        ),
        (
            "dumbbell-bridge".into(),
            TrafficSpecBuilder::new(g::dumbbell(4, 2))
                .source(0, 1)
                .sink(9, 4)
                .build()
                .unwrap(),
        ),
        (
            "diamond-saturated".into(),
            TrafficSpecBuilder::new(g::layered_diamond(3, 2))
                .source(0, 2)
                .sink(9, 2)
                .build()
                .unwrap(),
        ),
    ];
    // All these must be feasible and *not* unsaturated.
    for (name, s) in &specs {
        debug_assert!(
            matches!(
                netmodel::classify(s).feasibility,
                netmodel::Feasibility::Saturated
            ),
            "{name} is not saturated"
        );
    }
    specs
}

/// Formats a float compactly for tables.
pub fn fnum(x: f64) -> String {
    if !x.is_finite() {
        "inf".into()
    } else if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.3e}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::TrafficSpecBuilder;

    #[test]
    fn catalogs_are_nonempty_and_classified() {
        let u = unsaturated_catalog(1);
        assert!(u.len() >= 6);
        for (name, s) in &u {
            assert!(
                matches!(
                    netmodel::classify(s).feasibility,
                    netmodel::Feasibility::Unsaturated { .. }
                ),
                "{name} not unsaturated"
            );
        }
        let s = saturated_catalog();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn run_lgg_on_trivial_path_is_stable() {
        let spec = TrafficSpecBuilder::new(mgraph::generators::path(3))
            .source(0, 1)
            .sink(2, 2)
            .build()
            .unwrap();
        let o = run_lgg(&spec, 4000, 1);
        assert!(o.stable(), "verdict {:?}", o.verdict);
        assert!(o.sup_total < 20);
        assert!(o.delivery > 0.9);
        assert_eq!(o.verdict_str(), "stable");
    }

    #[test]
    fn run_windowed_matches_unobserved_run() {
        let spec = TrafficSpecBuilder::new(mgraph::generators::path(3))
            .source(0, 1)
            .sink(2, 2)
            .build()
            .unwrap();
        let plain = run_lgg(&spec, 4000, 1);
        let (o, windows) = run_windowed(&spec, Box::new(Lgg::new()), 4000, 1, 1000, |b| b);
        // The observer never perturbs the trajectory.
        assert_eq!(o, plain);
        assert_eq!(windows.len(), 4);
        assert!(windows.iter().all(|w| w.samples == 1000));
        assert!(windows[0].injected > 0);
    }

    #[test]
    fn steps_and_stride_helpers() {
        assert_eq!(steps_for(true, 50_000), 5000);
        assert_eq!(steps_for(false, 50_000), 50_000);
        assert_eq!(stride_for(1024), 1);
        assert_eq!(stride_for(102_400), 100);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(3.14159), "3.142");
        assert_eq!(fnum(42.42), "42.4");
        assert_eq!(fnum(123456.0), "1.235e5");
        assert_eq!(fnum(f64::INFINITY), "inf");
    }
}
