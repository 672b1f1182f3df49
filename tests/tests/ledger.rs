//! Integration: the trace rendered from a step record says exactly what
//! the record says. Each record the engine lends `SimObserver::on_step`
//! is rendered into `TraceEvent`s, and folding those events back must
//! give the record again; the window telemetry built from step records
//! must equal the windows folded from a rendered capture of the same run.
//!
//! The guard and `WindowAggregator` read step records; JSONL traces and
//! ring captures are rendered from them. These tests keep the two views
//! of a run from drifting apart, on every scenario file and on random
//! configurations.

use integration_tests::{EventFold, EventWindows, OwnedStep, Parts};
use lgg_cli::{Scenario, SimOverrides};
use lgg_core::Lgg;
use mgraph::generators;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simqueue::declare::RandomBelowRetention;
use simqueue::dynamic::MarkovTopology;
use simqueue::injection::BernoulliInjection;
use simqueue::loss::IidLoss;
use simqueue::{
    LazyExtraction, NetView, RingRecorder, RoutingProtocol, SimObserver, Simulation, StepRecord,
    TraceEvent, TraceRenderer, Transmission, WindowAggregator, WindowStats,
};

/// Renders every step record and requires the fold of its events to give
/// the record back.
struct StepCheck {
    renderer: TraceRenderer,
    fold: EventFold,
    events: Vec<TraceEvent>,
    steps: u64,
}

impl SimObserver for StepCheck {
    fn on_step(&mut self, step: &StepRecord<'_>) {
        self.events.clear();
        self.renderer.render(step, |ev| self.events.push(ev));
        let back = self.fold.fold(&self.events);
        assert_eq!(back, OwnedStep::of(step), "step {}", step.ledger.t);
        self.steps += 1;
    }
}

/// The run's observers: the step check, window telemetry and an event
/// capture, each fed by the same engine.
struct Probe {
    check: StepCheck,
    windows: WindowAggregator,
    ring: RingRecorder,
}

impl SimObserver for Probe {
    fn on_step(&mut self, step: &StepRecord<'_>) {
        self.check.on_step(step);
        self.windows.on_step(step);
        self.ring.on_step(step);
    }
}

fn probe(spec: &TrafficSpec, window: u64) -> Probe {
    Probe {
        check: StepCheck {
            renderer: TraceRenderer::new(),
            fold: EventFold::new(spec, vec![0; spec.node_count()]),
            events: Vec::new(),
            steps: 0,
        },
        windows: WindowAggregator::new(window),
        ring: RingRecorder::new(usize::MAX),
    }
}

/// Runs `sim` to `steps`, draining the event capture every chunk into an
/// event-side window fold, and returns (aggregator windows, event
/// windows).
fn run_both(
    sim: &mut Simulation<Probe>,
    steps: u64,
    window: u64,
) -> (Vec<WindowStats>, Vec<WindowStats>) {
    let mut from_events = EventWindows::new(window);
    while sim.time() < steps {
        sim.run((steps - sim.time()).min(1_000));
        for ev in sim.observer_mut().ring.take() {
            from_events.push(&ev);
        }
    }
    assert_eq!(
        sim.observer().check.steps,
        steps,
        "every step reached on_step"
    );
    let windows = &mut sim.observer_mut().windows;
    windows.finish();
    (windows.windows().to_vec(), from_events.finish())
}

fn scenario_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

#[test]
fn step_records_equal_event_folds_on_all_scenarios() {
    let mut seen = 0;
    for entry in std::fs::read_dir(scenario_dir()).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let sc = Scenario::from_json(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = sc.traffic_spec().unwrap();
        let window = 256;
        let mut sim = sc
            .build_with_observer(SimOverrides::default(), probe(&spec, window))
            .unwrap();
        eprintln!("ledger: {name} ({} steps)", sc.steps);
        let (aggregated, folded) = run_both(&mut sim, sc.steps, window);
        assert_eq!(aggregated.len() as u64, sc.steps.div_ceil(window), "{name}");
        assert_eq!(aggregated, folded, "{name}: windows diverged");
        seen += 1;
    }
    assert!(seen >= 4, "scenario corpus shrank: only {seen} files");
}

/// LGG, then its first transmission once more: the link is taken, so the
/// engine has a plan entry to reject in every step that sends.
struct Sloppy(Lgg);

impl RoutingProtocol for Sloppy {
    fn name(&self) -> &'static str {
        "sloppy-lgg"
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        self.0.plan(view, out);
        if let Some(&first) = out.first() {
            out.push(first);
        }
    }
}

/// A random network with lying specials, so every part of a record is
/// busy: link flips, injections, lies, rejections, losses and
/// extractions.
fn busy_spec(seed: u64, n: usize) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_random(n, n / 2, &mut rng);
    TrafficSpecBuilder::new(g)
        .retention(3)
        .source(0, 2)
        .source((n as u32) / 2, 1)
        .generalized(1, 1, 1)
        .sink((n - 1) as u32, 3)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn step_records_equal_event_folds(
        seed in 0u64..500,
        n in 4usize..120,
        steps in 1u64..400,
        window in 1u64..64,
    ) {
        let spec = busy_spec(seed, n);
        let mut parts = Parts::new(spec.clone(), Box::new(Sloppy(Lgg::new())));
        parts.injection = Box::new(BernoulliInjection::new(0.7));
        parts.loss = Box::new(IidLoss::new(0.2));
        parts.topology = Box::new(MarkovTopology::new(0.05, 0.4, vec![]));
        parts.declaration = Box::new(RandomBelowRetention);
        parts.extraction = Box::new(LazyExtraction);
        parts.seed = seed;
        let mut sim = parts.builder().observer(probe(&spec, window)).build();
        let (aggregated, folded) = run_both(&mut sim, steps, window);
        prop_assert_eq!(aggregated, folded);
    }
}
