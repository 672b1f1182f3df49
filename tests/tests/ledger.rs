//! Integration: the trace rendered from a step record says exactly what
//! the record says. Each record the engine lends `SimObserver::on_step`
//! is rendered into `TraceEvent`s, and folding those events back must
//! give the record again; the window telemetry built from step records
//! must equal the windows folded from a rendered capture of the same run.
//!
//! The guard and `WindowAggregator` read step records; JSONL traces are
//! rendered from them. These tests keep the two views of a run from
//! drifting apart, on every scenario file and on random configurations,
//! and hold the aggregator's window store (saved, loaded and closed) to
//! the windows folded from events.

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
    LazyExtraction, NetView, NodeAmount, RoutingProtocol, SimObserver, Simulation, StepLedger,
    StepRecord, TraceEvent, TraceRenderer, Transmission, WindowAggregator, WindowStats,
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

/// The run's observers: the step check, window telemetry and the windows
/// folded from the events the check rendered, each fed by the same
/// engine.
struct Probe {
    check: StepCheck,
    windows: WindowAggregator,
    from_events: EventWindows,
}

impl SimObserver for Probe {
    fn on_step(&mut self, step: &StepRecord<'_>) {
        self.check.on_step(step);
        self.windows.on_step(step);
        for ev in &self.check.events {
            self.from_events.push(ev);
        }
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
        from_events: EventWindows::new(window),
    }
}

/// Runs `sim` to `steps` and returns (aggregator windows, event windows).
fn run_both(mut sim: Simulation<Probe>, steps: u64) -> (Vec<WindowStats>, Vec<WindowStats>) {
    sim.run(steps);
    let probe = sim.into_observer();
    assert_eq!(probe.check.steps, steps, "every step reached on_step");
    (probe.windows.into_windows(), probe.from_events.finish())
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
        let sim = sc
            .build_with_observer(SimOverrides::default(), probe(&spec, window))
            .unwrap();
        eprintln!("ledger: {name} ({} steps)", sc.steps);
        let (aggregated, folded) = run_both(sim, sc.steps);
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
        let sim = parts.builder().observer(probe(&spec, window)).build();
        let (aggregated, folded) = run_both(sim, steps);
        prop_assert_eq!(aggregated, folded);
    }
}

proptest! {
    /// The window store against the windows folded from rendered events,
    /// over random step records: losses on a few links (repeats
    /// included), steps with no queue, clock gaps that skip whole windows,
    /// a save and load at a random step (usually mid-window), and a
    /// trailing partial window. At the cut the closed windows must equal
    /// the fold's and a loaded store must save the bytes it was loaded
    /// from; `contract.rs` pins the bytes themselves.
    #[test]
    fn window_store_matches_the_reference(
        size in 1u64..9,
        steps in 0usize..90,
        cut in 0usize..90,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        // Five parallel links between nodes 0 and 1.
        let mut b = mgraph::MultiGraphBuilder::with_nodes(2);
        for _ in 0..5 {
            b.add_edge(mgraph::NodeId::new(0), mgraph::NodeId::new(1)).unwrap();
        }
        let graph = b.build();
        let (mut w, mut renderer) = (WindowAggregator::new(size), TraceRenderer::new());
        let mut from_events = EventWindows::new(size);
        let mut t = rng.random_range(0..2 * size);
        for i in 0..steps {
            let tx = |edge| Transmission {
                edge: mgraph::EdgeId::new(edge),
                from: mgraph::NodeId::new(0),
            };
            let plan: Vec<Transmission> =
                (0..rng.random_range(0..4)).map(|_| tx(rng.random_range(0..5))).collect();
            let lost: Vec<bool> = plan.iter().map(|_| rng.random_range(0..3) == 0).collect();
            let rejected = vec![tx(0); rng.random_range(0..2)];
            let [injected, extracted] = [0, 1].map(|node| NodeAmount {
                node: mgraph::NodeId::new(node),
                amount: rng.random_range(0..5),
            });
            let max_queue = if rng.random_range(0..4) == 0 { 0 } else { rng.random_range(1..600) };
            let ledger = StepLedger {
                t,
                injected: injected.amount,
                delivered: extracted.amount,
                rejected: rejected.len() as u64,
                sent: plan.len() as u64,
                lost: lost.iter().filter(|&&l| l).count() as u64,
                pt: rng.random_range(0..1u64 << 40) as u128,
                max_queue,
                active: rng.random_range(0..4),
                ..StepLedger::default()
            };
            let step = StepRecord {
                ledger,
                graph: &graph,
                injected: &[injected],
                declarations: &[],
                rejected: &rejected,
                plan: &plan,
                lost: &lost,
                extracted: &[extracted],
                active_edges: &[true; 5],
            };
            w.on_step(&step);
            renderer.render(&step, |ev| from_events.push(&ev));
            if i == cut {
                let mut bytes = Vec::new();
                w.save_state(&mut bytes);
                let closed = w.windows();
                w = WindowAggregator::new(1);
                w.load_state(&bytes).unwrap();
                let mut again = Vec::new();
                w.save_state(&mut again);
                prop_assert_eq!(again, bytes);
                prop_assert_eq!(&w.windows(), &closed);
                let mut folded = from_events.clone().finish();
                folded.pop(); // the open window
                prop_assert_eq!(closed, folded);
            }
            t += match rng.random_range(0..6) {
                0 => rng.random_range(size..3 * size + 1),
                _ => 1,
            };
        }
        w.finish();
        let folded = from_events.finish();
        prop_assert_eq!(&w.windows(), &folded);
        prop_assert_eq!(w.into_windows(), folded);
    }
}
