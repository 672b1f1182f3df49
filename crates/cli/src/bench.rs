//! `lgg-sim bench`: a fixed throughput suite timing the step pipeline
//! ([`simqueue::Simulation::step`]) on workloads from nearly idle to
//! saturated, writing the numbers to `BENCH_throughput.json`.
//!
//! The suite is deliberately small and fixed so successive runs (and
//! successive PRs) produce comparable files:
//!
//! * `grid-16x16-steady` / `grid-64x64-steady` — single source/sink pair on
//!   a grid, feasible rates, shortest-path forwarding: the steady state
//!   keeps only the packets in flight busy, so almost the whole grid is
//!   idle, and the active-set pipeline visits only the busy nodes. (The
//!   protocol matters: LGG's steady state is a network-wide queue
//!   *gradient* — nearly every node holds packets by construction — so a
//!   draining protocol is the one that actually exhibits a sparse active
//!   set.)
//! * `lgg-gradient-16x16` — the same grid under LGG, recording the dense
//!   gradient regime honestly: here the active set is nearly all of `V`.
//! * `random-512-dense` — an oversubscribed random graph where backlogs
//!   grow everywhere; the active set approaches all of `V` (an honest
//!   worst case).
//! * three files from `scenarios/` — saturated dumbbell, lossy sensor
//!   field (matching-LGG + Gilbert–Elliott loss), bursty R-generalized
//!   gauntlet (lying + lazy extraction) — covering the declaration and
//!   loss machinery.
//!
//! Each case is run once untimed as warm-up, then `REPS` times; the
//! fastest repetition is reported (minimum-of-N is the usual noise filter
//! for throughput benches).
//!
//! Below the step pipeline, the same timing covers one table of layer
//! kernels ([`LayerTiming`]): the max-flow solvers, the feasibility
//! classifier, the Fig. 2/3 constructions, one LGG step, the LGG and
//! matching planners alone on captured views, and the E11 protocol and
//! E14 ablation runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use lgg_core::baselines::{Flood, MaxFlowRouting, RandomForward, ShortestPathRouting};
use lgg_core::interference::MatchingLgg;
use lgg_core::{Lgg, TieBreak};
use maxflow::{Algorithm, FlowNetwork};
use mgraph::{generators, NodeId};
use netmodel::{
    classify, decompose_at_cut, find_interior_min_cut, ExtendedNetwork, TrafficSpec,
    TrafficSpecBuilder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simqueue::declare::{FullRetention, TruthfulDeclaration, ZeroBelowRetention};
use simqueue::dynamic::{MarkovTopology, RotatingOutage, TopologyProcess};
use simqueue::injection::UniformInjection;
use simqueue::loss::{GilbertElliottLoss, IidLoss, LossModel};
use simqueue::{
    DeclarationPolicy, GuardConfig, HistoryMode, InvariantGuard, NetView, NoopObserver,
    RoutingProtocol, SimObserver, SimulationBuilder, Transmission, WindowAggregator,
};

use crate::sweep::SweepReport;
use crate::{Endpoint, LggError, ProtocolSpec, Scenario, SimOverrides, TopologySpec};

/// Timed repetitions per case; the fastest is reported. Five because the
/// min-of-N filter has to beat scheduler noise on shared machines: the
/// 2% observer gate is tighter than the noise floor of a 3-rep minimum.
const REPS: usize = 5;

/// Throughput numbers for one timed leg.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct EngineThroughput {
    /// Simulation steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Nanoseconds per (node + edge) · step — a size-normalized cost that
    /// is comparable across topologies.
    pub ns_per_node_edge_step: f64,
}

/// One benchmark case.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BenchCase {
    /// Suite-stable case name.
    pub name: String,
    /// Node count of the topology.
    pub nodes: usize,
    /// Edge count of the topology.
    pub edges: usize,
    /// Steps simulated per timed repetition.
    pub steps: u64,
    /// Step-pipeline throughput.
    pub throughput: EngineThroughput,
}

/// The whole suite, as serialized to `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BenchReport {
    /// Provenance marker for the file.
    pub generated_by: String,
    /// One entry per suite case, in suite order.
    pub cases: Vec<BenchCase>,
    /// Parallel sweep wall-clock numbers (`lgg-sim sweep`); absent until
    /// the first sweep run, preserved across `lgg-sim bench` rewrites.
    #[serde(default)]
    pub sweep: Option<SweepReport>,
    /// Observer-overhead numbers (disabled vs live observers); absent in
    /// files written before the telemetry subsystem existed.
    #[serde(default)]
    pub observer: Option<ObserverBench>,
    /// Invariant-guard overhead numbers; absent in files written before
    /// the guard existed.
    #[serde(default)]
    pub guard: Option<GuardBench>,
    /// Per-kernel timings of the layers below the step pipeline (max-flow,
    /// classification, figure constructions, protocol and ablation runs);
    /// absent in files written before the suite timed them.
    #[serde(default)]
    pub layers: Option<Vec<LayerTiming>>,
}

/// Invariant-guard overhead on one case: the unguarded production path
/// against a fully-checking [`simqueue::InvariantGuard`], same step count
/// for both legs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct GuardBench {
    /// Suite case the overhead is measured on.
    pub case: String,
    /// Steps per timed repetition (never scaled by `--quick`, same
    /// reasoning as [`ObserverBench::steps`]).
    pub steps: u64,
    /// The unguarded production path (`Scenario::build`, telemetry off) —
    /// the leg the 2% regression gate watches; the guard must cost
    /// nothing when it is not installed.
    pub off: EngineThroughput,
    /// All hard invariant checks live (conservation, link capacity,
    /// declaration legality) on a [`simqueue::NoopObserver`] inner.
    pub guarded: EngineThroughput,
    /// `guarded.steps_per_sec / off.steps_per_sec`. The guard can be on
    /// by default once this is at least 0.9 (ROADMAP item 4).
    pub guarded_vs_off: f64,
    /// The configuration `lgg-sim run --guard` installs: the hard checks
    /// plus the online divergence detector, assessed every 128 steps.
    pub guarded_divergence: EngineThroughput,
    /// `guarded_divergence.steps_per_sec / off.steps_per_sec`.
    pub guarded_divergence_vs_off: f64,
}

/// Observer overhead on one case: the production disabled path against
/// a live window aggregator, same step count for both legs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ObserverBench {
    /// Suite case the overhead is measured on.
    pub case: String,
    /// Steps per timed repetition. Never scaled by `--quick`: the CI
    /// regression gate compares these numbers against a recorded
    /// baseline, and a 2% bar is meaningless on 1/10-length runs.
    pub steps: u64,
    /// The production path of a default run: `Scenario::build` with the
    /// `telemetry` section off (a dynamically dispatched observer that
    /// ignores the step records). This is the leg the 2% regression gate
    /// watches.
    pub off: EngineThroughput,
    /// [`WindowAggregator`] with window 256 — every step record is folded
    /// into running aggregates (the experiments-driver configuration); it
    /// renders no events.
    pub window: EngineThroughput,
    /// `window.steps_per_sec / off.steps_per_sec`.
    pub window_vs_off: f64,
}

/// Builds the synthetic suite scenarios (shared with `lgg-sim sweep`).
pub(crate) fn synthetic_cases(quick: bool) -> Vec<(String, Scenario, u64)> {
    let base = Scenario::from_json(
        r#"{"topology": {"kind": "path", "n": 2},
            "sources": [{"node": 0, "rate": 1}],
            "sinks": [{"node": 1, "rate": 1}],
            "protocol": "lgg"}"#,
    )
    .expect("static template parses");

    let grid16 = Scenario {
        topology: TopologySpec::Grid2d { rows: 16, cols: 16 },
        sources: vec![Endpoint { node: 0, rate: 1 }],
        sinks: vec![Endpoint { node: 255, rate: 2 }],
        protocol: ProtocolSpec::ShortestPath,
        seed: 1,
        ..base.clone()
    };
    let grid64 = Scenario {
        topology: TopologySpec::Grid2d { rows: 64, cols: 64 },
        sources: vec![Endpoint { node: 0, rate: 1 }],
        sinks: vec![Endpoint {
            node: 4095,
            rate: 2,
        }],
        protocol: ProtocolSpec::ShortestPath,
        seed: 1,
        ..base.clone()
    };
    let lgg16 = Scenario {
        protocol: ProtocolSpec::Lgg,
        ..grid16.clone()
    };
    // Oversubscribed: 64 spread sources feed one sink whose extraction
    // cannot keep up, so queues grow network-wide and the active set
    // approaches all of V.
    let random512 = Scenario {
        topology: TopologySpec::ConnectedRandom {
            n: 512,
            extra: 1536,
            seed: 42,
        },
        sources: (0..64)
            .map(|i| Endpoint {
                node: i * 8,
                rate: 1,
            })
            .collect(),
        sinks: vec![Endpoint {
            node: 511,
            rate: 64,
        }],
        protocol: ProtocolSpec::Lgg,
        seed: 1,
        ..base
    };

    let scale = if quick { 10 } else { 1 };
    vec![
        ("grid-16x16-steady".into(), grid16, 50_000 / scale),
        ("grid-64x64-steady".into(), grid64, 10_000 / scale),
        ("lgg-gradient-16x16".into(), lgg16, 20_000 / scale),
        ("random-512-dense".into(), random512, 2_000 / scale),
    ]
}

/// The `scenarios/` files in the suite, with step counts capped so each
/// case finishes in seconds.
const SCENARIO_FILES: &[(&str, &str, u64)] = &[
    ("saturated-dumbbell", "saturated_dumbbell.json", 20_000),
    ("lossy-sensor-field", "lossy_sensor_field.json", 20_000),
    ("bursty-rgen-gauntlet", "bursty_rgen_gauntlet.json", 20_000),
];

/// One timed leg: builds a fresh simulation with `build` and returns the
/// nanoseconds `n` steps of it take. The build runs outside the timed
/// region, so observer construction cost never leaks into the per-step
/// numbers.
fn leg<O, F>(build: F) -> impl FnMut(u64) -> Result<f64, LggError>
where
    O: SimObserver,
    F: Fn() -> Result<simqueue::Simulation<O>, LggError>,
{
    move |n| {
        let mut sim = build()?;
        let t = Instant::now();
        sim.run(n);
        let ns = t.elapsed().as_nanos() as f64;
        // Consume a result so the run cannot be optimized away.
        std::hint::black_box(sim.metrics().sup_total);
        Ok(ns)
    }
}

/// Times `steps` steps of each leg: one untimed warm-up run of each
/// (caches, page faults), then [`REPS`] rounds in which every leg runs
/// once, in order. Each leg's fastest round is returned. Interleaving the
/// legs puts them through the same host conditions, so a slow stretch of
/// the machine cannot skew the ratios between them.
fn time_interleaved<const N: usize>(
    mut legs: [&mut dyn FnMut(u64) -> Result<f64, LggError>; N],
    steps: u64,
) -> Result<[f64; N], LggError> {
    for leg in legs.iter_mut() {
        leg(steps.min(1_000))?;
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..REPS {
        for (leg, best) in legs.iter_mut().zip(&mut best) {
            *best = best.min(leg(steps)?);
        }
    }
    Ok(best)
}

/// History override shared by every timed leg of a case. `SimOverrides`
/// owns a boxed observer slot, so it is rebuilt per call rather than
/// cloned.
fn bench_overrides() -> SimOverrides {
    SimOverrides {
        history: Some(HistoryMode::None),
        ..SimOverrides::default()
    }
}

/// Rounds `x` to `decimals` decimal places (report formatting).
pub(crate) fn round(x: f64, decimals: i32) -> f64 {
    let f = 10f64.powi(decimals);
    (x * f).round() / f
}

fn run_case(name: &str, sc: &Scenario, steps: u64) -> Result<BenchCase, LggError> {
    let spec = sc.traffic_spec()?;
    let nodes = spec.graph.node_count();
    let edges = spec.graph.edge_count();

    let [ns] = time_interleaved(
        [&mut leg(|| {
            sc.build_with_observer(bench_overrides(), NoopObserver)
        })],
        steps,
    )?;
    Ok(BenchCase {
        name: name.to_string(),
        nodes,
        edges,
        steps,
        throughput: throughput(steps, &spec)(ns),
    })
}

/// Converts a leg's nanoseconds for `steps` steps on `spec`'s topology
/// into its throughput.
fn throughput(steps: u64, spec: &TrafficSpec) -> impl Fn(f64) -> EngineThroughput {
    let size = (spec.graph.node_count() + spec.graph.edge_count()) as f64;
    move |ns| EngineThroughput {
        steps_per_sec: round(steps as f64 / (ns / 1e9), 1),
        ns_per_node_edge_step: round(ns / (steps as f64 * size), 3),
    }
}

/// The case both overhead sections measure: the first synthetic case
/// (`grid-16x16-steady`) at full length, with its traffic spec.
fn overhead_case() -> Result<(String, Scenario, u64, TrafficSpec), LggError> {
    let (name, sc, steps) = synthetic_cases(false)
        .into_iter()
        .next()
        .expect("fixed suite is non-empty");
    debug_assert_eq!(name, "grid-16x16-steady");
    let spec = sc.traffic_spec()?;
    Ok((name, sc, steps, spec))
}

/// Measures observer overhead on the `grid-16x16-steady` case.
/// The disabled leg goes through the production [`Scenario::build`] path
/// (a `Simulation<ScenarioObserver>` with `telemetry: off`), so the
/// number reflects what every default `lgg-sim` run actually pays for
/// having the telemetry subsystem compiled in — not an assumption about
/// dead-code elimination.
pub fn observer_bench() -> Result<ObserverBench, LggError> {
    let (name, sc, steps, spec) = overhead_case()?;
    eprintln!("bench: observer overhead on {name} ({steps} steps x{REPS} reps x2 observers)...");
    let [off, window] = time_interleaved(
        [
            &mut leg(|| sc.build(bench_overrides())),
            &mut leg(|| sc.build_with_observer(bench_overrides(), WindowAggregator::new(256))),
        ],
        steps,
    )?
    .map(throughput(steps, &spec));

    Ok(ObserverBench {
        case: name,
        steps,
        off,
        window,
        window_vs_off: round(window.steps_per_sec / off.steps_per_sec, 3),
    })
}

/// Measures invariant-guard overhead on the `grid-16x16-steady` case: the
/// unguarded production build path against the same scenario with every
/// hard check live. The guard reads one step record per step (the ledger,
/// the validated plan, the link mask and the declarations at `S ∪ D`) and
/// renders no trace events; with its `NoopObserver` inner nothing does.
/// ROADMAP item 4 targets `guarded_vs_off ≥ 0.9`. A third leg adds the
/// online divergence detector, as `lgg-sim run --guard` does.
pub fn guard_bench() -> Result<GuardBench, LggError> {
    let (name, sc, steps, spec) = overhead_case()?;
    let guarded_with = |divergence: bool| {
        let config = GuardConfig {
            divergence,
            ..GuardConfig::checks()
        };
        sc.build_with_observer(bench_overrides(), InvariantGuard::new(&spec, config))
    };
    eprintln!("bench: guard overhead on {name} ({steps} steps x{REPS} reps x3 legs)...");
    let [off, guarded, guarded_divergence] = time_interleaved(
        [
            &mut leg(|| sc.build(bench_overrides())),
            &mut leg(|| guarded_with(false)),
            &mut leg(|| guarded_with(true)),
        ],
        steps,
    )?
    .map(throughput(steps, &spec));
    let vs_off = |t: EngineThroughput| round(t.steps_per_sec / off.steps_per_sec, 3);

    Ok(GuardBench {
        case: name,
        steps,
        off,
        guarded,
        guarded_vs_off: vs_off(guarded),
        guarded_divergence,
        guarded_divergence_vs_off: vs_off(guarded_divergence),
    })
}

/// One layer kernel's timing: the fastest of [`REPS`] repetitions of
/// `iters` back-to-back calls, divided by `iters`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct LayerTiming {
    /// Suite-stable kernel id, e.g. `maxflow/grid/dinic/16x16`.
    pub name: String,
    /// Kernel calls per timed repetition (1 under `--quick`).
    pub iters: u64,
    /// Nanoseconds per kernel call.
    pub ns_per_iter: f64,
}

/// A layer-kernel row: its id, its calls per timed repetition in the full
/// suite, and the kernel, which runs once per call.
type LayerRow = (String, u64, Box<dyn FnMut()>);

fn row<T>(
    name: impl Into<String>,
    iters: u64,
    mut kernel: impl FnMut() -> T + 'static,
) -> LayerRow {
    let run = move || {
        std::hint::black_box(kernel());
    };
    (name.into(), iters, Box::new(run))
}

/// The arrays behind one [`NetView`], copied out of a running simulation.
#[derive(Clone)]
struct CapturedView {
    declared: Vec<u64>,
    queues: Vec<u64>,
    active_edges: Vec<bool>,
    active_nodes: Vec<NodeId>,
    t: u64,
}

impl CapturedView {
    fn view<'a>(&'a self, spec: &'a TrafficSpec) -> NetView<'a> {
        NetView {
            graph: &spec.graph,
            spec,
            declared: &self.declared,
            true_queues: &self.queues,
            active_edges: &self.active_edges,
            active_nodes: &self.active_nodes,
            t: self.t,
        }
    }
}

/// LGG that records the views of steps `from..from + count`.
struct Capture {
    lgg: Lgg,
    from: u64,
    count: usize,
    views: Rc<RefCell<Vec<CapturedView>>>,
}

impl RoutingProtocol for Capture {
    fn name(&self) -> &'static str {
        self.lgg.name()
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        let mut views = self.views.borrow_mut();
        if view.t >= self.from && views.len() < self.count {
            views.push(CapturedView {
                declared: view.declared.to_vec(),
                queues: view.true_queues.to_vec(),
                active_edges: view.active_edges.to_vec(),
                active_nodes: view.active_nodes.to_vec(),
                t: view.t,
            });
        }
        self.lgg.plan(view, out);
    }
}

/// The views LGG plans from at steps `from..from + count` of `spec`,
/// with one link down per step (rotating) when `rotating`.
fn captured_views(
    spec: &TrafficSpec,
    rotating: bool,
    from: u64,
    count: usize,
) -> Vec<CapturedView> {
    let views = Rc::new(RefCell::new(Vec::new()));
    let capture = Capture {
        lgg: Lgg::new(),
        from,
        count,
        views: Rc::clone(&views),
    };
    let mut builder =
        SimulationBuilder::new(spec.clone(), Box::new(capture)).history(HistoryMode::None);
    if rotating {
        builder = builder.topology(Box::new(RotatingOutage { k: 1 }));
    }
    builder.build().run(from + count as u64);
    views.take()
}

/// A plan-kernel row: one call plans each of `views` once with `protocol`.
fn plan_row(
    name: &str,
    iters: u64,
    spec: TrafficSpec,
    views: Vec<CapturedView>,
    mut protocol: impl RoutingProtocol + 'static,
) -> LayerRow {
    let mut out = Vec::new();
    row(name, iters, move || {
        let mut entries = 0;
        for v in &views {
            out.clear();
            protocol.plan(&v.view(&spec), &mut out);
            entries += out.len();
        }
        entries
    })
}

/// A source at `g`'s first node and a sink at its last.
fn corner_spec(g: mgraph::MultiGraph, source: u64, sink: u64) -> TrafficSpec {
    let last = (g.node_count() - 1) as u32;
    TrafficSpecBuilder::new(g)
        .source(0, source)
        .sink(last, sink)
        .build()
        .unwrap()
}

/// The E1/E4/E8 stability cases: unsaturated, saturated and infeasible.
fn stability_specs() -> [(&'static str, TrafficSpec); 3] {
    [
        (
            "unsaturated-grid",
            corner_spec(generators::grid2d(5, 5), 1, 4),
        ),
        (
            "saturated-dumbbell",
            corner_spec(generators::dumbbell(4, 2), 1, 4),
        ),
        ("infeasible-path", corner_spec(generators::path(5), 3, 3)),
    ]
}

/// The layer kernels below the step pipeline: the E14 ablations, the
/// Fig. 2/3 constructions, the per-step cost of LGG and of its planners
/// alone, the max-flow solvers on `G*`-like networks, the E11 protocol
/// comparison, and the E1/E4/E8 stability runs with the classifier that
/// gates them. Rows are built eagerly (a step row owns a simulation
/// already run 200 steps into its steady state, a plan row the views of
/// a run 2000 steps in); sizes and seeds are fixed so ids stay comparable.
fn layer_table() -> Vec<LayerRow> {
    let mut rows = Vec::new();

    // E14 ablations, 1000 steps each; the backlog is the kernel's result,
    // so a policy that destabilized would show as divergent time too. `K12`
    // is a dense hub where tie-breaking has choices to make.
    let k12 = TrafficSpecBuilder::new(generators::complete(12))
        .source(0, 4)
        .source(1, 3)
        .sink(10, 4)
        .sink(11, 4)
        .build()
        .unwrap();
    for tb in TieBreak::ALL {
        let spec = k12.clone();
        let name = format!("ablation_tiebreak/K12_1000steps/{}", tb.name());
        rows.push(row(name, 10, move || {
            SimulationBuilder::new(spec.clone(), Box::new(Lgg::with_tie_break(tb, 1)))
                .history(HistoryMode::None)
                .build()
                .run(1000)
                .sup_total
        }));
    }
    let liars = TrafficSpecBuilder::new(generators::grid2d(4, 4))
        .generalized(0, 2, 1)
        .generalized(15, 1, 3)
        .retention(8)
        .build()
        .unwrap();
    type Declare = fn() -> Box<dyn DeclarationPolicy>;
    let policies: [(&str, Declare); 3] = [
        ("truthful", || Box::new(TruthfulDeclaration)),
        ("zero-below-r", || Box::new(ZeroBelowRetention)),
        ("full-retention", || Box::new(FullRetention)),
    ];
    for (name, declare) in policies {
        let spec = liars.clone();
        let name = format!("ablation_lying/grid4x4_R8_1000steps/{name}");
        rows.push(row(name, 10, move || {
            SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
                .declaration(declare())
                .history(HistoryMode::None)
                .build()
                .run(1000)
                .sup_total
        }));
    }
    for pct in [0u32, 10, 30, 60, 90] {
        let spec = k12.clone();
        let name = format!("ablation_loss/K12_1000steps/p{pct}");
        rows.push(row(name, 10, move || {
            SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
                .loss(Box::new(IidLoss::new(pct as f64 / 100.0)))
                .history(HistoryMode::None)
                .build()
                .run(1000)
                .sup_total
        }));
    }

    // Fig. 2: building and solving `G*`; Fig. 3: locating an interior
    // minimum cut and decomposing the network at it. The dumbbell is two
    // `clique`-cliques joined by a 2-path.
    let dumbbell_spec =
        |clique: usize| corner_spec(generators::dumbbell(clique, 2), 1, clique as u64);
    for clique in [8usize, 16, 32] {
        let spec = dumbbell_spec(clique);
        let name = format!("fig2_extended_gstar/dumbbell{clique}");
        rows.push(row(name, 500, move || {
            ExtendedNetwork::feasibility(&spec).solve(Algorithm::Dinic)
        }));
    }
    for clique in [4usize, 8, 16] {
        let spec = dumbbell_spec(clique);
        let name = format!("fig3_interior_min_cut/dumbbell{clique}");
        rows.push(row(name, 500, move || find_interior_min_cut(&spec)));
    }
    for clique in [8usize, 16, 32] {
        let spec = dumbbell_spec(clique);
        let side = find_interior_min_cut(&spec).expect("interior cut");
        let name = format!("fig3_decompose/dumbbell{clique}");
        rows.push(row(name, 1000, move || decompose_at_cut(&spec, &side, 5)));
    }

    // One LGG step on a steady-state simulation, as the grid grows and as
    // a 512-node random graph densifies.
    let mut stepper = |name: String, spec: TrafficSpec, iters: u64| {
        let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
            .history(HistoryMode::None)
            .build();
        sim.run(200);
        rows.push(row(name, iters, move || {
            sim.step();
            sim.total_packets()
        }));
    };
    for side in [8usize, 16, 32, 64] {
        let n = side * side;
        stepper(
            format!("lgg_step/grid/{n}"),
            corner_spec(generators::grid2d(side, side), 2, 4),
            2000,
        );
    }
    for factor in [1usize, 4, 16] {
        let g = generators::connected_random(512, 512 * factor, &mut StdRng::seed_from_u64(7));
        let m = g.edge_count();
        stepper(
            format!("lgg_step/random_density/m{m}"),
            corner_spec(g, 2, 4),
            200,
        );
    }

    // The planner alone, on views captured from running simulations: the
    // `flapping_fabric` leaf-spine under rotating outages (three active
    // nodes per step) and the 16×16 grid of `lgg-gradient` (about 180 of
    // its 256 nodes active). One call plans every captured step once.
    let fabric = TrafficSpecBuilder::new(generators::leaf_spine(4, 2, 2, 3))
        .source(0, 1)
        .source(1, 1)
        .sink(2, 2)
        .sink(3, 2)
        .build()
        .unwrap();
    let fabric_views = captured_views(&fabric, true, 2000, 64);
    rows.push(plan_row(
        "lgg_plan/leaf_spine",
        20_000,
        fabric,
        fabric_views,
        Lgg::new(),
    ));
    let grid = corner_spec(generators::grid2d(16, 16), 1, 2);
    let grid_views = captured_views(&grid, false, 2000, 16);
    rows.push(plan_row(
        "lgg_plan/grid/16",
        2000,
        grid.clone(),
        grid_views.clone(),
        Lgg::new(),
    ));
    rows.push(plan_row(
        "matching_lgg_plan/grid/16",
        2000,
        grid,
        grid_views,
        MatchingLgg::new(),
    ));

    // The RNG-driven fault models alone, one call per step on a 128-link
    // cycle: the Markov link process updates every link, the
    // Gilbert–Elliott channel advances every link and draws for a plan
    // with one entry per link, and i.i.d. loss draws for the same plan.
    let ring = generators::cycle(128);
    let plan: Vec<Transmission> = ring
        .edges()
        .map(|edge| Transmission {
            edge,
            from: ring.endpoints(edge).0,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(11);
    let mut markov = MarkovTopology::new(0.05, 0.3, Vec::new());
    let mut active = vec![true; ring.edge_count()];
    let g = ring.clone();
    rows.push(row(
        "fault_model/markov_update/cycle128",
        20_000,
        move || {
            markov.update(&g, 0, &mut rng, &mut active);
            active.iter().filter(|&&a| a).count()
        },
    ));
    type Loss = fn() -> Box<dyn LossModel>;
    let losses: [(&str, Loss); 2] = [
        ("gilbert_elliott_apply", || {
            Box::new(GilbertElliottLoss::new(0.02, 0.5, 0.05, 0.25))
        }),
        ("iid_loss_apply", || Box::new(IidLoss::new(0.2))),
    ];
    for (name, make) in losses {
        let (g, plan, mut model) = (ring.clone(), plan.clone(), make());
        let mut rng = StdRng::seed_from_u64(11);
        let mut lost = vec![false; plan.len()];
        let name = format!("fault_model/{name}/cycle128");
        rows.push(row(name, 20_000, move || {
            lost.fill(false);
            model.apply(&g, &plan, &[], 0, &mut rng, &mut lost);
            lost.iter().filter(|&&l| l).count()
        }));
    }

    // The max-flow solvers on unit-capacity networks. Each call clones the
    // prepared network and solves the clone, so the clone is timed too.
    let grids = [(8usize, 1000), (16, 200), (24, 50)]
        .map(|(s, iters)| ("grid", format!("{s}x{s}"), generators::grid2d(s, s), iters));
    let randoms = [(100usize, 200usize, 500), (400, 800, 10)].map(|(n, m, iters)| {
        let g = generators::connected_random(n, m, &mut StdRng::seed_from_u64(42));
        ("random", format!("n{n}m{m}"), g, iters)
    });
    let cubes = [(6u32, 1000), (8, 200)].map(|(d, iters)| {
        (
            "hypercube",
            format!("d{d}"),
            generators::hypercube(d),
            iters,
        )
    });
    for (family, label, g, iters) in grids.into_iter().chain(randoms).chain(cubes) {
        let net = FlowNetwork::from_multigraph_unit(&g);
        let t = g.node_count() - 1;
        for algo in Algorithm::ALL {
            let net = net.clone();
            let name = format!("maxflow/{family}/{}/{label}", algo.name());
            rows.push(row(name, iters, move || net.clone().max_flow(0, t, algo)));
        }
    }

    // E11: 500 steps of each protocol on one workload, then the route
    // planning the two clairvoyant comparators pay up front.
    let e11 = TrafficSpecBuilder::new(generators::grid2d(12, 12))
        .source(0, 2)
        .source(11, 1)
        .sink(143, 4)
        .sink(132, 2)
        .build()
        .unwrap();
    type Make = fn(&TrafficSpec) -> Box<dyn RoutingProtocol>;
    let protocols: [(&str, Make); 6] = [
        ("lgg", |_| Box::new(Lgg::new())),
        ("maxflow-routing", |s| Box::new(MaxFlowRouting::new(s))),
        ("shortest-path", |s| Box::new(ShortestPathRouting::new(s))),
        ("flood", |_| Box::new(Flood)),
        ("random-forward", |_| Box::new(RandomForward::new(1))),
        ("matching-lgg", |_| Box::new(MatchingLgg::new())),
    ];
    for (name, make) in protocols {
        let spec = e11.clone();
        let name = format!("protocol_run/grid12x12_500steps/{name}");
        rows.push(row(name, 5, move || {
            SimulationBuilder::new(spec.clone(), make(&spec))
                .history(HistoryMode::None)
                .build()
                .run(500)
                .delivered
        }));
    }
    let spec = e11.clone();
    rows.push(row("protocol_setup/maxflow-routing", 500, move || {
        MaxFlowRouting::new(&spec).hop_count()
    }));
    rows.push(row("protocol_setup/shortest-path", 5000, move || {
        ShortestPathRouting::new(&e11).distances().len()
    }));

    // E1/E4: 2000 sampled steps on each stability regime; E8: uniform
    // arrivals near the critical ratio; then the classifier itself.
    for (name, spec) in stability_specs() {
        let name = format!("stability_run/2000steps/{name}");
        rows.push(row(name, 10, move || {
            SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
                .history(HistoryMode::Sampled(16))
                .build()
                .run(2000)
                .sup_pt
        }));
    }
    let diamond = TrafficSpecBuilder::new(generators::layered_diamond(2, 4))
        .source(0, 16)
        .sink(10, 8)
        .build()
        .unwrap();
    for mu in [2u64, 4, 6] {
        let spec = diamond.clone();
        let name = format!("uniform_arrivals/2000steps/mu{mu}");
        rows.push(row(name, 10, move || {
            SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
                .injection(Box::new(UniformInjection { mean: mu }))
                .history(HistoryMode::None)
                .build()
                .run(2000)
                .sup_total
        }));
    }
    for (name, spec) in stability_specs() {
        rows.push(row(format!("classify/{name}"), 200, move || {
            classify(&spec)
        }));
    }
    rows
}

/// Times every layer kernel: [`time_interleaved`] over `iters` calls per
/// repetition, one call under `quick`.
fn layer_timings(quick: bool) -> Result<Vec<LayerTiming>, LggError> {
    let rows = layer_table();
    eprintln!("bench: {} layer kernels (x{REPS} reps)...", rows.len());
    rows.into_iter()
        .map(|(name, iters, mut kernel)| {
            let iters = if quick { 1 } else { iters };
            let mut calls = |n: u64| {
                let t = Instant::now();
                for _ in 0..n {
                    kernel();
                }
                Ok(t.elapsed().as_nanos() as f64)
            };
            let [ns] = time_interleaved([&mut calls], iters)?;
            Ok(LayerTiming {
                name,
                iters,
                ns_per_iter: round(ns / iters as f64, 1),
            })
        })
        .collect()
}

/// CI gate: errors when the disabled-observer throughput in `report`
/// falls more than 2% below the recorded baseline file's own
/// `observer.off` leg.
pub fn check_observer_baseline(
    report: &BenchReport,
    baseline: &BenchReport,
) -> Result<(), LggError> {
    let current = report
        .observer
        .as_ref()
        .ok_or_else(|| LggError::scenario("report has no observer bench section"))?;
    let reference = baseline
        .observer
        .as_ref()
        .map(|o| o.off.steps_per_sec)
        .ok_or_else(|| LggError::scenario("baseline has no observer bench section"))?;
    if current.off.steps_per_sec < 0.98 * reference {
        return Err(LggError::SelfCheck(format!(
            "disabled-observer throughput regressed: {} steps/s is more than 2% below \
             the recorded baseline {} steps/s on {}",
            current.off.steps_per_sec, reference, current.case
        )));
    }
    eprintln!(
        "bench: disabled-observer gate ok ({} steps/s vs baseline {} on {})",
        current.off.steps_per_sec, reference, current.case
    );
    Ok(())
}

/// Runs the fixed suite. `scenario_dir` is where the `scenarios/` files
/// live (normally `scenarios` relative to the repo root); `quick` divides
/// the step counts by 10 for smoke runs (except the observer-overhead
/// section, which always runs full length).
pub fn run_bench_suite(scenario_dir: &str, quick: bool) -> Result<BenchReport, LggError> {
    let mut cases = Vec::new();
    for (name, sc, steps) in synthetic_cases(quick) {
        eprintln!("bench: {name} ({steps} steps x{REPS} reps)...");
        cases.push(run_case(&name, &sc, steps)?);
    }
    for &(name, file, steps) in SCENARIO_FILES {
        let path = format!("{scenario_dir}/{file}");
        let text = std::fs::read_to_string(&path).map_err(|e| {
            LggError::scenario(format!(
                "cannot read {path}: {e} (run `lgg-sim bench` from the repo root \
                 or pass --scenarios DIR)"
            ))
        })?;
        let sc = Scenario::from_json(&text)?;
        let steps = if quick { steps / 10 } else { steps };
        eprintln!("bench: {name} ({steps} steps x{REPS} reps)...");
        cases.push(run_case(name, &sc, steps)?);
    }
    let observer = Some(observer_bench()?);
    let guard = Some(guard_bench()?);
    let layers = Some(layer_timings(quick)?);
    Ok(BenchReport {
        generated_by: "lgg-sim bench (fixed suite; schema documented in DESIGN.md)".into(),
        cases,
        sweep: None,
        observer,
        guard,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_cases_build_and_step() {
        for (name, sc, _) in synthetic_cases(true) {
            let mut sim = sc
                .build_with_observer(bench_overrides(), NoopObserver)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            sim.run(10);
        }
    }

    #[test]
    fn quick_suite_produces_all_cases_and_round_trips() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let report = run_bench_suite(dir, true).unwrap();
        assert_eq!(report.cases.len(), 7);
        for c in &report.cases {
            assert!(c.throughput.steps_per_sec > 0.0, "{}", c.name);
            assert!(c.throughput.ns_per_node_edge_step > 0.0, "{}", c.name);
        }

        // Observer overhead is part of every suite run, at full length
        // even under --quick.
        let obs = report.observer.as_ref().expect("observer section");
        assert_eq!(obs.case, "grid-16x16-steady");
        assert_eq!(obs.steps, 50_000);
        assert!(obs.off.steps_per_sec > 0.0);
        assert!(obs.window.steps_per_sec > 0.0);
        let window_vs_off = obs.window.steps_per_sec / obs.off.steps_per_sec;
        assert!((obs.window_vs_off - window_vs_off).abs() <= 0.0005 + 1e-9);

        // So is the guard-overhead leg.
        let g = report.guard.as_ref().expect("guard section");
        assert_eq!(g.case, "grid-16x16-steady");
        assert_eq!(g.steps, 50_000);
        assert!(g.off.steps_per_sec > 0.0);
        assert!(g.guarded.steps_per_sec > 0.0);
        let guarded_vs_off = g.guarded.steps_per_sec / g.off.steps_per_sec;
        assert!((g.guarded_vs_off - guarded_vs_off).abs() <= 0.0005 + 1e-9);
        assert!(g.guarded_divergence.steps_per_sec > 0.0);
        let divergence_vs_off = g.guarded_divergence.steps_per_sec / g.off.steps_per_sec;
        assert!((g.guarded_divergence_vs_off - divergence_vs_off).abs() <= 0.0005 + 1e-9);

        // Every layer kernel runs once per call under --quick, and the ids
        // are exactly the fixed set below, each reported once.
        let layers = report.layers.as_ref().expect("layers section");
        for l in layers {
            assert_eq!(l.iters, 1, "{}", l.name);
            assert!(l.ns_per_iter > 0.0, "{}", l.name);
        }
        let want = expected_layer_ids();
        assert_eq!(want.len(), 86);
        assert!(want.windows(2).all(|w| w[0] < w[1]), "ids are distinct");
        assert_eq!(layer_names(layers), want);

        // The report must survive a JSON round trip unchanged — this is
        // the schema contract `lgg-sim sweep` relies on when it edits the
        // file in place.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.sweep.is_none());
    }

    /// Every layer id, one group per line: the id prefix, then the
    /// parameters that complete it.
    const LAYER_IDS: &str = "
        ablation_tiebreak/K12_1000steps smallest-first link-order round-robin random
        ablation_lying/grid4x4_R8_1000steps truthful zero-below-r full-retention
        ablation_loss/K12_1000steps p0 p10 p30 p60 p90
        fig2_extended_gstar dumbbell8 dumbbell16 dumbbell32
        fig3_interior_min_cut dumbbell4 dumbbell8 dumbbell16
        fig3_decompose dumbbell8 dumbbell16 dumbbell32
        lgg_step/grid 64 256 1024 4096
        lgg_step/random_density m1023 m2559 m8703
        lgg_plan leaf_spine
        lgg_plan/grid 16
        matching_lgg_plan/grid 16
        fault_model/markov_update cycle128
        fault_model/gilbert_elliott_apply cycle128
        fault_model/iid_loss_apply cycle128
        maxflow/grid/edmonds-karp 8x8 16x16 24x24
        maxflow/grid/dinic 8x8 16x16 24x24
        maxflow/grid/push-relabel 8x8 16x16 24x24
        maxflow/grid/push-relabel-highest 8x8 16x16 24x24
        maxflow/grid/push-relabel-nogap 8x8 16x16 24x24
        maxflow/random/edmonds-karp n100m200 n400m800
        maxflow/random/dinic n100m200 n400m800
        maxflow/random/push-relabel n100m200 n400m800
        maxflow/random/push-relabel-highest n100m200 n400m800
        maxflow/random/push-relabel-nogap n100m200 n400m800
        maxflow/hypercube/edmonds-karp d6 d8
        maxflow/hypercube/dinic d6 d8
        maxflow/hypercube/push-relabel d6 d8
        maxflow/hypercube/push-relabel-highest d6 d8
        maxflow/hypercube/push-relabel-nogap d6 d8
        protocol_run/grid12x12_500steps lgg maxflow-routing shortest-path flood random-forward matching-lgg
        protocol_setup maxflow-routing shortest-path
        stability_run/2000steps unsaturated-grid saturated-dumbbell infeasible-path
        uniform_arrivals/2000steps mu2 mu4 mu6
        classify unsaturated-grid saturated-dumbbell infeasible-path
    ";

    /// [`LAYER_IDS`] expanded and sorted.
    fn expected_layer_ids() -> Vec<String> {
        let mut ids: Vec<String> = LAYER_IDS
            .lines()
            .filter_map(|line| line.trim().split_once(' '))
            .flat_map(|(prefix, params)| params.split(' ').map(move |p| format!("{prefix}/{p}")))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Sorted names of a report's layer timings.
    fn layer_names(layers: &[LayerTiming]) -> Vec<String> {
        let mut names: Vec<String> = layers.iter().map(|l| l.name.clone()).collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn checked_in_bench_file_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        let text = std::fs::read_to_string(path).unwrap();
        let report: BenchReport = serde_json::from_str(&text).unwrap();
        assert!(report.observer.is_some(), "the CI gate reads observer.off");
        let layers = report.layers.expect("layers section");
        assert_eq!(layer_names(&layers), expected_layer_ids());
    }

    fn fake_report(off_sps: f64, with_observer: bool) -> BenchReport {
        let tp = |sps: f64| EngineThroughput {
            steps_per_sec: sps,
            ns_per_node_edge_step: 1.0,
        };
        let observer = with_observer.then(|| ObserverBench {
            case: "grid-16x16-steady".into(),
            steps: 50_000,
            off: tp(off_sps),
            window: tp(off_sps * 0.9),
            window_vs_off: 0.9,
        });
        BenchReport {
            generated_by: "test".into(),
            cases: Vec::new(),
            sweep: None,
            observer,
            guard: None,
            layers: None,
        }
    }

    #[test]
    fn observer_baseline_gate_accepts_and_rejects() {
        // Within 2% of the baseline's own off leg: ok (even slightly slower).
        let baseline = fake_report(1000.0, true);
        check_observer_baseline(&fake_report(985.0, true), &baseline).unwrap();
        // More than 2% below: rejected.
        let err = check_observer_baseline(&fake_report(975.0, true), &baseline).unwrap_err();
        assert_eq!(err.exit_code(), 70, "a failed gate is a failed self-check");
        assert!(err.to_string().contains("regressed"), "{err}");
        // A baseline without the observer section is an error, as is a
        // report without it.
        let empty = fake_report(0.0, false);
        assert!(check_observer_baseline(&fake_report(985.0, true), &empty).is_err());
        assert!(check_observer_baseline(&empty, &baseline).is_err());
    }
}
