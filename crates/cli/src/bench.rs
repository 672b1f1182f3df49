//! `lgg-sim bench`: one table of timings, written to
//! `BENCH_throughput.json`.
//!
//! Every timing is a [`BenchRow`]: a suite-stable id, the units one timed
//! repetition runs (steps, kernel calls or grid passes), and nanoseconds
//! per unit. One loop, [`time_interleaved`], times them all: a group of
//! legs with the same units runs one untimed warm-up each, then [`REPS`]
//! rounds in which every leg runs once, in order, and each leg reports its
//! fastest round (minimum-of-N is the usual noise filter). The rows, in
//! suite order:
//!
//! * `step/<case>`: the step pipeline ([`simqueue::Simulation::step`]) on
//!   seven workloads from nearly idle to saturated, one unit per step:
//!   * `grid-16x16-steady` / `grid-64x64-steady`: one source/sink pair on
//!     a grid, feasible rates, shortest-path forwarding. The steady state
//!     keeps only the packets in flight busy, so almost the whole grid is
//!     idle and the active-set pipeline visits only the busy nodes. (LGG's
//!     steady state is a network-wide queue *gradient*, so a draining
//!     protocol is the one with a sparse active set.)
//!   * `lgg-gradient-16x16`: the same grid under LGG, the dense gradient
//!     regime, where the active set is nearly all of `V`.
//!   * `random-512-dense`: an oversubscribed random graph where backlogs
//!     grow everywhere (an honest worst case).
//!   * three files from `scenarios/`: saturated dumbbell, lossy sensor
//!     field (matching-LGG + Gilbert–Elliott loss) and bursty
//!     R-generalized gauntlet (lying + lazy extraction), covering the
//!     declaration and loss machinery.
//! * `observer/off`, `observer/window`, `guard/checks`, `guard/divergence`:
//!   the cost of observers and of the invariant guard on
//!   `grid-16x16-steady`, one interleaved group at 50 000 steps that
//!   `--quick` never shortens. `observer/off` is the production path of a
//!   default run and the leg the `--baseline` gate compares.
//! * `sweep/serial`, `sweep/parallel`: one pass over a 12-item scenario ×
//!   seed × rate grid, pinned to one worker and across the pool. The two
//!   passes must agree bit for bit; a mismatch is an
//!   [`LggError::SelfCheck`].
//! * the layer kernels below the step pipeline: the max-flow solvers, the
//!   feasibility classifier, the Fig. 2/3 constructions, one LGG step, the
//!   LGG and matching planners alone on captured views, the fault models,
//!   and the E11 protocol and E14 ablation runs.
//!
//! What the rows imply (steps/s, ns per (node + edge)·step, the overhead
//! ratios, the sweep's speedup and digest) is printed from the run and not
//! stored.

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
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simqueue::checkpoint::fnv1a;
use simqueue::declare::{FullRetention, TruthfulDeclaration, ZeroBelowRetention};
use simqueue::dynamic::{MarkovTopology, RotatingOutage, TopologyProcess};
use simqueue::injection::UniformInjection;
use simqueue::loss::{AdversarialLoss, GilbertElliottLoss, IidLoss, LossModel};
use simqueue::{
    DeclarationPolicy, GuardConfig, HistoryMode, InvariantGuard, NetView, NoopObserver,
    RoutingProtocol, SimObserver, Simulation, SimulationBuilder, Transmission, WindowAggregator,
};

use crate::{
    fnv1a_digest, Endpoint, InjectionSpec, LggError, ProtocolSpec, Scenario, SimOverrides,
    TopologySpec,
};

/// Timed repetitions per row; the fastest is reported. Five because the
/// min-of-N filter has to beat scheduler noise on shared machines: the
/// 2% observer gate is tighter than the noise floor of a 3-rep minimum.
const REPS: usize = 5;

/// One timing: the fastest of [`REPS`] repetitions of `iters` units,
/// divided by `iters`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BenchRow {
    /// Suite-stable id, e.g. `step/grid-16x16-steady` or
    /// `maxflow/grid/dinic/16x16`.
    pub name: String,
    /// Units per timed repetition: steps, kernel calls or grid passes.
    pub iters: u64,
    /// Nanoseconds per unit.
    pub ns_per_iter: f64,
}

/// The suite, as serialized to `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BenchReport {
    /// Provenance marker for the file.
    pub generated_by: String,
    /// Every timing, in suite order.
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// The row with id `name`, if the report has one.
    pub fn row(&self, name: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Builds the synthetic step cases, which the sweep grid also draws on.
fn synthetic_cases(quick: bool) -> Vec<(String, Scenario, u64)> {
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

/// Reads `file` from the scenario directory.
fn suite_file(scenario_dir: &str, file: &str) -> Result<Scenario, LggError> {
    let path = format!("{scenario_dir}/{file}");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        LggError::scenario(format!(
            "cannot read {path}: {e} (run `lgg-sim bench` from the repo root \
             or pass --scenarios DIR)"
        ))
    })?;
    Scenario::from_json(&text)
}

/// The seven `step/` cases with their steps per repetition: the synthetic
/// cases, then the scenario files; `quick` divides every count by 10.
fn step_cases(scenario_dir: &str, quick: bool) -> Result<Vec<(String, Scenario, u64)>, LggError> {
    let mut cases = synthetic_cases(quick);
    for &(name, file, steps) in SCENARIO_FILES {
        let steps = if quick { steps / 10 } else { steps };
        cases.push((name.into(), suite_file(scenario_dir, file)?, steps));
    }
    Ok(cases)
}

/// A timed leg: runs `n` units and returns the nanoseconds they took.
type Leg<'a> = Box<dyn FnMut(u64) -> Result<f64, LggError> + 'a>;

/// A step leg: builds a fresh simulation with `build` and times `n` steps
/// of it. The build runs outside the timed region, so observer
/// construction cost never leaks into the per-step numbers.
fn leg<'a, O: SimObserver>(build: impl Fn() -> Result<Simulation<O>, LggError> + 'a) -> Leg<'a> {
    Box::new(move |n| {
        let mut sim = build()?;
        let t = Instant::now();
        sim.run(n);
        let ns = t.elapsed().as_nanos() as f64;
        // Consume a result so the run cannot be optimized away.
        std::hint::black_box(sim.metrics().sup_total);
        Ok(ns)
    })
}

/// Times a group of named legs that share `iters` units per repetition:
/// one untimed warm-up run of each (caches, page faults; at most 1 000
/// units), then [`REPS`] rounds in which every leg runs once, in order.
/// Each leg's row is its fastest round per unit. Interleaving the legs
/// puts them through the same host conditions, so a slow stretch of the
/// machine cannot skew the ratios between them.
fn time_interleaved(iters: u64, legs: Vec<(String, Leg<'_>)>) -> Result<Vec<BenchRow>, LggError> {
    let (names, mut legs): (Vec<String>, Vec<Leg<'_>>) = legs.into_iter().unzip();
    for leg in &mut legs {
        leg(iters.min(1_000))?;
    }
    let mut best = vec![f64::INFINITY; legs.len()];
    for _ in 0..REPS {
        for (leg, best) in legs.iter_mut().zip(&mut best) {
            *best = best.min(leg(iters)?);
        }
    }
    let rows = names.into_iter().zip(best).map(|(name, ns)| BenchRow {
        name,
        iters,
        // To 0.1 ns.
        ns_per_iter: (ns / iters as f64 * 10.0).round() / 10.0,
    });
    Ok(rows.collect())
}

/// History override shared by every timed simulation: no sampled history.
fn bench_overrides() -> SimOverrides {
    SimOverrides {
        history: Some(HistoryMode::None),
        ..SimOverrides::default()
    }
}

/// The overhead legs on the first synthetic case (`grid-16x16-steady`) at
/// full length, one interleaved group:
///
/// * `observer/off`: the production [`Scenario::build`] path with
///   `telemetry: off` (a `Simulation<ScenarioObserver>` dispatching to an
///   arm that ignores the step records), so the number is what every
///   default `lgg-sim` run pays for having telemetry compiled in, not an
///   assumption about dead-code elimination;
/// * `observer/window`: a live [`WindowAggregator`] with window 256 (the
///   experiments-driver configuration), which renders no events;
/// * `guard/checks`: every hard invariant check of
///   [`simqueue::InvariantGuard`] on a `NoopObserver` inner; the guard
///   can be on by default once this costs at most 1/0.9 of `off`
///   (ROADMAP item 4);
/// * `guard/divergence`: the checks plus the online divergence detector,
///   as `lgg-sim run --guard` installs them.
fn overhead_rows() -> Result<Vec<BenchRow>, LggError> {
    let (name, sc, steps) = synthetic_cases(false)
        .into_iter()
        .next()
        .expect("fixed suite is non-empty");
    let spec = sc.traffic_spec()?;
    let guarded = |divergence: bool| {
        let config = GuardConfig {
            divergence,
            ..GuardConfig::checks()
        };
        sc.build_with_observer(bench_overrides(), InvariantGuard::new(&spec, config))
    };
    eprintln!(
        "bench: observer and guard overhead on {name} ({steps} steps x{REPS} reps x4 legs)..."
    );
    time_interleaved(
        steps,
        vec![
            ("observer/off".into(), leg(|| sc.build(bench_overrides()))),
            (
                "observer/window".into(),
                leg(|| sc.build_with_observer(bench_overrides(), WindowAggregator::new(256))),
            ),
            ("guard/checks".into(), leg(|| guarded(false))),
            ("guard/divergence".into(), leg(|| guarded(true))),
        ],
    )
}

/// The sweep grid: scenario × seed × rate, 12 independent simulations,
/// each with its label. Two synthetic cases with opposite density profiles
/// (the sparse steady grid and the dense oversubscribed random graph) and
/// one file exercising the declaration and loss machinery. Every item
/// carries its own master seed, so the pool decides only which worker runs
/// which item, never what any item computes. `quick` divides the step
/// counts by 10.
fn sweep_grid(scenario_dir: &str, quick: bool) -> Result<Vec<(String, Scenario)>, LggError> {
    let mut bases: Vec<(String, Scenario, u64)> = synthetic_cases(true)
        .into_iter()
        .filter_map(|(name, sc, _)| match name.as_str() {
            "grid-16x16-steady" => Some((name, sc, 3_000)),
            "random-512-dense" => Some((name, sc, 400)),
            _ => None,
        })
        .collect();
    let dumbbell = suite_file(scenario_dir, "saturated_dumbbell.json")?;
    bases.push(("saturated-dumbbell".into(), dumbbell, 2_000));

    let mut grid = Vec::new();
    for (name, base, steps) in bases {
        let steps = if quick { steps / 10 } else { steps };
        for seed in [1u64, 2] {
            for (num, den) in [(1u64, 1u64), (1, 2)] {
                let label = format!("{name} seed {seed} rate {num}/{den} ({steps} steps)");
                let sc = Scenario {
                    seed,
                    injection: InjectionSpec::Scaled { num, den },
                    steps,
                    ..base.clone()
                };
                grid.push((label, sc));
            }
        }
    }
    Ok(grid)
}

/// What one grid item leaves behind, enough to witness any divergence:
/// delivered, sent, lost, the peak total queue mass, and the FNV-1a of the
/// final queue vector.
type SweepOutcome = [u64; 5];

/// Little-endian bytes of `xs`, concatenated: the input the sweep's
/// FNV-1a digests hash.
fn le_bytes(xs: impl IntoIterator<Item = u64>) -> Vec<u8> {
    xs.into_iter().flat_map(u64::to_le_bytes).collect()
}

/// Runs one grid item to its step count.
fn run_item(sc: &Scenario) -> Result<SweepOutcome, LggError> {
    let mut sim = sc.build_with_observer(bench_overrides(), NoopObserver)?;
    sim.run(sc.steps);
    let m = sim.metrics();
    let queue_fnv = fnv1a(&le_bytes(sim.queues().iter().copied()));
    Ok([m.delivered, m.sent, m.lost, m.sup_total, queue_fnv])
}

/// Runs the whole grid once across the current pool configuration,
/// returning outcomes in input order.
fn run_grid(grid: &[(String, Scenario)]) -> Result<Vec<SweepOutcome>, LggError> {
    parpool::run_ordered(grid.iter().collect(), |(_, sc)| run_item(sc))
        .into_iter()
        .collect()
}

/// The printable FNV-1a digest of a grid's outcomes.
fn digest_outcomes(outcomes: &[SweepOutcome]) -> String {
    fnv1a_digest(&le_bytes(outcomes.iter().flatten().copied()))
}

/// Runs the sweep grid once under the *current* pool configuration and
/// returns its digest (the `--quick` grid when `quick`). The determinism
/// test calls this at different pool widths and pins the result.
pub fn sweep_digest(scenario_dir: &str, quick: bool) -> Result<String, LggError> {
    let grid = sweep_grid(scenario_dir, quick)?;
    Ok(digest_outcomes(&run_grid(&grid)?))
}

/// A sweep leg: `n` passes over `grid` with the pool pinned to `threads`
/// workers (`None`: `LGG_THREADS` or the machine's cores), keeping the
/// last pass's outcomes in `out`.
fn sweep_leg<'a>(
    grid: &'a [(String, Scenario)],
    threads: Option<usize>,
    out: &'a mut Vec<SweepOutcome>,
) -> Leg<'a> {
    Box::new(move |n| {
        parpool::set_thread_override(threads);
        let t = Instant::now();
        let passes = (0..n).try_for_each(|_| run_grid(grid).map(|o| *out = o));
        let ns = t.elapsed().as_nanos() as f64;
        parpool::set_thread_override(None);
        passes.map(|()| ns)
    })
}

/// The digest of the serial leg's outcomes, or a [`LggError::SelfCheck`]
/// naming the first item where the parallel leg disagrees.
fn agreed_digest(
    grid: &[(String, Scenario)],
    serial: &[SweepOutcome],
    parallel: &[SweepOutcome],
) -> Result<String, LggError> {
    if serial != parallel {
        let first = serial.iter().zip(parallel).position(|(a, b)| a != b);
        let item = grid.get(first.unwrap_or(0)).map_or("?", |(label, _)| label);
        return Err(LggError::SelfCheck(format!(
            "sweep results diverged between 1 and {} threads (first at {item}); \
             determinism is broken",
            parpool::max_threads()
        )));
    }
    Ok(digest_outcomes(serial))
}

/// `sweep/serial` and `sweep/parallel`, one grid pass per unit, and the
/// digest both legs agree on.
fn sweep_rows(grid: &[(String, Scenario)]) -> Result<(Vec<BenchRow>, String), LggError> {
    eprintln!(
        "bench: sweep grid, {} items x{REPS} reps x2 legs...",
        grid.len()
    );
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    let rows = time_interleaved(
        1,
        vec![
            ("sweep/serial".into(), sweep_leg(grid, Some(1), &mut serial)),
            (
                "sweep/parallel".into(),
                sweep_leg(grid, None, &mut parallel),
            ),
        ],
    )?;
    Ok((rows, agreed_digest(grid, &serial, &parallel)?))
}

/// A layer-kernel row: its id, its calls per timed repetition in the full
/// suite, and a leg that times that many calls of the kernel.
type LayerRow = (String, u64, Leg<'static>);

fn row<T>(
    name: impl Into<String>,
    iters: u64,
    mut kernel: impl FnMut() -> T + 'static,
) -> LayerRow {
    let calls = move |n| {
        let t = Instant::now();
        for _ in 0..n {
            std::hint::black_box(kernel());
        }
        Ok(t.elapsed().as_nanos() as f64)
    };
    (name.into(), iters, Box::new(calls))
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

    // The fault models alone, one call per step on a 128-link cycle: the
    // Markov link process updates every link, the Gilbert–Elliott channel
    // advances every link and draws for a plan with one entry per link,
    // i.i.d. loss draws for the same plan, and the adversary picks its 3
    // victims from it by receiver queue (drawn from 0..8, so many tie).
    let ring = generators::cycle(128);
    let plan: Vec<Transmission> = ring
        .edges()
        .map(|edge| Transmission {
            edge,
            from: ring.endpoints(edge).0,
        })
        .collect();
    let mut draw = StdRng::seed_from_u64(13);
    let queues: Vec<u64> = (0..ring.node_count())
        .map(|_| draw.random_range(0..8))
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
    let losses: [(&str, Loss); 3] = [
        ("gilbert_elliott_apply", || {
            Box::new(GilbertElliottLoss::new(0.02, 0.5, 0.05, 0.25))
        }),
        ("iid_loss_apply", || Box::new(IidLoss::new(0.2))),
        ("adversarial_apply", || Box::new(AdversarialLoss::new(3))),
    ];
    for (name, make) in losses {
        let (g, plan, queues, mut model) = (ring.clone(), plan.clone(), queues.clone(), make());
        let mut rng = StdRng::seed_from_u64(11);
        let mut lost = vec![false; plan.len()];
        let name = format!("fault_model/{name}/cycle128");
        rows.push(row(name, 20_000, move || {
            lost.fill(false);
            model.apply(&g, &plan, &queues, 0, &mut rng, &mut lost);
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

/// Times every layer kernel on its own: `iters` calls per repetition, one
/// call under `quick`.
fn layer_rows(quick: bool) -> Result<Vec<BenchRow>, LggError> {
    let table = layer_table();
    eprintln!("bench: {} layer kernels (x{REPS} reps)...", table.len());
    let mut rows = Vec::new();
    for (name, iters, kernel) in table {
        let iters = if quick { 1 } else { iters };
        rows.extend(time_interleaved(iters, vec![(name, kernel)])?);
    }
    Ok(rows)
}

/// CI gate: errors when this run's `observer/off` row is more than 2%
/// slower, in steps/s, than the baseline file's own `observer/off` row.
pub fn check_observer_baseline(
    report: &BenchReport,
    baseline: &BenchReport,
) -> Result<(), LggError> {
    let off = |r: &BenchReport, which: &str| {
        r.row("observer/off")
            .map(|row| row.ns_per_iter)
            .ok_or_else(|| LggError::scenario(format!("{which} has no observer/off row")))
    };
    let (current, reference) = (off(report, "report")?, off(baseline, "baseline")?);
    // In steps/s: current < 0.98 · reference.
    if 0.98 * current > reference {
        return Err(LggError::SelfCheck(format!(
            "disabled-observer throughput regressed: {:.1} steps/s is more than 2% below \
             the recorded baseline {:.1} steps/s on grid-16x16-steady",
            1e9 / current,
            1e9 / reference
        )));
    }
    eprintln!(
        "bench: disabled-observer gate ok ({:.1} steps/s vs baseline {:.1} on grid-16x16-steady)",
        1e9 / current,
        1e9 / reference
    );
    Ok(())
}

/// Runs the fixed suite. `scenario_dir` is where the `scenarios/` files
/// live (normally `scenarios` relative to the repo root); `quick` divides
/// the step counts by 10, times each layer kernel with one call and runs
/// the sweep grid at a tenth of its steps (the overhead group always runs
/// full length). Returns the report and a summary of what this run's rows
/// imply: steps/s and ns per (node + edge)·step per case, the overhead
/// ratios, the pool width, the sweep's speedup and its digest.
pub fn run_bench_suite(scenario_dir: &str, quick: bool) -> Result<(BenchReport, String), LggError> {
    let mut rows = Vec::new();
    let mut summary = String::new();
    for (name, sc, steps) in step_cases(scenario_dir, quick)? {
        eprintln!("bench: {name} ({steps} steps x{REPS} reps)...");
        let build = || sc.build_with_observer(bench_overrides(), NoopObserver);
        let timed = time_interleaved(steps, vec![(format!("step/{name}"), leg(build))])?;
        let ns = timed[0].ns_per_iter;
        let graph = sc.traffic_spec()?.graph;
        let size = graph.node_count() + graph.edge_count();
        summary += &format!(
            "{name:<22} {size:>7} nodes+edges  {:>12.1} steps/s  {:.3} ns/(node+edge)/step\n",
            1e9 / ns,
            ns / size as f64
        );
        rows.extend(timed);
    }

    let overhead = overhead_rows()?;
    let vs_off = |i: usize| overhead[0].ns_per_iter / overhead[i].ns_per_iter;
    summary += &format!(
        "overhead on grid-16x16-steady (steps/s over observer/off): window {:.3}  \
         guard checks {:.3} (target >= 0.9)  guard + divergence {:.3}\n",
        vs_off(1),
        vs_off(2),
        vs_off(3)
    );
    rows.extend(overhead);

    let grid = sweep_grid(scenario_dir, quick)?;
    let (sweep, digest) = sweep_rows(&grid)?;
    summary += &format!(
        "sweep: {} items  pool width {}  speedup x{:.2}  digest {digest}\n",
        grid.len(),
        parpool::max_threads(),
        sweep[0].ns_per_iter / sweep[1].ns_per_iter
    );
    rows.extend(sweep);

    rows.extend(layer_rows(quick)?);
    let report = BenchReport {
        generated_by: "lgg-sim bench (fixed suite; schema documented in DESIGN.md)".into(),
        rows,
    };
    Ok((report, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_dir() -> &'static str {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios")
    }

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
        let (report, summary) = run_bench_suite(scenario_dir(), true).unwrap();
        for r in &report.rows {
            assert!(r.ns_per_iter > 0.0, "{}", r.name);
        }
        // Every id once, each with the units `--quick` gives it.
        assert_eq!(ids(&report.rows), expected_rows(true));
        assert!(summary.contains("digest "), "{summary}");

        // The report must survive a JSON round trip unchanged: it is the
        // baseline file a later run reads back.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    /// The `step/` cases with their full-suite steps per repetition.
    const STEP_CASES: [(&str, u64); 7] = [
        ("grid-16x16-steady", 50_000),
        ("grid-64x64-steady", 10_000),
        ("lgg-gradient-16x16", 20_000),
        ("random-512-dense", 2_000),
        ("saturated-dumbbell", 20_000),
        ("lossy-sensor-field", 20_000),
        ("bursty-rgen-gauntlet", 20_000),
    ];

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
        fault_model/adversarial_apply cycle128
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

    /// Every row id with its units per repetition, sorted: 7 `step/`, 4
    /// overhead, 2 `sweep/` and 87 layer rows. `quick` scales the steps by
    /// 1/10 and the kernel calls to 1; the overhead group keeps its 50 000
    /// steps and a sweep row is one pass either way.
    fn expected_rows(quick: bool) -> Vec<(String, u64)> {
        let table = layer_table();
        let mut layer_ids: Vec<&str> = table.iter().map(|(name, ..)| name.as_str()).collect();
        layer_ids.sort_unstable();
        let mut want_layers: Vec<String> = LAYER_IDS
            .lines()
            .filter_map(|line| line.trim().split_once(' '))
            .flat_map(|(prefix, params)| params.split(' ').map(move |p| format!("{prefix}/{p}")))
            .collect();
        want_layers.sort_unstable();
        assert_eq!(layer_ids, want_layers);
        assert_eq!(want_layers.len(), 87);

        let scale = if quick { 10 } else { 1 };
        let steps = STEP_CASES.map(|(case, n)| (format!("step/{case}"), n / scale));
        let overhead = [
            "observer/off",
            "observer/window",
            "guard/checks",
            "guard/divergence",
        ]
        .map(|id| (id.to_string(), 50_000));
        let sweep = ["sweep/serial", "sweep/parallel"].map(|id| (id.to_string(), 1));
        let layers = table
            .into_iter()
            .map(|(name, iters, _)| (name, if quick { 1 } else { iters }));
        let mut rows: Vec<(String, u64)> = steps
            .into_iter()
            .chain(overhead)
            .chain(sweep)
            .chain(layers)
            .collect();
        rows.sort_unstable();
        assert_eq!(rows.len(), 100);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "ids are distinct");
        rows
    }

    /// Sorted `(name, iters)` of `rows`.
    fn ids(rows: &[BenchRow]) -> Vec<(String, u64)> {
        let mut ids: Vec<(String, u64)> = rows.iter().map(|r| (r.name.clone(), r.iters)).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn checked_in_bench_file_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        let text = std::fs::read_to_string(path).unwrap();
        let report: BenchReport = serde_json::from_str(&text).unwrap();
        // Written back, the report is the file: it holds nothing else.
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(
            text == format!("{json}\n"),
            "the file is not what the suite writes"
        );
        assert_eq!(ids(&report.rows), expected_rows(false));
        assert!(report.row("observer/off").is_some(), "the CI gate reads it");
    }

    fn fake_report(off_steps_per_sec: Option<f64>) -> BenchReport {
        let rows = off_steps_per_sec.map(|sps| BenchRow {
            name: "observer/off".into(),
            iters: 50_000,
            ns_per_iter: 1e9 / sps,
        });
        BenchReport {
            generated_by: "test".into(),
            rows: rows.into_iter().collect(),
        }
    }

    #[test]
    fn observer_baseline_gate_accepts_and_rejects() {
        // Within 2% of the baseline's own off leg: ok (even slightly slower).
        let baseline = fake_report(Some(1000.0));
        check_observer_baseline(&fake_report(Some(985.0)), &baseline).unwrap();
        // More than 2% below: rejected.
        let err = check_observer_baseline(&fake_report(Some(975.0)), &baseline).unwrap_err();
        assert_eq!(err.exit_code(), 70, "a failed gate is a failed self-check");
        assert!(err.to_string().contains("regressed"), "{err}");
        // A baseline without the observer/off row is an error, as is a
        // report without it.
        let empty = fake_report(None);
        assert!(check_observer_baseline(&fake_report(Some(985.0)), &empty).is_err());
        assert!(check_observer_baseline(&empty, &baseline).is_err());
    }

    #[test]
    fn sweep_grid_covers_all_dimensions() {
        let grid = sweep_grid(scenario_dir(), true).unwrap();
        // 3 scenarios x 2 seeds x 2 rates.
        assert_eq!(grid.len(), 12);
        let distinct = |key: &dyn Fn(&(String, Scenario)) -> String| {
            grid.iter()
                .map(key)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        assert_eq!(distinct(&|(label, _)| label.clone()), 12);
        assert_eq!(distinct(&|(_, sc)| format!("{:?}", sc.topology)), 3);
        assert_eq!(distinct(&|(_, sc)| sc.seed.to_string()), 2);
        assert_eq!(distinct(&|(_, sc)| format!("{:?}", sc.injection)), 2);
    }

    #[test]
    fn smoke_sweep_is_deterministic_and_reports() {
        let grid = sweep_grid(scenario_dir(), true).unwrap();
        let (rows, digest) = sweep_rows(&grid).unwrap();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["sweep/serial", "sweep/parallel"]);
        assert!(rows.iter().all(|r| r.iters == 1 && r.ns_per_iter > 0.0));
        assert_eq!(digest.len(), 16);
        // The digest is reproducible across whole-grid reruns.
        assert_eq!(digest, sweep_digest(scenario_dir(), true).unwrap());
    }

    #[test]
    fn sweep_legs_that_disagree_are_a_failed_self_check() {
        let grid = sweep_grid(scenario_dir(), true).unwrap();
        let serial = vec![[1, 2, 3, 4, 5]; grid.len()];
        let mut parallel = serial.clone();
        assert_eq!(
            agreed_digest(&grid, &serial, &parallel).unwrap(),
            digest_outcomes(&serial)
        );
        parallel[5][4] ^= 1;
        let err = agreed_digest(&grid, &serial, &parallel).unwrap_err();
        assert_eq!(err.exit_code(), 70, "{err}");
        assert!(err.to_string().contains(&grid[5].0), "{err}");
    }
}
