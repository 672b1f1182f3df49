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

use std::time::Instant;

use serde::{Deserialize, Serialize};
use simqueue::{
    GuardConfig, HistoryMode, InvariantGuard, NoopObserver, RingRecorder, SimObserver,
    WindowAggregator,
};

use crate::sweep::SweepReport;
use crate::{Endpoint, ProtocolSpec, Scenario, LggError, SimOverrides, TopologySpec};

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
    /// `guarded.steps_per_sec / off.steps_per_sec`.
    pub guarded_vs_off: f64,
}

/// Observer overhead on one case: the production disabled path against
/// two live observers, same step count for all three legs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ObserverBench {
    /// Suite case the overhead is measured on.
    pub case: String,
    /// Steps per timed repetition. Never scaled by `--quick`: the CI
    /// regression gate compares these numbers against a recorded
    /// baseline, and a 2% bar is meaningless on 1/10-length runs.
    pub steps: u64,
    /// The production path of a default run: `Scenario::build` with the
    /// `telemetry` section off (dynamically dispatched disabled
    /// observer). This is the leg the 2% regression gate watches.
    pub off: EngineThroughput,
    /// In-memory [`RingRecorder`], capacity 4096 — every event crosses
    /// the observer boundary and most are retained.
    pub ring: EngineThroughput,
    /// [`WindowAggregator`] with window 256 — every event is folded into
    /// running aggregates (the experiments-driver configuration).
    pub window: EngineThroughput,
    /// `ring.steps_per_sec / off.steps_per_sec`.
    pub ring_vs_off: f64,
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
        sinks: vec![Endpoint { node: 4095, rate: 2 }],
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
        sources: (0..64).map(|i| Endpoint { node: i * 8, rate: 1 }).collect(),
        sinks: vec![Endpoint { node: 511, rate: 64 }],
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

/// Times `steps` of a freshly built simulation: one untimed warm-up run,
/// then min-of-[`REPS`] nanoseconds. The build closure executes outside
/// the timed region, so observer construction cost never leaks into the
/// per-step numbers.
fn time_runs<O, F>(build: F, steps: u64) -> Result<f64, LggError>
where
    O: SimObserver,
    F: Fn() -> Result<simqueue::Simulation<O>, LggError>,
{
    // Warm-up: populate caches and fault pages outside the measurement.
    let mut warm = build()?;
    warm.run(steps.min(1_000));

    let mut best_ns = f64::INFINITY;
    for _ in 0..REPS {
        let mut sim = build()?;
        let t = Instant::now();
        sim.run(steps);
        let ns = t.elapsed().as_nanos() as f64;
        // Consume a result so the run cannot be optimized away.
        std::hint::black_box(sim.metrics().sup_total);
        if ns < best_ns {
            best_ns = ns;
        }
    }
    Ok(best_ns)
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
    let size = (nodes + edges) as f64;

    let ns = time_runs(
        || sc.build_with_observer(bench_overrides(), NoopObserver),
        steps,
    )?;
    Ok(BenchCase {
        name: name.to_string(),
        nodes,
        edges,
        steps,
        throughput: EngineThroughput {
            steps_per_sec: round(steps as f64 / (ns / 1e9), 1),
            ns_per_node_edge_step: round(ns / (steps as f64 * size), 3),
        },
    })
}

/// Measures observer overhead on the `grid-16x16-steady` case.
/// The disabled leg goes through the production [`Scenario::build`] path
/// (a `Simulation<ScenarioObserver>` with `telemetry: off`), so the
/// number reflects what every default `lgg-sim` run actually pays for
/// having the telemetry subsystem compiled in — not an assumption about
/// dead-code elimination.
pub fn observer_bench() -> Result<ObserverBench, LggError> {
    let (name, sc, steps) = synthetic_cases(false)
        .into_iter()
        .next()
        .expect("fixed suite is non-empty");
    debug_assert_eq!(name, "grid-16x16-steady");

    let spec = sc.traffic_spec()?;
    let size = (spec.graph.node_count() + spec.graph.edge_count()) as f64;
    let throughput = |ns: f64| EngineThroughput {
        steps_per_sec: round(steps as f64 / (ns / 1e9), 1),
        ns_per_node_edge_step: round(ns / (steps as f64 * size), 3),
    };

    eprintln!("bench: observer overhead on {name} ({steps} steps x{REPS} reps x3 observers)...");
    let off = throughput(time_runs(|| sc.build(bench_overrides()), steps)?);
    let ring = throughput(time_runs(
        || sc.build_with_observer(bench_overrides(), RingRecorder::new(4096)),
        steps,
    )?);
    let window = throughput(time_runs(
        || sc.build_with_observer(bench_overrides(), WindowAggregator::new(256)),
        steps,
    )?);

    Ok(ObserverBench {
        case: name,
        steps,
        off,
        ring,
        window,
        ring_vs_off: round(ring.steps_per_sec / off.steps_per_sec, 3),
        window_vs_off: round(window.steps_per_sec / off.steps_per_sec, 3),
    })
}

/// Measures invariant-guard overhead on the `grid-16x16-steady` case: the unguarded production build path against the same scenario
/// with every hard check live. The guard sees every per-step event (it
/// wraps the observer boundary before any thinning), so this is its
/// worst-case honest price; the off leg doubles as the number the 2%
/// regression gate compares against its recorded baseline.
pub fn guard_bench() -> Result<GuardBench, LggError> {
    let (name, sc, steps) = synthetic_cases(false)
        .into_iter()
        .next()
        .expect("fixed suite is non-empty");
    debug_assert_eq!(name, "grid-16x16-steady");

    let spec = sc.traffic_spec()?;
    let size = (spec.graph.node_count() + spec.graph.edge_count()) as f64;
    let throughput = |ns: f64| EngineThroughput {
        steps_per_sec: round(steps as f64 / (ns / 1e9), 1),
        ns_per_node_edge_step: round(ns / (steps as f64 * size), 3),
    };

    eprintln!("bench: guard overhead on {name} ({steps} steps x{REPS} reps x2 legs)...");
    let off = throughput(time_runs(|| sc.build(bench_overrides()), steps)?);
    let guarded = throughput(time_runs(
        || {
            let guard = InvariantGuard::new(&sc.traffic_spec()?, GuardConfig::checks());
            sc.build_with_observer(bench_overrides(), guard)
        },
        steps,
    )?);

    Ok(GuardBench {
        case: name,
        steps,
        off,
        guarded,
        guarded_vs_off: round(guarded.steps_per_sec / off.steps_per_sec, 3),
    })
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
        return Err(LggError::scenario(format!(
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
    Ok(BenchReport {
        generated_by: "lgg-sim bench (fixed suite; schema documented in DESIGN.md)".into(),
        cases,
        sweep: None,
        observer,
        guard,
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
        assert!(obs.ring.steps_per_sec > 0.0);
        assert!(obs.window.steps_per_sec > 0.0);
        let ring_vs_off = obs.ring.steps_per_sec / obs.off.steps_per_sec;
        assert!((obs.ring_vs_off - ring_vs_off).abs() <= 0.0005 + 1e-9);

        // So is the guard-overhead leg.
        let g = report.guard.as_ref().expect("guard section");
        assert_eq!(g.case, "grid-16x16-steady");
        assert_eq!(g.steps, 50_000);
        assert!(g.off.steps_per_sec > 0.0);
        assert!(g.guarded.steps_per_sec > 0.0);
        let guarded_vs_off = g.guarded.steps_per_sec / g.off.steps_per_sec;
        assert!((g.guarded_vs_off - guarded_vs_off).abs() <= 0.0005 + 1e-9);

        // The report must survive a JSON round trip unchanged — this is
        // the schema contract `lgg-sim sweep` relies on when it edits the
        // file in place.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.sweep.is_none());
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
            ring: tp(off_sps * 0.8),
            window: tp(off_sps * 0.9),
            ring_vs_off: 0.8,
            window_vs_off: 0.9,
        });
        BenchReport {
            generated_by: "test".into(),
            cases: Vec::new(),
            sweep: None,
            observer,
            guard: None,
        }
    }

    #[test]
    fn observer_baseline_gate_accepts_and_rejects() {
        // Within 2% of the baseline's own off leg: ok (even slightly slower).
        let baseline = fake_report(1000.0, true);
        check_observer_baseline(&fake_report(985.0, true), &baseline).unwrap();
        // More than 2% below: rejected.
        let err = check_observer_baseline(&fake_report(975.0, true), &baseline)
            .unwrap_err()
            .to_string();
        assert!(err.contains("regressed"), "{err}");
        // A baseline without the observer section is an error, as is a
        // report without it.
        let empty = fake_report(0.0, false);
        assert!(check_observer_baseline(&fake_report(985.0, true), &empty).is_err());
        assert!(check_observer_baseline(&empty, &baseline).is_err());
    }
}
