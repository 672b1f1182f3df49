//! The three single-run workloads: `lgg-gradient`, `sparse-steady` and
//! `long-run-guarded`. A timed trial takes the path `lgg-sim run` takes:
//! scenario JSON → `Scenario` → `classify` → `Scenario::build` (the
//! scenario's own engine choice and history) → stepping → stability
//! verdict → outcome digest. The run repeats trials until its time budget
//! is spent. Only the traced run builds through `SimulationBuilder`, to
//! install the timed `RoutingProtocol` wrapper.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use lgg_cli::{DynamicsSpec, ProtocolSpec, Scenario, ScenarioObserver, SimOverrides};
use lgg_core::baselines::ShortestPathRouting;
use lgg_core::Lgg;
use maxflow::Algorithm;
use netmodel::{classify, ExtendedNetwork, Feasibility, TrafficSpec};
use simqueue::dynamic::RotatingOutage;
use simqueue::{
    assess_stability, checkpoint, GuardConfig, GuardOutcome, HistoryMode, InvariantGuard,
    NoopObserver, RoutingProtocol, SimObserver, Simulation, SimulationBuilder, StabilityVerdict,
    WindowAggregator,
};

use crate::probe::{
    err, leg, mean, median, ns_since, outcome_digest, peak_rss_mb, quantile, secs, timer_cost_ns,
    PlanProbe, TimedPlan,
};
use crate::{fastest_of, min_of, report_best_case, BestCase, Config, Report};

/// Set-ups per batch; a batch runs before every trial.
const SETUP_REPS: usize = 5;
/// The traced run times one step in this many.
const SAMPLE_EVERY: u64 = 16;
/// Repetitions of each traced overhead leg and checkpoint probe.
const LEG_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Gradient,
    Sparse,
    Guarded,
}

/// The fixed size and pinned answer of a workload. A trial's horizon is
/// its scenario's `steps`.
struct Shape {
    /// Steps per timed chunk.
    chunk: u64,
    /// `Some(k)`: stop at the first `Stable` verdict, assessed every `k`
    /// steps (a multiple of `chunk`).
    until_stable: Option<u64>,
    /// `--checkpoint-every` (a multiple of `chunk`).
    snapshot_every: Option<u64>,
    /// Steps of each traced overhead leg.
    leg_steps: u64,
    /// Pinned answer: steps run and outcome digest. The trajectories have
    /// no random input (exact injection, deterministic protocols and
    /// outages), so these hold for every seed.
    expected_steps: u64,
    expected_digest: u64,
}

impl Workload {
    pub fn by_name(name: &str) -> Workload {
        match name {
            "lgg-gradient" => Workload::Gradient,
            "sparse-steady" => Workload::Sparse,
            "long-run-guarded" => Workload::Guarded,
            other => unreachable!("workload {other} is validated by the caller"),
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::Gradient => Shape {
                chunk: 64,
                until_stable: Some(16_384),
                snapshot_every: None,
                leg_steps: 50_000,
                expected_steps: 32_768,
                expected_digest: 0xc127_1593_f98d_1dea,
            },
            Workload::Sparse => Shape {
                chunk: 256,
                until_stable: None,
                snapshot_every: None,
                leg_steps: 50_000,
                expected_steps: 100_000,
                expected_digest: 0x5f5a_6c34_d69e_f221,
            },
            Workload::Guarded => Shape {
                chunk: 1000,
                until_stable: None,
                snapshot_every: Some(50_000),
                leg_steps: 500_000,
                expected_steps: 1_000_000,
                expected_digest: 0x2caa_ce98_3fbc_1b67,
            },
        }
    }

    /// The workload's scenario file. `seed` is the scenario's master seed.
    fn scenario_json(self, seed: u64) -> String {
        match self {
            // Theorem 1's case: one source at a corner of the 16×16 grid,
            // one sink at the opposite corner with twice its rate.
            Workload::Gradient => format!(
                r#"{{"topology": {{"kind": "grid2d", "rows": 16, "cols": 16}},
                    "sources": [{{"node": 0, "rate": 1}}],
                    "sinks": [{{"node": 255, "rate": 2}}],
                    "protocol": "lgg", "steps": 65536, "seed": {seed}}}"#
            ),
            // One shortest-path flow across the 64×64 grid.
            Workload::Sparse => format!(
                r#"{{"topology": {{"kind": "grid2d", "rows": 64, "cols": 64}},
                    "sources": [{{"node": 0, "rate": 1}}],
                    "sinks": [{{"node": 4095, "rate": 2}}],
                    "protocol": "shortest-path", "steps": 100000, "seed": {seed}}}"#
            ),
            // scenarios/flapping_fabric.json, stretched to 1M steps.
            Workload::Guarded => format!(
                r#"{{"topology": {{"kind": "leaf-spine", "leaves": 4, "spines": 2,
                                  "trunks": 2, "hosts_per_leaf": 3}},
                    "sources": [{{"node": 0, "rate": 1}}, {{"node": 1, "rate": 1}}],
                    "sinks": [{{"node": 2, "rate": 2}}, {{"node": 3, "rate": 2}}],
                    "protocol": "lgg",
                    "dynamics": {{"kind": "rotating", "k": 1}},
                    "telemetry": {{"kind": "window", "size": 256}},
                    "steps": 1000000, "seed": {seed}}}"#
            ),
        }
    }
}

/// A parsed, classified scenario.
struct Prepared {
    sc: Scenario,
    spec: TrafficSpec,
    unsaturated: bool,
}

fn prepare(json: &str) -> Result<Prepared, String> {
    let sc = Scenario::from_json(json).map_err(err)?;
    let spec = sc.traffic_spec().map_err(err)?;
    let unsaturated = matches!(classify(&spec).feasibility, Feasibility::Unsaturated { .. });
    Ok(Prepared {
        sc,
        spec,
        unsaturated,
    })
}

type Plain = Simulation<ScenarioObserver>;
type Guarded = Simulation<InvariantGuard<ScenarioObserver>>;

/// `lgg-sim run` without `--guard`: the scenario as written.
fn build_plain(p: &Prepared) -> Result<Plain, String> {
    p.sc.build(SimOverrides::default()).map_err(err)
}

/// The `lgg-sim run --guard` observer: the hard checks plus online
/// divergence, around the scenario's telemetry. `lgg-sim` adds Lemma 1's
/// `P_t` bound only on the core model, which `flapping_fabric`'s rotating
/// outages are outside of.
fn guard_observer(p: &Prepared) -> Result<InvariantGuard<ScenarioObserver>, String> {
    let mut gc = GuardConfig::checks();
    gc.divergence = true;
    let telemetry = p.sc.telemetry.build().map_err(err)?;
    Ok(InvariantGuard::with_inner(&p.spec, gc, telemetry))
}

/// `lgg-sim run --guard`. Its `--checkpoint-every` snapshots are written
/// by the stepping loop (see [`run_to_answer`]).
fn build_guarded(p: &Prepared) -> Result<Guarded, String> {
    p.sc.build_with_observer(SimOverrides::default(), guard_observer(p)?)
        .map_err(err)
}

fn base_protocol(p: &Prepared) -> Result<Box<dyn RoutingProtocol>, String> {
    match p.sc.protocol {
        ProtocolSpec::Lgg => Ok(Box::new(Lgg::new())),
        ProtocolSpec::ShortestPath => Ok(Box::new(ShortestPathRouting::new(&p.spec))),
        ref other => Err(format!("protocol {other:?} is not a benchmark protocol")),
    }
}

/// A `SimulationBuilder` with the scenario's seed, dynamics and history
/// (`Scenario::build`'s default of `steps / 1024`). It runs the builder's
/// default active-set engine, whatever engine the scenario would pick;
/// the engines are bit-for-bit identical, so the digests still match.
fn builder(p: &Prepared, protocol: Box<dyn RoutingProtocol>) -> Result<SimulationBuilder, String> {
    let b = SimulationBuilder::new(p.spec.clone(), protocol)
        .seed(p.sc.seed)
        .history(HistoryMode::Sampled((p.sc.steps / 1024).max(1)));
    match p.sc.dynamics {
        DynamicsSpec::Static => Ok(b),
        DynamicsSpec::Rotating { k } => Ok(b.topology(Box::new(RotatingOutage { k }))),
        ref other => Err(format!("dynamics {other:?} is not a benchmark dynamics")),
    }
}

/// `Scenario::build_with_observer` with no overrides: the CLI path with a
/// chosen observer.
fn cli_build<O: SimObserver>(p: &Prepared, observer: O) -> Result<Simulation<O>, String> {
    p.sc.build_with_observer(SimOverrides::default(), observer)
        .map_err(err)
}

/// Per-step sampling for the traced run: one step in [`SAMPLE_EVERY`] is
/// timed, with the plan wrapper timing `plan` inside it.
struct Tracer {
    probe: Rc<PlanProbe>,
    timer_ns: f64,
    step_ns: Vec<f64>,
    plan_ns: Vec<f64>,
    active: Vec<f64>,
}

impl Tracer {
    fn new(timer_ns: f64) -> Self {
        Tracer {
            probe: Rc::new(PlanProbe::default()),
            timer_ns,
            step_ns: Vec::new(),
            plan_ns: Vec::new(),
            active: Vec::new(),
        }
    }

    fn wrap(&self, inner: Box<dyn RoutingProtocol>) -> Box<dyn RoutingProtocol> {
        Box::new(TimedPlan {
            inner,
            probe: Rc::clone(&self.probe),
        })
    }

    fn steps<O: SimObserver>(&mut self, sim: &mut Simulation<O>, target: u64) {
        while sim.time() < target {
            if !sim.time().is_multiple_of(SAMPLE_EVERY) {
                sim.step();
                continue;
            }
            self.active.push(sim.active_node_count() as f64);
            self.probe.sampling.set(true);
            let t = Instant::now();
            sim.step();
            let raw = ns_since(t);
            self.probe.sampling.set(false);
            // The step interval holds one timer call of its own and the
            // wrapper's two; the plan interval holds one.
            self.step_ns.push((raw - 3.0 * self.timer_ns).max(0.0));
            self.plan_ns
                .push((self.probe.last_ns.get() - self.timer_ns).max(0.0));
        }
    }
}

/// How a simulation advances and is judged, per observer type.
trait Advance {
    /// Runs to step `target`; `Some(reason)` when it stopped early.
    fn advance(&mut self, target: u64) -> Result<Option<String>, String>;
    /// [`Advance::advance`] one step at a time under the tracer.
    fn advance_traced(
        &mut self,
        target: u64,
        tracer: &mut Tracer,
    ) -> Result<Option<String>, String>;
    fn verdict(&self) -> StabilityVerdict;
}

impl Advance for Plain {
    fn advance(&mut self, target: u64) -> Result<Option<String>, String> {
        self.run(target - self.time());
        Ok(None)
    }

    fn advance_traced(
        &mut self,
        target: u64,
        tracer: &mut Tracer,
    ) -> Result<Option<String>, String> {
        tracer.steps(self, target);
        Ok(None)
    }

    fn verdict(&self) -> StabilityVerdict {
        assess_stability(&self.metrics().history).verdict
    }
}

impl Advance for Guarded {
    fn advance(&mut self, target: u64) -> Result<Option<String>, String> {
        let report = self.run_guarded(target, None, None).map_err(err)?;
        Ok(match report.outcome {
            GuardOutcome::Completed => None,
            other => Some(format!("guard stopped the run: {other:?}")),
        })
    }

    fn advance_traced(
        &mut self,
        target: u64,
        tracer: &mut Tracer,
    ) -> Result<Option<String>, String> {
        tracer.steps(self, target);
        Ok(self
            .observer()
            .violation()
            .map(|v| format!("guard violation: {v:?}")))
    }

    fn verdict(&self) -> StabilityVerdict {
        self.observer().online_report().verdict
    }
}

/// How a trial's simulation is built.
enum Build<'a> {
    /// `Scenario::build`, the path `lgg-sim run` takes.
    Cli,
    /// [`builder`]; with a tracer, the protocol is wrapped in `TimedPlan`
    /// and one step in [`SAMPLE_EVERY`] is timed.
    Builder(Option<&'a mut Tracer>),
}

/// One trial, from scenario text to checked answer.
struct Trial {
    unsaturated: bool,
    verdict: StabilityVerdict,
    stopped: Option<String>,
    /// `long-run-guarded`: the resume leg ended in the uninterrupted
    /// run's state.
    resume_matches: Option<bool>,
    steps: u64,
    digest: u64,
    build_s: f64,
    wall_s: f64,
    chunks_ms: Vec<f64>,
    stepping_s: f64,
    sent: u64,
    rejected: u64,
}

fn trial(w: Workload, json: &str, cfg: &Config, build: Build<'_>) -> Result<Trial, String> {
    let t0 = Instant::now();
    let p = prepare(json)?;
    let snapshots = cfg.work_dir.join("snapshots");
    if w.shape().snapshot_every.is_some() {
        let _ = fs::remove_dir_all(&snapshots);
    }
    let (tracer, protocol) = match build {
        Build::Cli => (None, None),
        Build::Builder(tracer) => {
            let base = base_protocol(&p)?;
            let protocol = match &tracer {
                Some(tr) => tr.wrap(base),
                None => base,
            };
            (tracer, Some(protocol))
        }
    };
    // A snapshot records the engine mode, so the resume leg restores into
    // a simulation built the same way as the trial's.
    let cli = protocol.is_none();
    if w == Workload::Guarded {
        let on_builder =
            |protocol| Ok(builder(&p, protocol)?.observer(guard_observer(&p)?).build());
        let sim = match protocol {
            None => build_guarded(&p)?,
            Some(protocol) => on_builder(protocol)?,
        };
        let fresh = || match cli {
            true => build_guarded(&p),
            false => on_builder(base_protocol(&p)?),
        };
        run_to_answer(w, &p, sim, &fresh, &snapshots, t0, tracer)
    } else {
        let on_builder = |protocol| {
            let telemetry = p.sc.telemetry.build().map_err(err)?;
            Ok(builder(&p, protocol)?.observer(telemetry).build())
        };
        let sim = match protocol {
            None => build_plain(&p)?,
            Some(protocol) => on_builder(protocol)?,
        };
        let fresh = || match cli {
            true => build_plain(&p),
            false => on_builder(base_protocol(&p)?),
        };
        run_to_answer(w, &p, sim, &fresh, &snapshots, t0, tracer)
    }
}

fn run_to_answer<O: SimObserver>(
    w: Workload,
    p: &Prepared,
    mut sim: Simulation<O>,
    fresh: &dyn Fn() -> Result<Simulation<O>, String>,
    snapshots: &Path,
    t0: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Result<Trial, String>
where
    Simulation<O>: Advance,
{
    let shape = w.shape();
    let horizon = p.sc.steps;
    let build_s = secs(t0);
    let mut chunks_ms = Vec::new();
    let mut stepping_s = 0.0;
    let mut stopped = None;
    let mut verdict = None;
    while sim.time() < horizon {
        let target = (sim.time() + shape.chunk).min(horizon);
        let t = Instant::now();
        stopped = match tracer.as_deref_mut() {
            Some(tr) => sim.advance_traced(target, tr)?,
            None => sim.advance(target)?,
        };
        if let Some(every) = shape.snapshot_every {
            // `run_guarded` with `--checkpoint-every` makes this same call
            // at every period and at its target.
            if sim.time().is_multiple_of(every) || sim.time() == horizon {
                sim.write_checkpoint_to(snapshots).map_err(err)?;
            }
        }
        let dt = secs(t);
        chunks_ms.push(dt * 1e3);
        stepping_s += dt;
        if stopped.is_some() {
            break;
        }
        if let Some(k) = shape.until_stable {
            if sim.time().is_multiple_of(k) && sim.verdict() == StabilityVerdict::Stable {
                verdict = Some(StabilityVerdict::Stable);
                break;
            }
        }
    }
    let verdict = verdict.unwrap_or_else(|| sim.verdict());
    let digest = outcome_digest(sim.metrics(), sim.queues());
    let resume_matches = match shape.snapshot_every {
        Some(every) if stopped.is_none() => {
            // Drop the snapshot taken at the horizon, as if the run had
            // died just before it: the resume then replays the last period
            // from the snapshot before.
            for (t, path) in checkpoint::list(snapshots).map_err(err)? {
                if t == horizon {
                    fs::remove_file(&path).map_err(err)?;
                }
            }
            let mut resumed = fresh()?;
            let from = resumed.resume_from_dir(snapshots).map_err(err)?;
            let replay_stopped = resumed.advance(horizon)?;
            Some(
                from == Some(horizon - every)
                    && replay_stopped.is_none()
                    && outcome_digest(resumed.metrics(), resumed.queues()) == digest,
            )
        }
        _ => None,
    };
    let m = sim.metrics();
    Ok(Trial {
        unsaturated: p.unsaturated,
        verdict,
        stopped,
        resume_matches,
        steps: sim.time(),
        digest,
        build_s,
        wall_s: secs(t0),
        chunks_ms,
        stepping_s,
        sent: m.sent,
        rejected: m.rejected_plans,
    })
}

fn check_trial(w: Workload, t: &Trial, report: &mut Report) {
    let shape = w.shape();
    report.check(t.unsaturated, || {
        format!("{w:?}: network is not classified Unsaturated")
    });
    report.check_eq("stability verdict", t.verdict, StabilityVerdict::Stable);
    report.check(t.stopped.is_none(), || {
        format!("{w:?}: {}", t.stopped.clone().unwrap_or_default())
    });
    if let Some(ok) = t.resume_matches {
        report.check(ok, || {
            "resumed run did not end in the uninterrupted run's state".into()
        });
    }
    report.check_eq("steps", t.steps, shape.expected_steps);
    report.check_eq(
        "outcome digest",
        format!("{:016x}", t.digest),
        format!("{:016x}", shape.expected_digest),
    );
}

/// Parse → spec → classify → simulation built, once.
fn setup_once(w: Workload, json: &str) -> Result<f64, String> {
    let t = Instant::now();
    let p = prepare(json)?;
    let steps = match w {
        Workload::Guarded => build_guarded(&p)?.time(),
        _ => build_plain(&p)?.time(),
    };
    black_box(steps);
    Ok(secs(t))
}

pub fn run(w: Workload, cfg: &Config, report: &mut Report) -> Result<(), String> {
    let json = w.scenario_json(cfg.seed);
    if cfg.trace {
        return run_traced(w, &json, cfg, report);
    }
    let start = Instant::now();
    let (mut trials, mut setups) = (Vec::new(), Vec::new());
    while trials.is_empty() || start.elapsed() < cfg.budget {
        setups.push(median_secs(SETUP_REPS, || setup_once(w, &json))?);
        trials.push(trial(w, &json, cfg, Build::Cli)?);
    }
    for t in &trials {
        check_trial(w, t, report);
    }
    report.set("peak_rss_mb", peak_rss_mb()?);
    let chunks_ms = fastest_of(
        &trials
            .iter()
            .map(|t| t.chunks_ms.clone())
            .collect::<Vec<_>>(),
    );
    let stepping_s = chunks_ms.iter().sum::<f64>() / 1e3;
    let build_s = min_of(trials.iter().map(|t| t.build_s));
    let rest_s = min_of(trials.iter().map(|t| t.wall_s - t.build_s - t.stepping_s));
    eprintln!("lggbench: {} trials", trials.len());
    report_best_case(
        BestCase {
            wall_s: build_s + stepping_s + rest_s,
            stepping_s,
            steps: trials[0].steps,
            chunks_ms,
            setup_s: min_of(setups),
        },
        report,
    );
    Ok(())
}

/// Median seconds of `f` over `reps` calls.
fn median_secs(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut v: Vec<f64> = (0..reps).map(|_| f()).collect::<Result<_, _>>()?;
    Ok(median(&mut v))
}

fn time_secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    secs(t)
}

/// The set-up layers, each timed on its own.
fn trace_setup(w: Workload, json: &str, report: &mut Report) -> Result<(), String> {
    let p = prepare(json)?;
    let reps = SETUP_REPS;
    let parse = median_secs(reps, || {
        let t = Instant::now();
        let sc = Scenario::from_json(json).map_err(err)?;
        black_box(&sc);
        Ok(secs(t))
    })?;
    let spec = median_secs(reps, || {
        let t = Instant::now();
        let spec = p.sc.traffic_spec().map_err(err)?;
        black_box(&spec);
        Ok(secs(t))
    })?;
    let classify_s = median_secs(reps, || {
        Ok(time_secs(|| {
            black_box(classify(&p.spec));
        }))
    })?;
    let dinic = median_secs(reps, || {
        let mut ext = ExtendedNetwork::feasibility(&p.spec);
        Ok(time_secs(|| {
            black_box(ext.solve(Algorithm::Dinic));
        }))
    })?;
    // The simulation layer alone: the builder is filled (and the spec
    // cloned) before the clock starts.
    let build = median_secs(reps, || {
        let b = builder(&p, base_protocol(&p)?)?;
        let t = Instant::now();
        let steps = match w {
            Workload::Guarded => b.observer(guard_observer(&p)?).build().time(),
            _ => b.build().time(),
        };
        black_box(steps);
        Ok(secs(t))
    })?;
    report.set("scenario.parse_us", parse * 1e6);
    report.set("scenario.spec_build_ms", spec * 1e3);
    report.set("netmodel.classify_ms", classify_s * 1e3);
    report.set("maxflow.dinic_solve_us", dinic * 1e6);
    report.set("engine.build_ms", build * 1e3);
    Ok(())
}

/// Observer and guard cost: the same steps, built the CLI way, with no
/// observer, with window telemetry, and under the hard invariant checks
/// (divergence off: it misfires while `lgg-gradient` fills, see
/// README.md).
fn trace_overheads(w: Workload, json: &str, report: &mut Report) -> Result<(), String> {
    let p = prepare(json)?;
    let n = w.shape().leg_steps;
    let (mut off, mut window, mut guard) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..LEG_REPS {
        off.push(leg(&mut cli_build(&p, NoopObserver)?, n));
        window.push(leg(&mut cli_build(&p, WindowAggregator::new(256))?, n));
        let checks = InvariantGuard::new(&p.spec, GuardConfig::checks());
        guard.push(leg(&mut cli_build(&p, checks)?, n));
    }
    let (off, window, guard) = (median(&mut off), median(&mut window), median(&mut guard));
    report.set("observer.enabled_overhead", window / off - 1.0);
    report.set("guard.overhead", guard / off - 1.0);
    report.set("guard.ns_per_step", (guard - off) * 1e9 / n as f64);
    Ok(())
}

/// Runs `sim` to `steps`, then times its stability verdict and snapshots
/// of its state.
fn trace_final_state<O: SimObserver>(
    mut sim: Simulation<O>,
    fresh: &dyn Fn() -> Result<Simulation<O>, String>,
    steps: u64,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String>
where
    Simulation<O>: Advance,
{
    sim.advance(steps)?;
    let assess = median_secs(LEG_REPS, || {
        Ok(time_secs(|| {
            black_box(sim.verdict());
        }))
    })?;
    report.set("stability.assess_us", assess * 1e6);
    trace_checkpoint(&mut sim, fresh, dir, report)
}

/// Snapshot encode, write and restore of a finished trial's state.
fn trace_checkpoint<O: SimObserver>(
    sim: &mut Simulation<O>,
    fresh: &dyn Fn() -> Result<Simulation<O>, String>,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let (mut encode, mut write, mut restore) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    let digest = outcome_digest(sim.metrics(), sim.queues());
    for _ in 0..LEG_REPS {
        let t = Instant::now();
        let payload = sim.checkpoint_payload();
        encode.push(secs(t));
        bytes = payload.len();
        let _ = fs::remove_dir_all(dir);
        let t = Instant::now();
        sim.write_checkpoint_to(dir).map_err(err)?;
        write.push(secs(t));
        let mut back = fresh()?;
        let t = Instant::now();
        let from = back.resume_from_dir(dir).map_err(err)?;
        restore.push(secs(t));
        report.check(
            from == Some(sim.time()) && outcome_digest(back.metrics(), back.queues()) == digest,
            || "restored snapshot differs from the state it was taken of".into(),
        );
    }
    report.set("checkpoint.encode_ms", median(&mut encode) * 1e3);
    report.set("checkpoint.write_ms", median(&mut write) * 1e3);
    report.set("checkpoint.bytes", bytes as f64);
    report.set("checkpoint.restore_ms", median(&mut restore) * 1e3);
    Ok(())
}

fn run_traced(w: Workload, json: &str, cfg: &Config, report: &mut Report) -> Result<(), String> {
    let timer_ns = timer_cost_ns();
    report.set("trace.timer_ns", timer_ns);
    trace_setup(w, json, report)?;

    // The CLI-path trial is the one the end-to-end figures time; the
    // traced trial needs the builder path, so its overhead is taken
    // against an untraced trial on that same path.
    let cli = trial(w, json, cfg, Build::Cli)?;
    check_trial(w, &cli, report);
    let untraced = trial(w, json, cfg, Build::Builder(None))?;
    check_trial(w, &untraced, report);
    let mut tracer = Tracer::new(timer_ns);
    let traced = trial(w, json, cfg, Build::Builder(Some(&mut tracer)))?;
    check_trial(w, &traced, report);
    report.check_eq("traced vs untraced digest", traced.digest, cli.digest);
    report.set(
        "trace.overhead",
        traced.stepping_s / untraced.stepping_s - 1.0,
    );

    let steps = traced.steps as f64;
    let plan_total: f64 = tracer.plan_ns.iter().sum();
    let step_total: f64 = tracer.step_ns.iter().sum();
    report.set("plan.ns_per_step", mean(&tracer.plan_ns));
    report.set("plan.share", plan_total / step_total);
    report.set(
        "plan.entries_per_step",
        tracer.probe.entries.get() as f64 / steps,
    );
    report.set(
        "engine.self_ns_per_step",
        (step_total - plan_total) / tracer.step_ns.len() as f64,
    );
    report.set("engine.step_ns_p50", quantile(&mut tracer.step_ns, 0.5));
    report.set("engine.step_ns_p99", quantile(&mut tracer.step_ns, 0.99));
    report.set("engine.sent_per_step", traced.sent as f64 / steps);
    report.set("engine.rejected_per_step", traced.rejected as f64 / steps);
    report.set("engine.active_nodes_mean", mean(&tracer.active));
    report.set("campaign.build_us_per_trial", cli.build_s * 1e6);
    report.set(
        "campaign.run_us_per_trial",
        (cli.wall_s - cli.build_s) * 1e6,
    );
    report.set("parpool.efficiency", 0.0);
    report.set("parpool.idle_share", 0.0);

    // Re-run the CLI trial's state for the stability and snapshot probes
    // (the trial itself consumed its simulation).
    let p = prepare(json)?;
    let dir = cfg.work_dir.join("probe");
    match w {
        Workload::Guarded => {
            let fresh = || build_guarded(&p);
            trace_final_state(fresh()?, &fresh, cli.steps, &dir, report)?;
        }
        _ => {
            let fresh = || build_plain(&p);
            trace_final_state(fresh()?, &fresh, cli.steps, &dir, report)?;
        }
    }
    trace_overheads(w, json, report)
}
