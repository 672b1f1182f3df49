//! `lgg-sim run`: checkpointed, resumable scenario execution.
//!
//! The paper's stability question only shows up over very long horizons —
//! a billion-step run that dies at step 900 million must not start over.
//! This subcommand wires [`simqueue::checkpoint`] into the scenario
//! runner: `--checkpoint-every N --checkpoint-dir D` snapshots the
//! complete simulation state crash-safely, and `--resume` picks the run
//! back up from the newest readable snapshot.
//!
//! Resume is *bit-for-bit*: the resumed run produces the same queues,
//! metrics, RNG draws and trace bytes as the uninterrupted one. For
//! `--trace` files that guarantee is kept by recording the flushed byte
//! count inside the snapshot and truncating the artifact back to it on
//! resume — any partially-written tail from the crash is cut off and
//! regenerated identically.
//!
//! `--kill-after K` exists for the crash-recovery smoke test: it runs to
//! step `K` and dies via `abort()` — no destructors, no buffer flushes —
//! the most faithful stand-in for a power cut that a process can produce.
//!
//! `--guard` composes with all of it: the guard's counters and online
//! detector are part of the snapshot, so a guarded run resumes (and is
//! killed) like any other, and a snapshot resumes only under the same
//! `--guard` setting it was written with.

use std::fs::{self, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom};
use std::path::PathBuf;

use simqueue::{
    CheckpointConfig, FaultSpec, GuardConfig, GuardOutcome, GuardReport, InvariantGuard, JsonlSink,
    LggError, SimObserver, Simulation,
};

use crate::chaos::{write_reproducer, Reproducer};
use crate::{
    DeclarationSpec, DynamicsSpec, InjectionSpec, LossSpec, ProtocolSpec, Scenario,
    ScenarioObserver, SimOverrides,
};

/// Configuration for [`run_with_checkpoints`] (the `lgg-sim run`
/// subcommand), parsed from its flags.
#[derive(Debug, Default)]
pub struct RunConfig {
    /// Path of the scenario JSON file.
    pub scenario_path: String,
    /// Steps to run (default: the scenario's `steps`). Absolute: a
    /// resumed run continues *to* this step, not *for* this many more.
    pub steps: Option<u64>,
    /// Snapshot period in steps (`--checkpoint-every`).
    pub checkpoint_every: Option<u64>,
    /// Snapshot directory (`--checkpoint-dir`); required by
    /// `--checkpoint-every`, `--resume` and `--kill-after`.
    pub checkpoint_dir: Option<String>,
    /// Resume from the newest readable snapshot before running.
    pub resume: bool,
    /// Stream the event trace as JSON Lines to this file.
    pub trace: Option<String>,
    /// Thin per-step `sample` trace lines to every Nth step (0/1 = all).
    pub sample_stride: u64,
    /// Crash hard (`abort()`, skipping flushes) after this step.
    pub kill_after: Option<u64>,
    /// Run under the invariant guard (`--guard`): conservation, link
    /// capacity, declaration legality, online divergence, and — on
    /// core-model unsaturated networks — Lemma 1's `P_t` bound.
    pub guard: bool,
    /// Where a guard abort dumps its reproducer and checkpoint
    /// (`--guard-dump`, default `results/chaos`).
    pub guard_dump: Option<String>,
    /// Plant a synthetic conservation fault at this step
    /// (`--inject-fault`, test hook for the guard pipeline).
    pub inject_fault: Option<u64>,
    /// Guard backlog budget: abort gracefully with a partial verdict when
    /// total stored packets exceed this (`--max-backlog`).
    pub max_backlog: Option<u64>,
    /// Guard wall-clock budget in milliseconds (`--max-wall-ms`), counted
    /// from the start of this invocation (a resumed run starts afresh).
    pub max_wall_ms: Option<u64>,
}

/// What a completed `lgg-sim run` reports.
#[derive(Debug)]
pub struct RunSummary {
    /// Final step count.
    pub steps: u64,
    /// The snapshot step the run resumed from, if any.
    pub resumed_from: Option<u64>,
    /// Total packets injected (across the whole run, resumes included).
    pub injected: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Total packets lost in transit.
    pub lost: u64,
    /// Final network state `P_t = Σ q²`.
    pub final_pt: u128,
    /// Supremum of `P_t` over the run.
    pub sup_pt: u128,
}

impl RunSummary {
    /// One-line human rendering.
    pub fn human(&self) -> String {
        let resumed = match self.resumed_from {
            Some(t) => format!(" (resumed from step {t})"),
            None => String::new(),
        };
        format!(
            "run: {} steps{}  injected {}  delivered {}  lost {}  P_t {}  sup P_t {}",
            self.steps,
            resumed,
            self.injected,
            self.delivered,
            self.lost,
            self.final_pt,
            self.sup_pt
        )
    }
}

/// Executes `cfg`: build (or resume) the scenario simulation, run it to
/// the target step with periodic crash-safe snapshots, and summarize.
/// Under `--guard` the scenario observer runs inside an
/// [`InvariantGuard`]; everything else is the same path.
pub fn run_with_checkpoints(cfg: &RunConfig) -> Result<RunSummary, LggError> {
    if cfg.checkpoint_dir.is_none()
        && (cfg.checkpoint_every.is_some() || cfg.resume || cfg.kill_after.is_some())
    {
        return Err(LggError::Usage(
            "lgg-sim run: --checkpoint-every/--resume/--kill-after require --checkpoint-dir".into(),
        ));
    }
    if !cfg.guard
        && (cfg.guard_dump.is_some()
            || cfg.inject_fault.is_some()
            || cfg.max_backlog.is_some()
            || cfg.max_wall_ms.is_some())
    {
        return Err(LggError::Usage(
            "lgg-sim run: --guard-dump/--inject-fault/--max-backlog/--max-wall-ms require --guard"
                .into(),
        ));
    }

    let text = fs::read_to_string(&cfg.scenario_path)
        .map_err(|e| LggError::io(format!("cannot read {}", cfg.scenario_path), e))?;
    let sc = Scenario::from_json(&text)?;
    let target = cfg.steps.unwrap_or(sc.steps);

    // A resumed run keeps the trace written so far; it is cut back to
    // the snapshot's byte count once the state is restored.
    let observer = match &cfg.trace {
        Some(path) => {
            let f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(!cfg.resume)
                .open(path)
                .map_err(|e| LggError::io(format!("cannot open trace file {path}"), e))?;
            let stride = cfg.sample_stride.max(1);
            ScenarioObserver::Jsonl(JsonlSink::new(BufWriter::new(f)).with_sample_stride(stride))
        }
        None => sc.telemetry.build()?,
    };

    if !cfg.guard {
        let advance = |sim: &mut Simulation<_>, to| sim.run_until(to).map(|_| None);
        let (summary, _) = drive(cfg, &sc, target, observer, |o| o, advance)?;
        return Ok(summary);
    }

    let spec = sc.traffic_spec()?;
    let mut gc = GuardConfig::checks();
    gc.divergence = true;
    gc.max_backlog = cfg.max_backlog;
    gc.max_wall_ms = cfg.max_wall_ms;
    gc.pt_bound = lemma1_bound(&sc, &spec);
    if let Some(b) = gc.pt_bound {
        eprintln!(
            "guard: core model on an unsaturated network — enforcing P_t <= {b:.0} (Lemma 1)"
        );
    }
    let dump = PathBuf::from(cfg.guard_dump.as_deref().unwrap_or("results/chaos"));
    let fault = cfg.inject_fault.map(|step| FaultSpec {
        step,
        node: 0,
        amount: 1,
    });
    let guard = InvariantGuard::with_inner(&spec, gc, observer);
    let advance = |sim: &mut Simulation<_>, to| sim.run_guarded(to, Some(&dump), fault).map(Some);
    let (summary, report) = drive(cfg, &sc, target, guard, InvariantGuard::inner_mut, advance)?;
    let report = report.expect("a guarded run reports its outcome");
    match report.outcome {
        GuardOutcome::Completed => {
            eprintln!(
                "guard: clean after {} steps — online stability {:?}, sup total {}",
                report.steps, report.stability.verdict, report.stability.sup_total
            );
            Ok(summary)
        }
        GuardOutcome::BudgetExceeded(kind) => {
            eprintln!(
                "guard: {kind} budget exceeded at step {} — partial verdict {:?}, sup total {}",
                report.steps, report.stability.verdict, report.stability.sup_total
            );
            if let Some(p) = &report.checkpoint {
                eprintln!("guard: state checkpoint dumped to {}", p.display());
            }
            Ok(summary)
        }
        GuardOutcome::Violated(v) => {
            let repro = Reproducer {
                scenario: sc.clone(),
                seed: sc.seed,
                steps: (v.step + 1).min(target),
                fault,
                violation: v.clone(),
            };
            let path = write_reproducer(&dump, 0, &repro)?;
            eprintln!(
                "guard: INVARIANT VIOLATION at step {}: {}: {}",
                v.step, v.kind, v.detail
            );
            eprintln!(
                "guard: seed {}  reproducer {}  (replay: lgg-sim chaos --replay {})",
                sc.seed,
                path.display(),
                path.display()
            );
            if let Some(p) = &report.checkpoint {
                eprintln!("guard: state checkpoint dumped to {}", p.display());
            }
            Err(v.into())
        }
    }
}

/// The one `lgg-sim run` body, for the scenario observer (`trace_of` is
/// the identity) and for the guard around it (`trace_of` unwraps it):
/// build, resume, cut the trace back to the snapshot, step with
/// `advance` (which writes the periodic snapshots and returns the guard's
/// report, if any), die under `--kill-after`, write the final snapshot,
/// summarize, and surface a failed trace write.
fn drive<O: SimObserver>(
    cfg: &RunConfig,
    sc: &Scenario,
    target: u64,
    observer: O,
    trace_of: fn(&mut O) -> &mut ScenarioObserver,
    advance: impl FnOnce(&mut Simulation<O>, u64) -> Result<Option<GuardReport>, LggError>,
) -> Result<(RunSummary, Option<GuardReport>), LggError> {
    // With a dir but no period, only the final-step snapshot is written
    // (useful to seed a later --resume without paying periodic I/O).
    let every = cfg.checkpoint_every.unwrap_or(target.max(1));
    let checkpoint = cfg
        .checkpoint_dir
        .as_ref()
        .map(|d| CheckpointConfig::new(every, d));
    let overrides = SimOverrides {
        checkpoint: checkpoint.clone(),
        ..SimOverrides::default()
    };
    let mut sim = sc.build_with_observer(overrides, observer)?;
    let resumed_from = match (&checkpoint, cfg.resume) {
        (Some(c), true) => sim.resume_from_dir(&c.dir)?,
        _ => None,
    };

    // Bytes past the count the snapshot recorded (all of them, without
    // a snapshot) are a crash's unflushed tail: cut them off.
    if cfg.resume && cfg.trace.is_some() {
        if let ScenarioObserver::Jsonl(sink) = trace_of(sim.observer_mut()) {
            let pos = sink.bytes_written();
            let file = sink.writer_mut().get_mut();
            file.set_len(pos)
                .and_then(|()| file.seek(SeekFrom::Start(pos)).map(|_| ()))
                .map_err(|e| LggError::io("cannot align trace file for resume", e))?;
        }
    }

    let start = sim.time();
    let kill = cfg.kill_after.filter(|&k| k < target);
    let report = advance(&mut sim, kill.unwrap_or(target))?;
    let completed = report
        .as_ref()
        .is_none_or(|r| r.outcome == GuardOutcome::Completed);
    if kill.is_some() && completed {
        // Die between periodic snapshots without unwinding or flushing,
        // so resume has to replay from the last one, as after a crash.
        std::process::abort();
    }
    if let Some(c) = &checkpoint {
        if start < target && sim.time() == target && !c.due(target) {
            sim.write_checkpoint_to(&c.dir)?;
        }
    }

    let summary = RunSummary {
        steps: sim.time(),
        resumed_from,
        injected: sim.metrics().injected,
        delivered: sim.metrics().delivered,
        lost: sim.metrics().lost,
        final_pt: sim.network_state(),
        sup_pt: sim.metrics().sup_pt,
    };
    // into_observer() runs finish(), the trace's last flush.
    let mut observer = sim.into_observer();
    trace_of(&mut observer).written()?;
    Ok((summary, report))
}

/// Lemma 1's `P_t ≤ nY² + 5nΔ²` bound holds for the *core* model only —
/// pure LGG, exact injection, no loss, static topology, truthful
/// declarations — and only on unsaturated networks. Returns the bound
/// when every precondition holds, so the guard can enforce it as a hard
/// invariant; anything else gets `None` (no `P_t` check).
fn lemma1_bound(sc: &Scenario, spec: &netmodel::TrafficSpec) -> Option<f64> {
    let core = matches!(sc.protocol, ProtocolSpec::Lgg)
        && matches!(sc.injection, InjectionSpec::Exact)
        && matches!(sc.loss, LossSpec::None)
        && matches!(sc.dynamics, DynamicsSpec::Static)
        && matches!(sc.declaration, DeclarationSpec::Truthful);
    if !core {
        return None;
    }
    lgg_core::bounds::unsaturated_bounds(spec).map(|b| b.state_bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_scenario(dir: &std::path::Path) -> String {
        let path = dir.join("sc.json");
        fs::write(
            &path,
            r#"{
                "topology": {"kind": "grid2d", "rows": 3, "cols": 3},
                "sources": [{"node": 0, "rate": 1}],
                "sinks": [{"node": 8, "rate": 2}],
                "generalized": [{"node": 4, "in": 1, "out": 0}],
                "retention": 4,
                "declaration": "full-retention",
                "protocol": "lgg",
                "loss": {"kind": "iid", "p": 0.1},
                "steps": 400,
                "seed": 11
            }"#,
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn fresh_run_then_resume_is_byte_identical() {
        let base = std::env::temp_dir().join(format!("lgg_run_cmd_{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let sc_path = write_scenario(&base);

        // Uninterrupted reference trace.
        let full_trace = base.join("full.jsonl");
        let summary = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path.clone(),
            trace: Some(full_trace.to_string_lossy().into_owned()),
            sample_stride: 1,
            ..RunConfig::default()
        })
        .unwrap();
        assert_eq!(summary.steps, 400);
        assert!(summary.resumed_from.is_none());

        // Two-part run: stop at 150 (checkpointed), then resume to 400.
        let part_trace = base.join("part.jsonl");
        let ckpt = base.join("ckpts");
        let first = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path.clone(),
            steps: Some(150),
            checkpoint_every: Some(60),
            checkpoint_dir: Some(ckpt.to_string_lossy().into_owned()),
            trace: Some(part_trace.to_string_lossy().into_owned()),
            sample_stride: 1,
            ..RunConfig::default()
        })
        .unwrap();
        assert_eq!(first.steps, 150);
        let second = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path,
            steps: Some(400),
            checkpoint_every: Some(60),
            checkpoint_dir: Some(ckpt.to_string_lossy().into_owned()),
            resume: true,
            trace: Some(part_trace.to_string_lossy().into_owned()),
            sample_stride: 1,
            ..RunConfig::default()
        })
        .unwrap();
        assert_eq!(second.resumed_from, Some(150));
        assert_eq!(second.steps, 400);
        assert_eq!(second.injected, summary.injected);
        assert_eq!(second.sup_pt, summary.sup_pt);

        let a = fs::read(&full_trace).unwrap();
        let b = fs::read(&part_trace).unwrap();
        assert_eq!(a, b, "resumed trace must be byte-identical");
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn guarded_run_is_clean_on_a_correct_engine() {
        let base = std::env::temp_dir().join(format!("lgg_guard_clean_{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let sc_path = write_scenario(&base);
        let summary = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path,
            guard: true,
            guard_dump: Some(base.join("dump").to_string_lossy().into_owned()),
            ..RunConfig::default()
        })
        .unwrap();
        assert_eq!(summary.steps, 400);
        assert!(!base.join("dump").exists(), "clean run must dump nothing");
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn guarded_run_with_planted_fault_exits_violation_and_dumps() {
        let base = std::env::temp_dir().join(format!("lgg_guard_fault_{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let sc_path = write_scenario(&base);
        let dump = base.join("dump");
        let err = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path,
            guard: true,
            guard_dump: Some(dump.to_string_lossy().into_owned()),
            inject_fault: Some(77),
            ..RunConfig::default()
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 9, "{err}");
        assert!(
            matches!(err, LggError::InvariantViolation { step: 77, .. }),
            "{err}"
        );
        // The dump dir holds both the reproducer and a state checkpoint.
        let repro = dump.join("repro_conservation_t0.json");
        assert!(repro.exists(), "missing {}", repro.display());
        let parsed: Reproducer =
            serde_json::from_str(&fs::read_to_string(&repro).unwrap()).unwrap();
        assert_eq!(parsed.violation.step, 77);
        assert_eq!(parsed.steps, 78, "horizon tightened to violation + 1");
        assert!(
            fs::read_dir(&dump).unwrap().count() >= 2,
            "expected reproducer + checkpoint"
        );
        // And the reproducer replays to the same violation.
        let v = crate::replay_reproducer(repro.to_str().unwrap())
            .unwrap()
            .expect("reproducer must re-trigger");
        assert_eq!(v.step, 77);
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn guard_flag_combinations_are_validated() {
        let err = run_with_checkpoints(&RunConfig {
            scenario_path: "x.json".into(),
            inject_fault: Some(5),
            ..RunConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, LggError::Usage(_)), "{err}");
    }

    #[test]
    fn a_resumed_guarded_run_meets_its_planted_fault_again() {
        let base = std::env::temp_dir().join(format!("lgg_guard_resume_{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let dump = base.join("dump");
        let cfg = RunConfig {
            scenario_path: write_scenario(&base),
            checkpoint_every: Some(50),
            checkpoint_dir: Some(base.join("ckpts").to_string_lossy().into_owned()),
            guard: true,
            guard_dump: Some(dump.to_string_lossy().into_owned()),
            inject_fault: Some(120),
            ..RunConfig::default()
        };
        let violated_at = |cfg: &RunConfig| {
            let err = run_with_checkpoints(cfg).unwrap_err();
            assert_eq!(err.exit_code(), 9, "{err}");
            let repro = dump.join("repro_conservation_t0.json");
            let parsed: Reproducer =
                serde_json::from_str(&fs::read_to_string(repro).unwrap()).unwrap();
            fs::remove_dir_all(&dump).unwrap();
            parsed.violation.step
        };
        assert_eq!(violated_at(&cfg), 120);
        // The snapshots at 50 and 100 were written before the fault; the
        // resumed run replays from 100 into the same fault.
        let resume = RunConfig {
            resume: true,
            ..cfg
        };
        assert_eq!(violated_at(&resume), 120);
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn a_failed_telemetry_file_is_an_io_error() {
        let base = std::env::temp_dir().join(format!("lgg_telemetry_io_{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let mut sc =
            Scenario::from_json(&fs::read_to_string(write_scenario(&base)).unwrap()).unwrap();
        // A directory cannot be created as a file; /dev/full takes the
        // open and fails every write.
        let mut paths = vec![base.to_string_lossy().into_owned()];
        if cfg!(target_os = "linux") {
            paths.push("/dev/full".into());
        }
        for path in paths {
            sc.telemetry = crate::ObserverSpec::Jsonl { path: path.clone() };
            let sc_path = base.join("jsonl.json");
            fs::write(&sc_path, serde_json::to_string(&sc).unwrap()).unwrap();
            let err = crate::run_scenario(&sc).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{path}: bare path: {err}");
            let err = run_with_checkpoints(&RunConfig {
                scenario_path: sc_path.to_string_lossy().into_owned(),
                ..RunConfig::default()
            })
            .unwrap_err();
            assert_eq!(err.exit_code(), 4, "{path}: run: {err}");
        }
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn checkpoint_flags_require_dir() {
        let err = run_with_checkpoints(&RunConfig {
            scenario_path: "does-not-matter.json".into(),
            checkpoint_every: Some(10),
            ..RunConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, LggError::Usage(_)), "{err}");
    }
}
