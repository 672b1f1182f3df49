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

use std::fs::{self, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom};
use std::path::PathBuf;

use simqueue::{
    CheckpointConfig, FaultSpec, GuardConfig, GuardOutcome, InvariantGuard, JsonlSink, LggError,
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
    /// Guard wall-clock budget in milliseconds (`--max-wall-ms`).
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
pub fn run_with_checkpoints(cfg: &RunConfig) -> Result<RunSummary, LggError> {
    let ckpt_dir: Option<PathBuf> = cfg.checkpoint_dir.as_ref().map(PathBuf::from);
    if ckpt_dir.is_none() && (cfg.checkpoint_every.is_some() || cfg.resume || cfg.kill_after.is_some())
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
    if cfg.guard && (cfg.resume || cfg.kill_after.is_some()) {
        return Err(LggError::Usage(
            "lgg-sim run: --guard is incompatible with --resume and --kill-after".into(),
        ));
    }

    let text = fs::read_to_string(&cfg.scenario_path)
        .map_err(|e| LggError::io(format!("cannot read {}", cfg.scenario_path), e))?;
    let sc = Scenario::from_json(&text)?;
    let target = cfg.steps.unwrap_or(sc.steps);
    // With a dir but no period, only the final-step snapshot is written
    // (useful to seed a later --resume without paying periodic I/O).
    let every = cfg.checkpoint_every.unwrap_or(target.max(1));

    // The trace observer opens its file without truncating: on resume the
    // already-written prefix must survive (it is cut back to the exact
    // checkpointed byte count below, never rewritten).
    let observer = match &cfg.trace {
        Some(path) => {
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)
                .map_err(|e| LggError::io(format!("cannot open trace file {path}"), e))?;
            let stride = cfg.sample_stride.max(1);
            ScenarioObserver::Jsonl(JsonlSink::new(BufWriter::new(f)).with_sample_stride(stride))
        }
        None => sc.telemetry.build()?,
    };

    if cfg.guard {
        return run_guarded_cmd(cfg, &sc, target, every, ckpt_dir, observer);
    }

    let mut sim = sc.build_with_observer(
        SimOverrides {
            checkpoint: ckpt_dir
                .as_ref()
                .map(|d| CheckpointConfig::new(every, d.clone())),
            ..SimOverrides::default()
        },
        observer,
    )?;

    let resumed_from = match (&ckpt_dir, cfg.resume) {
        (Some(dir), true) => sim.resume_from_dir(dir)?,
        _ => None,
    };

    // Align the trace artifact with the restored (or fresh) state: cut it
    // to the flushed byte count the snapshot recorded, or to zero for a
    // fresh run. Bytes past that point are a crash's unflushed tail.
    if cfg.trace.is_some() {
        if let ScenarioObserver::Jsonl(sink) = sim.observer_mut() {
            let pos = if resumed_from.is_some() {
                sink.bytes_written()
            } else {
                0
            };
            let file = sink.writer_mut().get_mut();
            file.set_len(pos)
                .and_then(|()| file.seek(SeekFrom::Start(pos)).map(|_| ()))
                .map_err(|e| LggError::io("cannot align trace file for resume", e))?;
        }
    }

    if let Some(k) = cfg.kill_after.filter(|&k| k < target) {
        // Periodic snapshots only — deliberately NOT the final-step
        // snapshot run_until would add — then die without unwinding, so
        // resume has to replay from the last periodic snapshot exactly
        // like after a real crash.
        let dir = ckpt_dir.as_ref().expect("checked above");
        while sim.time() < k {
            sim.step();
            if sim.time() % every == 0 {
                sim.write_checkpoint_to(dir)?;
            }
        }
        std::process::abort();
    }

    sim.run_until(target)?;

    let summary = RunSummary {
        steps: sim.time(),
        resumed_from,
        injected: sim.metrics().injected,
        delivered: sim.metrics().delivered,
        lost: sim.metrics().lost,
        final_pt: sim.network_state(),
        sup_pt: sim.metrics().sup_pt,
    };
    // Flush the trace and surface any write error the run swallowed
    // (JsonlSink keeps the first error sticky instead of panicking
    // mid-step).
    let mut obs = sim.into_observer();
    if let ScenarioObserver::Jsonl(sink) = &mut obs {
        if let Some(e) = sink.take_error() {
            return Err(LggError::io("trace write failed", e));
        }
    }
    Ok(summary)
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

/// The `--guard` variant of the run command: same build path, but the
/// scenario observer is wrapped in an [`InvariantGuard`] and the run goes
/// through `run_guarded`. A violation dumps a reproducer (replayable via
/// `lgg-sim chaos --replay`) plus a checkpoint into the dump dir and
/// surfaces as [`LggError::InvariantViolation`] — exit code 9.
fn run_guarded_cmd(
    cfg: &RunConfig,
    sc: &Scenario,
    target: u64,
    every: u64,
    ckpt_dir: Option<PathBuf>,
    observer: ScenarioObserver,
) -> Result<RunSummary, LggError> {
    let spec = sc.traffic_spec()?;
    let mut gc = GuardConfig::checks();
    gc.divergence = true;
    gc.max_backlog = cfg.max_backlog;
    gc.max_wall_ms = cfg.max_wall_ms;
    gc.pt_bound = lemma1_bound(sc, &spec);
    if let Some(b) = gc.pt_bound {
        eprintln!("guard: core model on an unsaturated network — enforcing P_t <= {b:.0} (Lemma 1)");
    }
    let guard = InvariantGuard::with_inner(&spec, gc, observer);
    let mut sim = sc.build_with_observer(
        SimOverrides {
            checkpoint: ckpt_dir
                .as_ref()
                .map(|d| CheckpointConfig::new(every, d.clone())),
            ..SimOverrides::default()
        },
        guard,
    )?;

    // Fresh-run trace alignment (no resume under --guard): drop any stale
    // bytes a previous run left in the (create + no-truncate) trace file.
    if cfg.trace.is_some() {
        if let ScenarioObserver::Jsonl(sink) = sim.observer_mut().inner_mut() {
            let file = sink.writer_mut().get_mut();
            file.set_len(0)
                .and_then(|()| file.seek(SeekFrom::Start(0)).map(|_| ()))
                .map_err(|e| LggError::io("cannot align trace file", e))?;
        }
    }

    let dump = PathBuf::from(
        cfg.guard_dump
            .clone()
            .unwrap_or_else(|| "results/chaos".into()),
    );
    let fault = cfg.inject_fault.map(|step| FaultSpec {
        step,
        node: 0,
        amount: 1,
    });
    let report = sim.run_guarded(target, Some(&dump), fault)?;

    let summary = RunSummary {
        steps: sim.time(),
        resumed_from: None,
        injected: sim.metrics().injected,
        delivered: sim.metrics().delivered,
        lost: sim.metrics().lost,
        final_pt: sim.network_state(),
        sup_pt: sim.metrics().sup_pt,
    };
    let mut obs = sim.into_observer().into_inner();
    if let ScenarioObserver::Jsonl(sink) = &mut obs {
        if let Some(e) = sink.take_error() {
            return Err(LggError::io("trace write failed", e));
        }
    }

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
            eprintln!("guard: INVARIANT VIOLATION at step {}: {}: {}", v.step, v.kind, v.detail);
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
        assert!(matches!(err, LggError::InvariantViolation { step: 77, .. }), "{err}");
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
        let err = run_with_checkpoints(&RunConfig {
            scenario_path: "x.json".into(),
            guard: true,
            resume: true,
            checkpoint_dir: Some("d".into()),
            ..RunConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, LggError::Usage(_)), "{err}");
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
