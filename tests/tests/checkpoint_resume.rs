//! End-to-end resume fidelity: an interrupted-then-resumed run must be
//! bit-for-bit identical to the uninterrupted one — same summary, same
//! trace bytes — and that equivalence must hold at every pool width.
//!
//! This drives the same `run_with_checkpoints` entry point the `lgg-sim
//! run` binary uses, so the CLI surface (checkpoint period, directory,
//! resume, trace truncation-on-resume) is what gets certified, not just
//! the engine-level payload round trip (which `simqueue`'s own property
//! tests already cover). The thread-count legs mirror `determinism.rs`:
//! CI re-runs this file under `LGG_THREADS=1` and `LGG_THREADS=4` too.

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use lgg_cli::{run_with_checkpoints, RunConfig};

/// Serializes access to the process-wide thread-count override.
fn override_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with the pool pinned to `threads` workers, restoring the
/// default (env/cores) resolution afterwards.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = override_lock().lock().expect("override lock");
    parpool::set_thread_override(Some(threads));
    let r = f();
    parpool::set_thread_override(None);
    r
}

const WIDE: usize = 4;

/// A busy scenario: loss, rotating outages, a lying R-generalized relay
/// and lazy extraction, so every checkpointed phase state matters.
const SCENARIO: &str = r#"{
    "topology": {"kind": "grid2d", "rows": 4, "cols": 4},
    "sources": [{"node": 0, "rate": 2}],
    "sinks": [{"node": 15, "rate": 3}],
    "generalized": [{"node": 5, "in": 1, "out": 0}],
    "retention": 4,
    "declaration": "full-retention",
    "extraction": "lazy",
    "protocol": "lgg",
    "injection": {"kind": "bernoulli", "p": 0.8},
    "loss": {"kind": "iid", "p": 0.1},
    "dynamics": {"kind": "rotating", "k": 2},
    "steps": 600,
    "seed": 99,
    "track_ages": true
}"#;

struct Workspace {
    base: PathBuf,
    scenario: String,
}

impl Workspace {
    fn new(tag: &str) -> Self {
        let base =
            std::env::temp_dir().join(format!("lgg_resume_e2e_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).expect("temp workspace");
        let scenario = base.join("scenario.json");
        fs::write(&scenario, SCENARIO).expect("write scenario");
        Workspace {
            scenario: scenario.to_string_lossy().into_owned(),
            base,
        }
    }

    fn path(&self, name: &str) -> String {
        self.base.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.base);
    }
}

/// Full run vs. interrupted-at-`cut`-then-resumed run, byte-compared.
fn assert_resume_is_bit_for_bit(tag: &str) {
    let ws = Workspace::new(tag);

    let full = run_with_checkpoints(&RunConfig {
        scenario_path: ws.scenario.clone(),
        trace: Some(ws.path("full.jsonl")),
        sample_stride: 1,
        ..RunConfig::default()
    })
    .expect("uninterrupted run");
    assert_eq!(full.steps, 600);

    let part = run_with_checkpoints(&RunConfig {
        scenario_path: ws.scenario.clone(),
        steps: Some(250),
        checkpoint_every: Some(100),
        checkpoint_dir: Some(ws.path("ckpts")),
        trace: Some(ws.path("part.jsonl")),
        sample_stride: 1,
        ..RunConfig::default()
    })
    .expect("interrupted run");
    assert_eq!(part.steps, 250);

    let resumed = run_with_checkpoints(&RunConfig {
        scenario_path: ws.scenario.clone(),
        checkpoint_every: Some(100),
        checkpoint_dir: Some(ws.path("ckpts")),
        resume: true,
        trace: Some(ws.path("part.jsonl")),
        sample_stride: 1,
        ..RunConfig::default()
    })
    .expect("resumed run");
    assert_eq!(resumed.resumed_from, Some(250));
    assert_eq!(resumed.steps, 600);
    assert_eq!(resumed.injected, full.injected);
    assert_eq!(resumed.delivered, full.delivered);
    assert_eq!(resumed.lost, full.lost);
    assert_eq!(resumed.final_pt, full.final_pt);
    assert_eq!(resumed.sup_pt, full.sup_pt);

    let a = fs::read(ws.path("full.jsonl")).expect("full trace");
    let b = fs::read(ws.path("part.jsonl")).expect("resumed trace");
    assert!(!a.is_empty());
    assert_eq!(a, b, "resumed trace bytes diverged from uninterrupted run");
}

#[test]
fn resume_is_bit_for_bit_single_thread() {
    with_threads(1, || assert_resume_is_bit_for_bit("narrow"));
}

#[test]
fn resume_is_bit_for_bit_wide_pool() {
    with_threads(WIDE, || assert_resume_is_bit_for_bit("wide"));
}

#[test]
fn resume_crosses_thread_counts() {
    // A checkpoint written under one pool width must resume under
    // another with the same bytes: snapshots carry no thread-dependent
    // state. Run the interrupted half at 1 thread and finish at WIDE,
    // comparing against an uninterrupted single-thread reference.
    let ws = Workspace::new("cross");

    let full = with_threads(1, || {
        run_with_checkpoints(&RunConfig {
            scenario_path: ws.scenario.clone(),
            trace: Some(ws.path("full.jsonl")),
            sample_stride: 1,
            ..RunConfig::default()
        })
        .expect("uninterrupted run")
    });

    with_threads(1, || {
        run_with_checkpoints(&RunConfig {
            scenario_path: ws.scenario.clone(),
            steps: Some(300),
            checkpoint_every: Some(150),
            checkpoint_dir: Some(ws.path("ckpts")),
            trace: Some(ws.path("part.jsonl")),
            sample_stride: 1,
            ..RunConfig::default()
        })
        .expect("interrupted run")
    });

    let resumed = with_threads(WIDE, || {
        run_with_checkpoints(&RunConfig {
            scenario_path: ws.scenario.clone(),
            checkpoint_every: Some(150),
            checkpoint_dir: Some(ws.path("ckpts")),
            resume: true,
            trace: Some(ws.path("part.jsonl")),
            sample_stride: 1,
            ..RunConfig::default()
        })
        .expect("resumed run")
    });
    assert_eq!(resumed.resumed_from, Some(300));
    assert_eq!(resumed.sup_pt, full.sup_pt);

    let a = fs::read(ws.path("full.jsonl")).expect("full trace");
    let b = fs::read(ws.path("part.jsonl")).expect("resumed trace");
    assert_eq!(a, b, "trace bytes diverged across thread counts");
}

/// `flapping_fabric`, which a guarded run keeps clean (SCENARIO's backlog
/// ramp trips the online divergence check), with telemetry `kind`.
fn fabric(ws: &Workspace, kind: &str) -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/flapping_fabric.json"
    );
    let mut sc = lgg_cli::Scenario::from_json(&fs::read_to_string(path).unwrap()).unwrap();
    if kind == "off" {
        sc.telemetry = lgg_cli::ObserverSpec::Off;
    }
    let copy = ws.path(&format!("fabric_{kind}.json"));
    fs::write(&copy, serde_json::to_string(&sc).unwrap()).unwrap();
    copy
}

/// `--guard` composes with `--resume`: a guarded run cut at a snapshot
/// and resumed under the guard writes the trace an uninterrupted run
/// writes, guarded or not, since the guard only reads the step records.
#[test]
fn guarded_resume_is_bit_for_bit() {
    let ws = Workspace::new("guarded");
    let scenario = fabric(&ws, "window");
    let run = |steps, resume, trace: &str, guard| {
        run_with_checkpoints(&RunConfig {
            scenario_path: scenario.clone(),
            steps: Some(steps),
            checkpoint_every: Some(300),
            checkpoint_dir: Some(ws.path(&format!("{trace}.ckpts"))),
            resume,
            trace: Some(ws.path(trace)),
            sample_stride: 1,
            guard,
            guard_dump: guard.then(|| ws.path("dump")),
            ..RunConfig::default()
        })
        .expect("clean run")
    };
    let plain = run(2000, false, "plain.jsonl", false);
    let guarded = run(2000, false, "guarded.jsonl", true);
    run(1000, false, "part.jsonl", true);
    let resumed = run(2000, true, "part.jsonl", true);
    assert_eq!(resumed.resumed_from, Some(1000));
    assert_eq!(resumed.sup_pt, plain.sup_pt);
    assert_eq!(guarded.sup_pt, plain.sup_pt);

    let read = |name| fs::read(ws.path(name)).expect("trace");
    assert_eq!(read("guarded.jsonl"), read("plain.jsonl"));
    assert_eq!(read("part.jsonl"), read("plain.jsonl"));
}

/// A snapshot written with `--guard` resumes only with `--guard`, and one
/// written without it only without: the other way round is a typed
/// mismatch (exit 8) that names the guard, with telemetry off (an empty
/// observer record) and with window telemetry alike.
#[test]
fn a_snapshot_resumes_only_under_its_own_guard_setting() {
    let ws = Workspace::new("mixed");
    for kind in ["off", "window"] {
        let scenario = fabric(&ws, kind);
        for guard in [false, true] {
            let dir = ws.path(&format!("{kind}_{guard}"));
            let cfg = |resume, guard| RunConfig {
                scenario_path: scenario.clone(),
                steps: Some(if resume { 600 } else { 300 }),
                checkpoint_every: Some(100),
                checkpoint_dir: Some(dir.clone()),
                resume,
                guard,
                guard_dump: guard.then(|| ws.path("dump")),
                ..RunConfig::default()
            };
            run_with_checkpoints(&cfg(false, guard)).expect("first leg");
            let err = run_with_checkpoints(&cfg(true, !guard)).unwrap_err();
            assert_eq!(err.exit_code(), 8, "{kind}, written guarded={guard}: {err}");
            assert!(err.to_string().contains("guard"), "{err}");
            let resumed = run_with_checkpoints(&cfg(true, guard)).expect("same setting");
            assert_eq!(resumed.resumed_from, Some(300));
        }
    }
}

/// A guarded run with window telemetry — `flapping_fabric` as `lgg-sim
/// run --guard` builds it, divergence check on — snapshotted mid-window
/// and resumed from the file continues exactly: the final payload (the
/// guard's and the aggregator's binary state included), the windows and
/// the online verdict equal the uninterrupted run's.
#[test]
fn guarded_window_run_resumes_bit_for_bit() {
    use lgg_cli::{Scenario, SimOverrides};
    use simqueue::{GuardConfig, GuardOutcome, InvariantGuard};

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/flapping_fabric.json"
    );
    let sc = Scenario::from_json(&fs::read_to_string(path).unwrap()).unwrap();
    let spec = sc.traffic_spec().unwrap();
    let build = || {
        let mut gc = GuardConfig::checks();
        gc.divergence = true;
        let guard = InvariantGuard::with_inner(&spec, gc, sc.telemetry.build().unwrap());
        sc.build_with_observer(SimOverrides::default(), guard)
            .unwrap()
    };
    let (mid, end) = (7_777, sc.steps);
    let run = |sim: &mut simqueue::Simulation<_>, target| {
        let report = sim.run_guarded(target, None, None).unwrap();
        assert_eq!(report.outcome, GuardOutcome::Completed);
    };

    let mut straight = build();
    run(&mut straight, end);

    let dir = std::env::temp_dir().join(format!("lgg_guarded_window_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut first = build();
    run(&mut first, mid);
    first.write_checkpoint_to(&dir).unwrap();
    drop(first);
    let mut resumed = build();
    assert_eq!(resumed.resume_from_dir(&dir).unwrap(), Some(mid));
    run(&mut resumed, end);
    let _ = fs::remove_dir_all(&dir);

    assert_eq!(resumed.checkpoint_payload(), straight.checkpoint_payload());
    assert_eq!(
        resumed.observer().online_report(),
        straight.observer().online_report()
    );
    let windows = |sim: simqueue::Simulation<InvariantGuard<lgg_cli::ScenarioObserver>>| {
        sim.into_observer()
            .into_inner()
            .into_windows()
            .expect("window telemetry")
    };
    let want = windows(straight);
    assert_eq!(want.len() as u64, end.div_ceil(256));
    assert_eq!(windows(resumed), want);
}
