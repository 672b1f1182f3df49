//! Guard + chaos integration: the online divergence detector against the
//! offline assessor on the checked-in scenarios, a really diverging run
//! under the `run --guard` configuration, the liar-declaration regression
//! scenario, and the checked-in chaos reproducer.

use std::path::{Path, PathBuf};

use lgg_cli::{replay_reproducer, ObserverSpec, Scenario};
use simqueue::{
    assess_stability, GuardConfig, GuardOutcome, HistoryMode, InvariantGuard, NoopObserver,
    OnlineStability, SimOverrides, Violation, ViolationKind,
};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
}

fn load_scenario(rel: &str) -> Scenario {
    let path = repo_path(rel);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Scenario::from_json(&text).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

const CHECKED_IN: &[&str] = &[
    "scenarios/saturated_dumbbell.json",
    "scenarios/lossy_sensor_field.json",
    "scenarios/bursty_rgen_gauntlet.json",
    "scenarios/flapping_fabric.json",
];

/// The guard's streaming divergence detector is a subsampling wrapper
/// around `assess_stability`; with capacity covering the whole trajectory
/// the two must agree *exactly* on real recorded trajectories — not just
/// on the synthetic ramps the unit tests use.
#[test]
fn online_detector_agrees_with_offline_on_checked_in_scenarios() {
    for rel in CHECKED_IN {
        let sc = load_scenario(rel);
        // Full per-step history, capped horizon: the verdict comparison
        // needs a real trajectory, not the scenario's full 30k-50k run.
        let steps = sc.steps.min(8_000);
        let mut sim = sc
            .build(SimOverrides {
                history: Some(HistoryMode::EveryStep),
                ..SimOverrides::default()
            })
            .unwrap_or_else(|e| panic!("{rel}: {e}"));
        sim.run(steps);
        let history = &sim.metrics().history;
        assert_eq!(history.len() as u64, steps, "{rel}");

        let offline = assess_stability(history);
        let mut online = OnlineStability::new(history.len());
        for s in history {
            online.push(*s);
        }
        assert_eq!(
            online.assess(),
            offline,
            "{rel}: online (full capacity) must equal offline exactly"
        );

        // Subsampled (the guard's actual memory-bounded configuration):
        // the verdict must still match on these real trajectories.
        let mut small = OnlineStability::new(256);
        for s in history {
            small.push(*s);
        }
        assert_eq!(
            small.verdict(),
            offline.verdict,
            "{rel}: subsampled online verdict diverged from offline"
        );
    }
}

/// Every checked-in scenario runs violation-free under the full guard —
/// the chaos campaign's hard invariants hold on the curated suite too.
#[test]
fn checked_in_scenarios_pass_the_guard() {
    for rel in CHECKED_IN {
        let sc = load_scenario(rel);
        let spec = sc.traffic_spec().unwrap();
        let guard = InvariantGuard::with_inner(&spec, GuardConfig::checks(), NoopObserver);
        let mut sim = sc
            .build_with_observer(
                SimOverrides {
                    history: Some(HistoryMode::None),
                    ..SimOverrides::default()
                },
                guard,
            )
            .unwrap();
        let report = sim
            .run_guarded(sc.steps.min(4_000), None, None)
            .unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(
            matches!(report.outcome, GuardOutcome::Completed),
            "{rel}: {:?}",
            report.outcome
        );
    }
}

/// A really diverging run: `flapping_fabric` overloaded (both sources at
/// rate 9 against sinks draining 2 each), telemetry off, under the
/// configuration `lgg-sim run --guard` installs. The detector must latch
/// at its first 128-step assessment with the CLI's exact wording.
#[test]
fn overloaded_fabric_latches_divergence_at_first_assessment() {
    let mut sc = load_scenario("scenarios/flapping_fabric.json");
    for s in &mut sc.sources {
        s.rate = 9;
    }
    sc.telemetry = ObserverSpec::Off;
    let spec = sc.traffic_spec().unwrap();
    let mut cfg = GuardConfig::checks();
    cfg.divergence = true;
    let guard = InvariantGuard::with_inner(&spec, cfg, NoopObserver);
    let mut sim = sc
        .build_with_observer(SimOverrides::default(), guard)
        .unwrap();
    let report = sim.run_guarded(20_000, None, None).unwrap();
    assert_eq!(
        report.outcome,
        GuardOutcome::Violated(Violation {
            kind: ViolationKind::Divergence,
            step: 127,
            detail: "online detector: backlog diverging (slope 14.0000/step, sup 1799)".into(),
        })
    );
}

/// Regression: the shrunk liar-declaration scenario (full-retention
/// declarations sitting exactly on the `declared == R` legality boundary
/// of Definition 6(ii)) stays violation-free under the full guard,
/// including the declaration-legality check.
#[test]
fn liar_declaration_reproducer_stays_violation_free() {
    let sc = load_scenario("scenarios/liar_declaration_shrunk.json");
    assert_eq!(sc.retention, 5, "edge case needs R > 0");
    assert_eq!(sc.generalized.len(), 2, "edge case needs lying relays");
    let spec = sc.traffic_spec().unwrap();
    let mut cfg = GuardConfig::checks();
    cfg.divergence = true;
    let guard = InvariantGuard::with_inner(&spec, cfg, NoopObserver);
    let mut sim = sc
        .build_with_observer(SimOverrides::default(), guard)
        .unwrap();
    let report = sim.run_guarded(sc.steps, None, None).unwrap();
    assert!(
        matches!(report.outcome, GuardOutcome::Completed),
        "{:?}",
        report.outcome
    );
}

/// The checked-in chaos reproducer (a planted conservation fault, shrunk
/// by `lgg-sim run --guard --inject-fault`) must keep re-triggering the
/// recorded violation at the recorded step — the deterministic-replay
/// guarantee the whole reproducer format rests on.
#[test]
fn checked_in_reproducer_still_reproduces() {
    let path = repo_path("results/chaos/repro_conservation_fault.json");
    let v = replay_reproducer(path.to_str().unwrap())
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .expect("recorded violation must re-trigger at the recorded step");
    assert_eq!(format!("{}", v.kind), "conservation");
}
