//! Integration: the step pipeline and the full-scan oracle
//! (`tests/src/lib.rs`) are observationally identical on every
//! checked-in scenario file.
//!
//! The scenario corpus spans the surface the unit tests reach piecewise:
//! matching-LGG interference, Gilbert–Elliott and adversarial loss,
//! R-generalized lying with lazy extraction, bursty injection, and
//! topology dynamics. Running both over each file and demanding equality
//! of queues, metrics (every step's snapshot included) and latency
//! statistics is the end-to-end form of the bit-for-bit requirement.

use integration_tests::{assert_matches_oracle, Parts};
use lgg_cli::{Scenario, SimOverrides};

/// Steps per scenario: enough to cross warm-up transients, burst cycles
/// and outage periods, small enough to keep the suite fast.
const STEPS: u64 = 3_000;

fn scenario_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

/// The components `Scenario::build` wires into its simulation.
fn parts(sc: &Scenario) -> Parts {
    let spec = sc.traffic_spec().expect("scenario builds");
    Parts {
        protocol: sc.protocol.build(&spec, sc.seed),
        injection: sc.injection.build().expect("injection builds"),
        loss: sc.loss.build().expect("loss builds"),
        topology: sc.dynamics.build(spec.graph.edge_count()),
        declaration: sc.declaration.build(),
        extraction: sc.extraction.build(),
        seed: sc.seed,
        initial_queues: None,
        track_ages: sc.track_ages,
        spec,
    }
}

#[test]
fn pipeline_matches_oracle_on_all_scenarios() {
    let dir = scenario_dir();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let sc = Scenario::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        eprintln!("oracle: {name}");
        assert_matches_oracle(|| parts(&sc), STEPS);
        seen += 1;
    }
    assert!(seen >= 4, "scenario corpus shrank: only {seen} files");
}

#[test]
fn parts_rebuild_what_scenario_build_runs() {
    // The oracle comparison above is only meaningful if `parts` wires the
    // same components `Scenario::build` does.
    let text = std::fs::read_to_string(scenario_dir().join("saturated_dumbbell.json")).unwrap();
    let sc = Scenario::from_json(&text).unwrap();
    let mut built = sc
        .build(SimOverrides {
            history: Some(simqueue::HistoryMode::EveryStep),
            ..SimOverrides::default()
        })
        .unwrap();
    let mut rebuilt = parts(&sc).pipeline();
    built.run(500);
    rebuilt.run(500);
    assert_eq!(built.queues(), rebuilt.queues());
    assert_eq!(built.metrics(), rebuilt.metrics());
    // The saturated dumbbell keeps a backlog at the bridge: the active
    // set is non-empty and exactly {v : q > 0}.
    let active = built.active_node_count();
    assert!(active > 0);
    assert_eq!(active, built.queues().iter().filter(|&&q| q > 0).count());
}
