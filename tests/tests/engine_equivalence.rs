//! Integration: the step pipeline and the full-scan oracle
//! (`tests/src/lib.rs`) are observationally identical on every
//! checked-in scenario file.
//!
//! The scenario corpus spans the surface the unit tests reach piecewise:
//! matching-LGG interference, Gilbert–Elliott and adversarial loss,
//! R-generalized lying with lazy extraction, bursty injection, and
//! topology dynamics. Running both over each file, the oracle with the
//! reference components wherever the file names one, and demanding
//! equality of queues, metrics (every step's snapshot included), latency
//! statistics and traces is the end-to-end form of the bit-for-bit
//! requirement.

use integration_tests::{assert_matches_oracle, Parts};
use lgg_cli::{Scenario, SimOverrides};

/// Steps per scenario: enough to cross warm-up transients, burst cycles
/// and outage periods, small enough to keep the suite fast.
const STEPS: u64 = 3_000;

fn scenario_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
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
        assert_matches_oracle(Parts::production(&sc), Parts::reference(&sc), STEPS);
        seen += 1;
    }
    assert!(seen >= 4, "scenario corpus shrank: only {seen} files");
}

#[test]
fn parts_rebuild_what_scenario_build_runs() {
    // The oracle comparison above is only meaningful if
    // `Parts::production` wires the same components `Scenario::build`
    // does.
    let text = std::fs::read_to_string(scenario_dir().join("saturated_dumbbell.json")).unwrap();
    let sc = Scenario::from_json(&text).unwrap();
    let mut built = sc
        .build(SimOverrides {
            history: Some(simqueue::HistoryMode::EveryStep),
            ..SimOverrides::default()
        })
        .unwrap();
    let mut rebuilt = Parts::production(&sc).pipeline();
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
