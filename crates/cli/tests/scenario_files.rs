//! Every checked-in scenario file must parse, classify and run.

use std::fs;

use lgg_cli::{run_scenario, Scenario};
use simqueue::StabilityVerdict;

fn scenarios_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn all_checked_in_scenarios_parse_and_run() {
    let dir = scenarios_dir();
    let mut found = 0;
    for entry in fs::read_dir(&dir).expect("scenarios dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        found += 1;
        let text = fs::read_to_string(&path).unwrap();
        let mut scenario = Scenario::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        // Shrink for the test: the files ship with full-length runs.
        scenario.steps = 3000;
        let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(report.metrics.steps == 3000, "{path:?}");
        assert_ne!(
            report.stability.verdict,
            StabilityVerdict::Diverging,
            "{path:?} diverged: these showcase scenarios are all feasible-loaded"
        );
    }
    assert!(
        found >= 4,
        "expected the shipped scenario files, found {found}"
    );
}
