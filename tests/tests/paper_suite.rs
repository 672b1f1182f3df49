//! The whole paper, end to end: every registered experiment must run in
//! quick mode, pass its shape check, and serialize.
//!
//! This is the aggregate CI gate behind `EXPERIMENTS.md` — if any claim of
//! the paper stops reproducing, this test names it.

use experiments::{run_experiment, ALL_IDS};

#[test]
fn every_registered_experiment_reproduces_in_quick_mode() {
    let mut failures = Vec::new();
    for id in ALL_IDS {
        let report = run_experiment(id, true).expect("registered id");
        assert_eq!(report.id, id);
        // Serialization must round-trip (the harness writes these files).
        let json = serde_json::to_string(&report).unwrap();
        let back: experiments::ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        if !report.pass {
            failures.push(format!("{id}:\n{}", report.markdown()));
        }
    }
    assert!(
        failures.is_empty(),
        "experiments failed to reproduce:\n{}",
        failures.join("\n")
    );
}

#[test]
fn experiment_ids_are_unique_and_consistent() {
    let mut ids: Vec<_> = ALL_IDS.to_vec();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), ALL_IDS.len(), "duplicate experiment ids");
    // The four figures plus fifteen e-experiments.
    assert_eq!(ALL_IDS.len(), 19);
}
