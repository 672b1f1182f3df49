//! Golden-trace regression: the JSONL event stream of the built-in smoke
//! scenario is locked byte-for-byte against a checked-in fixture.
//!
//! The trace schema is an external interface (`lgg-sim trace` output is
//! meant to be consumed by other tooling), so *any* change to event
//! names, field names, field order, number formatting, or emission order
//! shows up here as a diff instead of silently breaking downstream
//! parsers. The fixture is small on purpose: 150 steps of a 3×3 grid
//! with a lying R-generalized relay, i.i.d. loss and a rotating link
//! outage — enough to cover every event kind except `plan-rejected`
//! (covered separately below: LGG never overdraws, so it needs a
//! flooding protocol).

use lgg_cli::{capture_trace, trace_smoke_scenario};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/trace_small.jsonl")
}

#[test]
fn smoke_trace_matches_golden_fixture() {
    let sc = trace_smoke_scenario();
    let bytes = capture_trace(&sc, sc.steps, 1).expect("smoke scenario traces");
    let golden = std::fs::read(golden_path()).expect("tests/golden/trace_small.jsonl exists");
    if bytes != golden {
        // Find the first diverging line for a readable failure.
        let new_text = String::from_utf8_lossy(&bytes);
        let old_text = String::from_utf8_lossy(&golden);
        let (mut line_no, mut old_line, mut new_line) = (0usize, "", "");
        for (i, (o, n)) in old_text.lines().zip(new_text.lines()).enumerate() {
            if o != n {
                (line_no, old_line, new_line) = (i + 1, o, n);
                break;
            }
        }
        panic!(
            "trace output changed from the golden fixture \
             (first diff at line {line_no}:\n  golden: {old_line}\n  new:    {new_line}\n\
             golden has {} lines, new has {} lines).\n\
             If the schema change is intentional, regenerate with:\n  \
             cargo run -p lgg-cli --bin lgg-sim -- trace --smoke --out tests/golden/trace_small.jsonl",
            old_text.lines().count(),
            new_text.lines().count(),
        );
    }
}

#[test]
fn flood_protocol_traces_plan_rejections() {
    // Phase 4's event kind: LGG never overdraws, so the smoke fixture
    // cannot contain `plan-rejected`. Flood plans one transmission per
    // incident link regardless of queue size, and the engine's validator
    // rejects the overdraw — every rejection must be visible in the
    // trace.
    let sc = lgg_cli::Scenario::from_json(
        r#"{
            "topology": {"kind": "grid2d", "rows": 3, "cols": 3},
            "sources": [{"node": 0, "rate": 1}],
            "sinks": [{"node": 8, "rate": 1}],
            "protocol": "flood",
            "steps": 30,
            "seed": 3
        }"#,
    )
    .unwrap();
    let bytes = capture_trace(&sc, sc.steps, 1).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    assert!(
        text.lines().any(|l| l.contains("\"event\":\"plan-rejected\"")),
        "flood overdraw produced no plan-rejected events"
    );
}

#[test]
fn golden_fixture_covers_every_fixed_mode_event_kind() {
    let golden = std::fs::read_to_string(golden_path()).unwrap();
    for kind in [
        "link-up",
        "link-down",
        "injection",
        "declaration-lie",
        "transmission",
        "loss",
        "extraction",
        "sample",
    ] {
        let tag = format!("\"event\":\"{kind}\"");
        assert!(
            golden.lines().any(|l| l.contains(&tag)),
            "golden fixture lost its {kind} coverage"
        );
    }
}
