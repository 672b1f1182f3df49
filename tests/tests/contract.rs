//! Pinned checkpoint payloads: the FNV-1a digest of `checkpoint_payload()`
//! after 3 000 steps of every `scenarios/*.json`, and of `flapping_fabric`
//! under the guard with its window telemetry (the configuration of the
//! `long-run-guarded` benchmark workload). A change to how the payload is
//! assembled — field order, nesting, a component's record — moves a
//! digest here; a change that keeps the bytes, such as a new way to store
//! or copy them, must not.
//!
//! Also pinned: the `run_chaos` digest of two full-size campaigns
//! (32 trials × 4 000 steps, the size the `chaos-campaign` benchmark
//! runs), long enough for the random fault models to visit their states.

use std::fs;

use lgg_cli::{run_chaos, ChaosConfig, Scenario, SimOverrides};
use simqueue::checkpoint::fnv1a;
use simqueue::{GuardConfig, InvariantGuard};

const STEPS: u64 = 3_000;

/// `(run, digest)` per pinned configuration, as the payload stood when
/// the window store began keeping closed windows as their records.
const PINNED: &[(&str, u64)] = &[
    ("bursty_rgen_gauntlet", 0x4b6b_024d_cd52_29d7),
    ("flapping_fabric", 0x05ab_5e9b_dc4a_8352),
    ("liar_declaration_shrunk", 0x7d64_bd0a_7e82_08cc),
    ("lossy_sensor_field", 0x0016_fbdf_839b_d67c),
    ("saturated_dumbbell", 0x7d17_e6c3_1b5f_ad8f),
    ("flapping_fabric --guard", 0x16e0_6378_e623_f3d2),
];

fn load(name: &str) -> Scenario {
    let path = format!("{}/../scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
    Scenario::from_json(&fs::read_to_string(path).unwrap()).unwrap()
}

fn payload_digest(run: &str) -> u64 {
    let payload = match run.strip_suffix(" --guard") {
        None => {
            let mut sim = load(run).build(SimOverrides::default()).unwrap();
            sim.run(STEPS);
            sim.checkpoint_payload()
        }
        Some(name) => {
            let sc = load(name);
            let mut gc = GuardConfig::checks();
            gc.divergence = true;
            let guard = InvariantGuard::with_inner(
                &sc.traffic_spec().unwrap(),
                gc,
                sc.telemetry.build().unwrap(),
            );
            let mut sim = sc
                .build_with_observer(SimOverrides::default(), guard)
                .unwrap();
            sim.run_guarded(STEPS, None, None).unwrap();
            assert_eq!(sim.time(), STEPS, "the guarded run completes");
            sim.checkpoint_payload()
        }
    };
    fnv1a(&payload)
}

#[test]
fn checkpoint_payload_digests_are_pinned() {
    let mut names: Vec<String> =
        fs::read_dir(format!("{}/../scenarios", env!("CARGO_MANIFEST_DIR")))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
    names.sort();
    let unguarded: Vec<&str> = PINNED
        .iter()
        .map(|(run, _)| *run)
        .filter(|r| !r.ends_with("--guard"))
        .collect();
    assert_eq!(
        names, unguarded,
        "every scenario file is pinned, and only those"
    );

    let got: Vec<(&str, u64)> = PINNED
        .iter()
        .map(|&(run, _)| (run, payload_digest(run)))
        .collect();
    let table: String = got
        .iter()
        .map(|(run, d)| format!("    (\"{run}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "payload digests moved; now:\n{table}");
}

/// `(campaign seed, digest)` of `lgg-sim chaos --trials 32 --steps 4000`.
const CHAOS_PINNED: &[(u64, &str)] = &[(42, "313e133ad71022fb"), (43, "f50cd8ff0d118fe8")];

#[test]
fn full_size_chaos_campaign_digests_are_pinned() {
    for &(seed, want) in CHAOS_PINNED {
        let out_dir =
            std::env::temp_dir().join(format!("lgg_contract_chaos_{}", std::process::id()));
        let report = run_chaos(&ChaosConfig {
            trials: 32,
            seed,
            steps: 4_000,
            out_dir: out_dir.display().to_string(),
            inject_fault: None,
        })
        .unwrap();
        assert_eq!(report.violations, 0, "seed {seed}");
        assert_eq!(report.digest, want, "seed {seed}");
    }
}
