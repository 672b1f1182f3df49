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
//! runs), long enough for the random fault models to visit their states;
//! the classification (`NetworkClass` and `capacity_scaling`) of every
//! scenario file, of the experiment catalogs and of the bench's three
//! stability cases; and the report `lgg-sim FILE --json` prints for every
//! scenario file.

use std::fs;

use experiments::common::{saturated_catalog, unsaturated_catalog};
use lgg_cli::{run_chaos, run_scenario, ChaosConfig, Scenario, SimOverrides};
use mgraph::generators;
use netmodel::{capacity_scaling, classify, TrafficSpec, TrafficSpecBuilder};
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

/// The stem of every `scenarios/*.json`, sorted.
fn scenario_names() -> Vec<String> {
    let mut names: Vec<String> =
        fs::read_dir(format!("{}/../scenarios", env!("CARGO_MANIFEST_DIR")))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
    names.sort();
    names
}

#[test]
fn checkpoint_payload_digests_are_pinned() {
    let names = scenario_names();
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

/// `(group, digest)`: the FNV-1a of each spec's name, serialized
/// `NetworkClass` and `capacity_scaling`, over the group's specs in order,
/// as the dyadic bisections classified them.
const CLASS_PINNED: &[(&str, u64)] = &[
    ("scenario bursty_rgen_gauntlet", 0x7487_4705_eb90_9fb8),
    ("scenario flapping_fabric", 0x6abb_2e98_7330_b494),
    ("scenario liar_declaration_shrunk", 0x4fc5_2ffd_c545_593b),
    ("scenario lossy_sensor_field", 0x83eb_d845_09bc_a3ae),
    ("scenario saturated_dumbbell", 0xa0ea_56a0_a62a_614d),
    ("unsaturated_catalog(0xE1)", 0x0508_37a5_9c09_5fab),
    ("unsaturated_catalog(0xE2)", 0x66fe_9a07_9cc1_54ec),
    ("unsaturated_catalog(0xE3)", 0xc4a2_31d6_c85a_8328),
    ("unsaturated_catalog(0xE11)", 0xc4a2_31d6_c85a_8328),
    ("saturated_catalog", 0x16ec_f653_9113_d2fa),
    ("bench unsaturated-grid", 0x7d8b_3c17_f10f_aa91),
    ("bench saturated-dumbbell", 0x277e_4c10_a0a9_78ab),
    ("bench infeasible-path", 0xf839_b751_7249_5eed),
];

/// A source at `g`'s first node and a sink at its last, as `lgg-sim
/// bench` builds its stability cases.
fn corner_spec(g: mgraph::MultiGraph, source: u64, sink: u64) -> TrafficSpec {
    let last = (g.node_count() - 1) as u32;
    TrafficSpecBuilder::new(g)
        .source(0, source)
        .sink(last, sink)
        .build()
        .unwrap()
}

fn class_digest(specs: &[(String, TrafficSpec)]) -> u64 {
    let mut bytes = Vec::new();
    for (name, spec) in specs {
        let record = (name, classify(spec), capacity_scaling(spec));
        bytes.extend(serde_json::to_string(&record).unwrap().as_bytes());
    }
    fnv1a(&bytes)
}

#[test]
fn classification_digests_are_pinned() {
    let mut groups: Vec<(String, Vec<(String, TrafficSpec)>)> = Vec::new();
    for (run, _) in PINNED.iter().filter(|(r, _)| !r.ends_with("--guard")) {
        let spec = load(run).traffic_spec().unwrap();
        groups.push((format!("scenario {run}"), vec![(run.to_string(), spec)]));
    }
    for seed in [0xE1, 0xE2, 0xE3, 0xE11] {
        groups.push((
            format!("unsaturated_catalog(0x{seed:X})"),
            unsaturated_catalog(seed),
        ));
    }
    groups.push(("saturated_catalog".into(), saturated_catalog()));
    let stability = [
        (
            "unsaturated-grid",
            corner_spec(generators::grid2d(5, 5), 1, 4),
        ),
        (
            "saturated-dumbbell",
            corner_spec(generators::dumbbell(4, 2), 1, 4),
        ),
        ("infeasible-path", corner_spec(generators::path(5), 3, 3)),
    ];
    for (name, spec) in stability {
        groups.push((format!("bench {name}"), vec![(name.to_string(), spec)]));
    }

    let got: Vec<(String, u64)> = groups
        .iter()
        .map(|(group, specs)| (group.clone(), class_digest(specs)))
        .collect();
    let table: String = got
        .iter()
        .map(|(group, d)| format!("    (\"{group}\", 0x{d:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = CLASS_PINNED
        .iter()
        .map(|&(group, d)| (group.to_string(), d))
        .collect();
    assert_eq!(got, pinned, "classification digests moved; now:\n{table}");
}

/// `(scenario file, digest)`: the FNV-1a of what `lgg-sim FILE --json`
/// prints, trailing newline included.
const REPORT_PINNED: &[(&str, u64)] = &[
    ("bursty_rgen_gauntlet", 0x9fc5_4c17_167f_571e),
    ("flapping_fabric", 0x0dec_b8e6_a1e6_07be),
    ("liar_declaration_shrunk", 0xa3d4_4c7c_bbbb_fbac),
    ("lossy_sensor_field", 0x3e24_ab02_8074_1206),
    ("saturated_dumbbell", 0x5f5a_03b2_675e_d538),
];

#[test]
fn scenario_report_digests_are_pinned() {
    let pinned: Vec<&str> = REPORT_PINNED.iter().map(|(name, _)| *name).collect();
    assert_eq!(scenario_names(), pinned, "every scenario file is pinned");
    let got: Vec<(&str, u64)> = REPORT_PINNED
        .iter()
        .map(|&(name, _)| {
            let report = run_scenario(&load(name)).unwrap();
            let json = serde_json::to_string_pretty(&report).unwrap();
            (name, fnv1a(format!("{json}\n").as_bytes()))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got, REPORT_PINNED,
        "scenario report digests moved; now:\n{table}"
    );
}
