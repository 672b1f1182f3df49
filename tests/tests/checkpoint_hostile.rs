//! Hostile checkpoint input: damaged or forged snapshots of real runs
//! must come back as a typed `LggError`, never as a panic.
//!
//! Two payloads cover every record of the format:
//!
//! * `flapping_fabric` under the guard (divergence on) around its window
//!   telemetry: the guard's latch and online detector, closed windows and
//!   an open accumulator, the rotating-outage link mask and LGG's state;
//! * `lossy_sensor_field`, the one scenario with `track_ages` on, with a
//!   `RingRecorder` installed: age FIFOs, the latency statistics, the
//!   Gilbert–Elliott channel states, `matching-lgg`, and recorded events.
//!
//! Each payload is sealed into a container image, damaged, re-sealed so
//! the digest holds, and decoded and restored the way `resume_from_dir`
//! does it. Truncations and forged varints must fail as corrupt. A flipped
//! byte may still be a well-formed snapshot (a counter that changed), so
//! there the contract is only "a typed error or a restored simulation".

use std::fs;

use lgg_cli::{Scenario, SimOverrides};
use simqueue::checkpoint::{self, wire};
use simqueue::{GuardConfig, InvariantGuard, LggError, RingRecorder};

fn load(rel: &str) -> Scenario {
    let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
    Scenario::from_json(&fs::read_to_string(path).unwrap()).unwrap()
}

/// Restores a payload into a freshly built simulation.
type Restore = Box<dyn Fn(&[u8]) -> Result<(), LggError>>;

/// A restore target and the payload of its own run at `steps`.
struct Case {
    name: &'static str,
    payload: Vec<u8>,
    restore: Restore,
}

fn guarded_fabric(steps: u64) -> Case {
    let sc = load("scenarios/flapping_fabric.json");
    let build = move || {
        let spec = sc.traffic_spec().unwrap();
        let mut gc = GuardConfig::checks();
        gc.divergence = true;
        let guard = InvariantGuard::with_inner(&spec, gc, sc.telemetry.build().unwrap());
        sc.build_with_observer(SimOverrides::default(), guard)
            .unwrap()
    };
    let mut sim = build();
    sim.run_guarded(steps, None, None).unwrap();
    Case {
        name: "guarded flapping_fabric",
        payload: sim.checkpoint_payload(),
        restore: Box::new(move |p| build().restore_checkpoint_payload(p)),
    }
}

fn aged_sensor_field(steps: u64) -> Case {
    let sc = load("scenarios/lossy_sensor_field.json");
    assert!(sc.track_ages);
    let build = move || {
        sc.build_with_observer(SimOverrides::default(), RingRecorder::new(64))
            .unwrap()
    };
    let mut sim = build();
    sim.run(steps);
    assert!(sim.latency_stats().unwrap().count > 0, "packets retired");
    assert!(sim.queues().iter().any(|&q| q > 0), "packets in flight");
    Case {
        name: "lossy_sensor_field with ages",
        payload: sim.checkpoint_payload(),
        restore: Box::new(move |p| build().restore_checkpoint_payload(p)),
    }
}

fn cases() -> [Case; 2] {
    [guarded_fabric(700), aged_sensor_field(400)]
}

/// Re-seals the digest of a damaged container image.
fn reseal(img: &mut [u8]) {
    let body_end = img.len() - 8;
    let digest = checkpoint::fnv1a(&img[..body_end]);
    img[body_end..].copy_from_slice(&digest.to_le_bytes());
}

impl Case {
    /// Decodes and restores a container image.
    fn resume(&self, img: &[u8]) -> Result<(), LggError> {
        let (_, payload) = checkpoint::decode(img)?;
        (self.restore)(payload)
    }

    fn assert_corrupt(&self, payload: &[u8], what: &str) {
        match (self.restore)(payload) {
            Err(LggError::CheckpointCorrupt { .. }) => {}
            other => panic!("{}: {what}: {other:?}", self.name),
        }
    }
}

#[test]
fn intact_payloads_restore() {
    for case in cases() {
        case.resume(&checkpoint::encode(7, &case.payload)).unwrap();
    }
}

#[test]
fn every_truncation_is_corrupt() {
    for case in cases() {
        for cut in 0..case.payload.len() {
            case.assert_corrupt(&case.payload[..cut], &format!("cut at {cut}"));
        }
    }
}

#[test]
fn every_resealed_byte_flip_is_typed() {
    for case in cases() {
        let img = checkpoint::encode(7, &case.payload);
        let (mut flips, mut rejected) = (0, 0);
        for at in 0..img.len() - 8 {
            for mask in [0x01, 0x80] {
                let mut bad = img.clone();
                bad[at] ^= mask;
                reseal(&mut bad);
                // Ok is a damaged counter that still parses; every error
                // is typed by construction, so reaching here without a
                // panic is the check.
                flips += 1;
                rejected += case.resume(&bad).is_err() as usize;
            }
        }
        eprintln!(
            "{}: {} payload bytes, {rejected} of {flips} flips rejected",
            case.name,
            case.payload.len()
        );
        assert!(rejected > flips / 4, "{}: {rejected} of {flips}", case.name);
    }
}

#[test]
fn forged_varints_are_corrupt() {
    for case in cases() {
        let p = &case.payload;
        // The payload opens with the node count, edge count and retention,
        // the age flag and six component names; the step count and the
        // queue vector's length follow.
        let mut r = wire::Reader::new(p);
        for _ in 0..3 {
            r.u64().unwrap();
        }
        r.bool_().unwrap();
        for _ in 0..6 {
            r.str_().unwrap();
        }
        let t_at = p.len() - r.remaining();
        r.u64().unwrap();
        let queues_at = p.len() - r.remaining();

        let splice = |at: usize, varint: &[u8]| {
            let mut rest = wire::Reader::new(&p[at..]);
            rest.u64().unwrap();
            let mut out = p[..at].to_vec();
            out.extend_from_slice(varint);
            out.extend_from_slice(&p[p.len() - rest.remaining()..]);
            out
        };
        let mut eleven = vec![0x81; 10];
        eleven.push(0x00);
        let mut two_64 = vec![0x80; 9];
        two_64.push(0x02);
        let mut huge_count = Vec::new();
        wire::put_u64(&mut huge_count, p.len() as u64);
        for at in [0, t_at] {
            case.assert_corrupt(&splice(at, &eleven), &format!("11-byte u64 at {at}"));
            case.assert_corrupt(&splice(at, &two_64), &format!("2^64 at {at}"));
        }
        case.assert_corrupt(&splice(queues_at, &huge_count), "queue count");
        case.assert_corrupt(&splice(queues_at, &two_64), "queue count of 2^64");
    }
}
