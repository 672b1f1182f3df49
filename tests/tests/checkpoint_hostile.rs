//! Hostile checkpoint input: damaged or forged snapshots of real runs
//! must come back as a typed `LggError`, never as a panic.
//!
//! Two payloads cover every record of the format:
//!
//! * `flapping_fabric` under the guard (divergence on) around its window
//!   telemetry: the guard's latch and online detector, closed windows and
//!   an open accumulator, the rotating-outage link mask and LGG's state;
//! * `lossy_sensor_field`, the one scenario with `track_ages` on, with no
//!   observer: age FIFOs, the latency statistics, the Gilbert–Elliott
//!   channel states and `matching-lgg`.
//!
//! Each payload is sealed into a container image, damaged, re-sealed so
//! the digest holds, and decoded and restored the way `resume_from_dir`
//! does it. Truncations and forged varints must fail as corrupt. A flipped
//! byte may still be a well-formed snapshot (a counter that changed), so
//! there the contract is only "a typed error or a restored simulation".
//! Lying counts inside the window records must fail as corrupt without
//! an allocation larger than the payload: the binary's allocator records
//! the largest single request each restore makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;

use lgg_cli::{Scenario, SimOverrides};
use simqueue::checkpoint::{self, wire};
use simqueue::{
    GuardConfig, InvariantGuard, LggError, NoopObserver, SimObserver, Simulation, WindowAggregator,
};

/// The system allocator, noting the largest request of each thread.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Restores `payload` into a freshly built `sim`. The largest allocation
/// on record is then that of the restore alone, not of the build.
fn restore_into<O: SimObserver>(mut sim: Simulation<O>, payload: &[u8]) -> Result<(), LggError> {
    LARGEST.with(|m| m.set(0));
    sim.restore_checkpoint_payload(payload)
}

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
    /// For the guarded run: the observer's record, the payload's last,
    /// and the telemetry state that closes it.
    observer: Vec<u8>,
    telemetry: Vec<u8>,
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
    let (mut observer, mut telemetry) = (Vec::new(), Vec::new());
    sim.observer_mut().save_state(&mut observer);
    sim.observer_mut().inner_mut().save_state(&mut telemetry);
    Case {
        name: "guarded flapping_fabric",
        payload: sim.checkpoint_payload(),
        restore: Box::new(move |p| restore_into(build(), p)),
        observer,
        telemetry,
    }
}

fn aged_sensor_field(steps: u64) -> Case {
    let sc = load("scenarios/lossy_sensor_field.json");
    assert!(sc.track_ages);
    let build = move || {
        sc.build_with_observer(SimOverrides::default(), NoopObserver)
            .unwrap()
    };
    let mut sim = build();
    sim.run(steps);
    assert!(sim.latency_stats().unwrap().count > 0, "packets retired");
    assert!(sim.queues().iter().any(|&q| q > 0), "packets in flight");
    Case {
        name: "lossy_sensor_field with ages",
        payload: sim.checkpoint_payload(),
        restore: Box::new(move |p| restore_into(build(), p)),
        observer: Vec::new(),
        telemetry: Vec::new(),
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

/// `bytes` with a length prefix, as a nested record is written.
fn prefixed(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_bytes(&mut out, bytes);
    out
}

/// `bytes` with the varint at `at` replaced by `x`.
fn with_varint(bytes: &[u8], at: usize, x: u64) -> Vec<u8> {
    let mut rest = wire::Reader::new(&bytes[at..]);
    rest.u64().unwrap();
    let mut out = bytes[..at].to_vec();
    wire::put_u64(&mut out, x);
    out.extend_from_slice(&bytes[bytes.len() - rest.remaining()..]);
    out
}

#[test]
fn lying_counts_in_window_records_are_corrupt() {
    let case = guarded_fabric(700);
    let (p, obs, tel) = (&case.payload, &case.observer, &case.telemetry);
    // The payload closes with the observer's record; the guard's closes
    // with the telemetry's, so a forged telemetry state is re-nested with
    // both length prefixes rewritten.
    let head = &p[..p.len() - prefixed(obs).len()];
    let guard_state = &obs[..obs.len() - prefixed(tel).len()];
    assert!(p.ends_with(&prefixed(obs)) && obs.ends_with(&prefixed(tel)));
    let forge = |tel: &[u8]| [head, &prefixed(&[guard_state, &prefixed(tel)].concat())].concat();

    // The telemetry state: the window size, the closed-window count, then
    // window 0's t_start, t_end and samples, the P_t minimum, maximum and
    // mean, max_queue, mean_active, the four flow counters, its link-loss
    // pairs and its histogram.
    let mut r = wire::Reader::new(tel);
    let at = |r: &wire::Reader<'_>| tel.len() - r.remaining();
    r.u64().unwrap();
    let windows_at = at(&r);
    let windows = r.u64().unwrap();
    assert!(windows >= 2, "{windows} closed windows");
    for _ in 0..3 {
        r.u64().unwrap();
    }
    r.u128().unwrap();
    r.u128().unwrap();
    r.f64().unwrap();
    r.u64().unwrap();
    r.f64().unwrap();
    for _ in 0..4 {
        r.u64().unwrap();
    }
    let links_at = at(&r);
    let links = r.u64().unwrap();
    for _ in 0..links {
        r.u32().unwrap();
        r.u64().unwrap();
    }
    let histogram_at = at(&r);
    let buckets = r.u64().unwrap();
    assert!(buckets > 0, "a closed window holds samples");

    // An honest restore expands some records (the metrics history, at
    // about ten bytes a sample on the wire); a lie must not add to that.
    case.resume(&checkpoint::encode(7, p)).unwrap();
    let honest_largest = LARGEST.with(Cell::get);
    for (what, at, truth) in [
        ("closed-window count", windows_at, windows),
        ("link-loss count", links_at, links),
        ("histogram length", histogram_at, buckets),
    ] {
        assert_eq!(
            &forge(&with_varint(tel, at, truth)),
            p,
            "{what}: re-nesting"
        );
        for lie in [1 << 63, truth + 1] {
            let lying = with_varint(tel, at, lie);
            let forged = forge(&lying);
            let img = checkpoint::encode(7, &forged);
            let result = case.resume(&img);
            let largest = LARGEST.with(Cell::get);
            match result {
                Err(e @ LggError::CheckpointCorrupt { .. }) => assert_eq!(e.exit_code(), 6),
                other => panic!("{what} = {lie}: {other:?}"),
            }
            assert!(
                largest <= honest_largest,
                "{what} = {lie}: a {largest}-byte allocation, {honest_largest} when honest"
            );
            // Restored alone, the telemetry record allocates no more than
            // the payload it came in.
            LARGEST.with(|m| m.set(0));
            let err = WindowAggregator::new(1).load_state(&lying).unwrap_err();
            assert!(matches!(err, LggError::CheckpointCorrupt { .. }), "{err}");
            let largest = LARGEST.with(Cell::get);
            assert!(
                largest <= forged.len(),
                "{what} = {lie}: a {largest}-byte allocation for a {}-byte payload",
                forged.len()
            );
        }
    }
}
