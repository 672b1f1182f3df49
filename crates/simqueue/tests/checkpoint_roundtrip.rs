//! Property tests for the checkpoint/restore subsystem.
//!
//! Two guarantees are exercised from *outside* the crate (through the
//! same trait surface downstream protocols use):
//!
//! 1. **State identity** — saving at an arbitrary step and restoring
//!    into a freshly built simulation yields a run that is bit-for-bit
//!    the uninterrupted one, across loss, dynamic topology, lying
//!    declarations and a stateful external protocol.
//! 2. **Crash safety** — a truncated in-flight temp file or a corrupted
//!    newer snapshot never poisons resume: the loader falls back to the
//!    newest *intact* snapshot.

use mgraph::generators;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simqueue::checkpoint::{self, wire};
use simqueue::declare::RandomBelowRetention;
use simqueue::dynamic::MarkovTopology;
use simqueue::injection::BernoulliInjection;
use simqueue::loss::IidLoss;
use simqueue::{
    HistoryMode, LggError, NetView, RoutingProtocol, Simulation, SimulationBuilder, Transmission,
};

/// A downstream-style protocol with *internal* RNG state: routes greedily
/// but breaks budget ties with its own xoshiro stream. If the checkpoint
/// skipped the protocol's save_state/load_state hooks, the resumed run
/// would draw a different coin sequence and diverge — which is exactly
/// what the identity property would catch.
struct CoinGreedy {
    rng: StdRng,
}

impl CoinGreedy {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl RoutingProtocol for CoinGreedy {
    fn name(&self) -> &'static str {
        "coin-greedy"
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        for &u in view.active_nodes {
            let mut budget = view.queue_of(u);
            for link in view.graph.incident_links(u) {
                if budget == 0 {
                    break;
                }
                if view.is_active(link.edge)
                    && view.declared_of(link.neighbor) < view.declared_of(u)
                    && self.rng.random_range(0..4u32) != 0
                {
                    budget -= 1;
                    out.push(Transmission {
                        edge: link.edge,
                        from: u,
                    });
                }
            }
        }
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        for w in self.rng.state() {
            wire::put_word(out, w);
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        let state = [r.word()?, r.word()?, r.word()?, r.word()?];
        self.rng = StdRng::from_state(state);
        r.done()
    }
}

fn busy_spec(seed: u64, n: usize) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_random(n, n / 2, &mut rng);
    TrafficSpecBuilder::new(g)
        .retention(3)
        .source(0, 2)
        .generalized(1, 1, 1)
        .sink((n - 1) as u32, 3)
        .build()
        .unwrap()
}

fn build_sim(seed: u64, n: usize) -> Simulation {
    SimulationBuilder::new(busy_spec(seed, n), Box::new(CoinGreedy::new(seed ^ 0xC01)))
        .seed(seed)
        .injection(Box::new(BernoulliInjection::new(0.7)))
        .loss(Box::new(IidLoss::new(0.05)))
        .topology(Box::new(MarkovTopology::new(0.03, 0.5, vec![])))
        .declaration(Box::new(RandomBelowRetention))
        .track_ages(true)
        .history(HistoryMode::EveryStep)
        .build()
}

fn metrics_json<O: simqueue::SimObserver>(sim: &Simulation<O>) -> String {
    serde_json::to_string(sim.metrics()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Save at an arbitrary step, restore into a *fresh* build, run both
    /// to the horizon: queues, metrics and a second snapshot agree
    /// byte-for-byte.
    #[test]
    fn save_restore_identity_at_arbitrary_step(
        seed in 0u64..200,
        n in 6usize..14,
        cut in 1u64..150,
        extra in 1u64..100,
    ) {
        let mut reference = build_sim(seed, n);
        reference.run(cut);
        let payload = reference.checkpoint_payload();

        let mut restored = build_sim(seed, n);
        restored.restore_checkpoint_payload(&payload).unwrap();
        prop_assert_eq!(restored.time(), cut);
        prop_assert_eq!(restored.queues(), reference.queues());

        reference.run(extra);
        restored.run(extra);
        prop_assert_eq!(restored.queues(), reference.queues());
        prop_assert_eq!(metrics_json(&restored), metrics_json(&reference));
        prop_assert_eq!(restored.checkpoint_payload(), reference.checkpoint_payload());
    }

    /// A snapshot from scenario A never restores into scenario B: any
    /// difference in topology size or component wiring is a typed
    /// CheckpointMismatch, and the target simulation keeps running.
    #[test]
    fn cross_scenario_restore_is_rejected(
        seed in 0u64..100,
        n in 6usize..12,
        cut in 1u64..80,
    ) {
        let mut source = build_sim(seed, n);
        source.run(cut);
        let payload = source.checkpoint_payload();
        // One node bigger: fingerprint mismatch, typed and descriptive.
        let mut other = build_sim(seed, n + 1);
        let err = other.restore_checkpoint_payload(&payload).unwrap_err();
        prop_assert!(matches!(err, LggError::CheckpointMismatch { .. }), "{}", err);
        // The rejected target is still usable.
        other.run(5);
        prop_assert_eq!(other.time(), 5);
    }
}

/// Crash-safety: interrupted writes and corrupted files must never mask
/// the newest intact snapshot.
#[test]
fn truncated_or_corrupt_snapshots_fall_back_to_last_good() {
    let dir = std::env::temp_dir().join(format!("lgg_ckpt_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut sim = build_sim(42, 9);
    sim.run(60);
    let good_t = sim.time();
    let good_path = sim.write_checkpoint_to(&dir).unwrap();
    let good_bytes = std::fs::read(&good_path).unwrap();

    // A crash mid-write leaves a truncated in-flight temp file…
    std::fs::write(
        dir.join("ckpt_inflight.tmp"),
        &good_bytes[..good_bytes.len() / 2],
    )
    .unwrap();
    // …and suppose an apparently *newer* snapshot got bit-flipped on disk.
    sim.run(40);
    let newer_path = sim.write_checkpoint_to(&dir).unwrap();
    let mut newer_bytes = std::fs::read(&newer_path).unwrap();
    let mid = newer_bytes.len() / 2;
    newer_bytes[mid] ^= 0xFF;
    std::fs::write(&newer_path, &newer_bytes).unwrap();

    // The loader must skip both damaged artifacts and land on the good one.
    let (t, payload) = checkpoint::load_latest(&dir)
        .unwrap()
        .expect("good snapshot");
    assert_eq!(t, good_t);

    let mut resumed = build_sim(42, 9);
    resumed.restore_checkpoint_payload(&payload).unwrap();
    assert_eq!(resumed.time(), good_t);

    // Direct read of the damaged file is the typed corrupt error.
    let err = checkpoint::read_snapshot(&newer_path).unwrap_err();
    assert!(matches!(err, LggError::CheckpointCorrupt { .. }), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshots in the previous container formats (version 1, which also
/// carried an engine-mode tag, version 2, which also carried the declared
/// queues, version 3, whose guard and window states were JSON, version 4,
/// whose trace sinks saved no link mask, and version 5, whose integers
/// were fixed-width and whose metrics were JSON) are refused with the
/// typed version error, never parsed as if they were current.
#[test]
fn version_1_snapshots_are_rejected() {
    for old in 1u32..=5 {
        let dir = std::env::temp_dir().join(format!("lgg_ckpt_v{old}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut sim = build_sim(7, 10);
        sim.run(50);
        let mut img = checkpoint::encode(sim.time(), &sim.checkpoint_payload());
        // Rewrite the header as the old version and re-seal the digest,
        // so only the version distinguishes it from a current snapshot.
        img[8..12].copy_from_slice(&old.to_le_bytes());
        let body_end = img.len() - 8;
        let digest = checkpoint::fnv1a(&img[..body_end]);
        img[body_end..].copy_from_slice(&digest.to_le_bytes());
        std::fs::write(dir.join(checkpoint::file_name(50)), &img).unwrap();

        let err = build_sim(7, 10).resume_from_dir(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                LggError::CheckpointVersion { found, expected: 6 } if found == old
            ),
            "{err}"
        );
        assert_eq!(err.exit_code(), 7);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
