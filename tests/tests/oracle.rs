//! Differential tests: `simqueue`'s step pipeline against the full-scan
//! oracle in `tests/src/lib.rs`.
//!
//! Each case builds one configuration twice — once for the pipeline, once
//! for the oracle — and demands equal queues, metrics (every step's
//! snapshot included), latency statistics and stability assessments, and
//! equal traces: the events rendered from the pipeline's step records
//! against the log the oracle writes from its own scans. The cases cover
//! lying declarations, randomized policies, loss, link flips, ages, warm
//! starts, invalid plans, both density extremes, and network sizes whose
//! occupancy bitset spans several words and ends in a partial one.
//!
//! The hand-built cases give both sides the same components. Whole chaos
//! compositions give the oracle the reference components instead
//! (`Parts::reference`), so the planners, fault models and injection
//! processes are checked against their first versions in every regime
//! the campaign draws.

use integration_tests::{assert_matches_oracle, Parts};
use lgg_cli::{compose_trial, Scenario};
use lgg_core::baselines::ShortestPathRouting;
use lgg_core::Lgg;
use mgraph::{generators, EdgeId, NodeId};
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simqueue::declare::{
    DeclarationPolicy, FullRetention, RandomBelowRetention, ZeroBelowRetention,
};
use simqueue::dynamic::MarkovTopology;
use simqueue::injection::{BernoulliInjection, ScaledInjection, UniformInjection};
use simqueue::loss::IidLoss;
use simqueue::{LazyExtraction, NetView, RoutingProtocol, Transmission};

fn path_spec() -> TrafficSpec {
    TrafficSpecBuilder::new(generators::path(3))
        .source(0, 2)
        .sink(2, 2)
        .build()
        .unwrap()
}

fn lgg() -> Box<dyn RoutingProtocol> {
    Box::new(Lgg::new())
}

#[test]
fn pipeline_matches_oracle_classic() {
    let make = || Parts {
        loss: Box::new(IidLoss::new(0.2)),
        seed: 7,
        ..Parts::new(path_spec(), lgg())
    };
    assert_matches_oracle(make(), make(), 300);
}

#[test]
fn pipeline_matches_oracle_rgen_liars() {
    // R-generalized network under both deterministic lying policies:
    // FullRetention declares R > 0 on empty special nodes, which the
    // pipeline's overlay must carry while the oracle recomputes every node.
    fn zero() -> Box<dyn DeclarationPolicy> {
        Box::new(ZeroBelowRetention)
    }
    fn full() -> Box<dyn DeclarationPolicy> {
        Box::new(FullRetention)
    }
    for declaration in [zero as fn() -> Box<dyn DeclarationPolicy>, full] {
        let make = || {
            let spec = TrafficSpecBuilder::new(generators::grid2d(4, 4))
                .generalized(0, 3, 1)
                .generalized(15, 1, 3)
                .retention(4)
                .build()
                .unwrap();
            Parts {
                declaration: declaration(),
                extraction: Box::new(LazyExtraction),
                seed: 11,
                ..Parts::new(spec, lgg())
            }
        };
        assert_matches_oracle(make(), make(), 400);
    }
}

#[test]
fn pipeline_matches_oracle_random_declaration() {
    // RandomBelowRetention draws from the policy stream at special nodes
    // with q <= R; the oracle consults every node, the pipeline only the
    // special ones, and both must consume the same stream.
    let make = || {
        let spec = TrafficSpecBuilder::new(generators::grid2d(4, 4))
            .generalized(0, 2, 1)
            .generalized(15, 1, 2)
            .retention(3)
            .build()
            .unwrap();
        Parts {
            declaration: Box::new(RandomBelowRetention),
            loss: Box::new(IidLoss::new(0.1)),
            seed: 13,
            ..Parts::new(spec, lgg())
        }
    };
    assert_matches_oracle(make(), make(), 400);
}

#[test]
fn pipeline_matches_oracle_bursty_ages() {
    // Bernoulli injection, loss and age tracking on a larger random graph:
    // nodes wake and drain constantly, and arrivals are credited inside
    // the transmission loop while the oracle stages them.
    let make = || {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::connected_random(40, 30, &mut rng);
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 3)
            .sink(39, 4)
            .build()
            .unwrap();
        Parts {
            injection: Box::new(BernoulliInjection::new(0.6)),
            loss: Box::new(IidLoss::new(0.15)),
            track_ages: true,
            seed: 17,
            ..Parts::new(spec, lgg())
        }
    };
    assert_matches_oracle(make(), make(), 300);
}

#[test]
fn pipeline_matches_oracle_warm_start() {
    let make = || Parts {
        initial_queues: Some(vec![9, 0, 4]),
        track_ages: true,
        seed: 3,
        ..Parts::new(path_spec(), lgg())
    };
    assert_matches_oracle(make(), make(), 150);
}

#[test]
fn invalid_plans_match_oracle() {
    /// Plans nonsense: sends from an empty node, doubles a link, claims a
    /// foreign endpoint, names an edge that does not exist, and names
    /// senders that do not exist on links that do.
    struct Rogue;
    impl RoutingProtocol for Rogue {
        fn name(&self) -> &'static str {
            "rogue"
        }
        fn plan(&mut self, _view: &NetView<'_>, out: &mut Vec<Transmission>) {
            let tx = |e: u32, v: u32| Transmission {
                edge: EdgeId::new(e),
                from: NodeId::new(v),
            };
            out.extend([tx(0, 1), tx(0, 0), tx(0, 0), tx(0, 2), tx(1, 1), tx(9, 0)]);
            out.extend([tx(1, 8), tx(0, u32::MAX)]);
        }
    }
    let make = || Parts::new(path_spec(), Box::new(Rogue));
    assert_matches_oracle(make(), make(), 50);
}

#[test]
fn saturated_lgg_grid_matches_oracle() {
    // The dense side: an overloaded 16x16 grid under LGG fills until
    // nearly every node holds packets.
    let make = || {
        let spec = TrafficSpecBuilder::new(generators::grid2d(16, 16))
            .source(0, 4)
            .sink(255, 2)
            .build()
            .unwrap();
        Parts::new(spec, lgg())
    };
    let mut sim = make().pipeline();
    sim.run(3_000);
    assert!(
        sim.active_node_count() >= 240,
        "grid not saturated: {} of 256 nodes active",
        sim.active_node_count()
    );
    assert_matches_oracle(make(), make(), 3_000);
}

#[test]
fn steady_shortest_path_grid_matches_oracle() {
    // The sparse side: one flow across the 64x64 grid keeps only the
    // packets in flight busy, and the bitset spans 64 words.
    let make = || {
        let spec = TrafficSpecBuilder::new(generators::grid2d(64, 64))
            .source(0, 1)
            .sink(4095, 2)
            .build()
            .unwrap();
        let protocol = Box::new(ShortestPathRouting::new(&spec));
        Parts::new(spec, protocol)
    };
    let mut sim = make().pipeline();
    sim.run(600);
    assert!(
        sim.active_node_count() <= 4096 / 20,
        "grid not sparse: {} of 4096 nodes active",
        sim.active_node_count()
    );
    assert_matches_oracle(make(), make(), 600);
}

/// A busy random spec: several sources and sinks plus an R-generalized
/// node, so declaration clamping is exercised.
fn busy_spec(seed: u64, n: usize) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_random(n, n / 2, &mut rng);
    TrafficSpecBuilder::new(g)
        .retention(3)
        .source(0, 2)
        .source((n as u32) / 2, 1)
        .generalized(1, 1, 1)
        .sink((n - 1) as u32, 3)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random networks, injection processes, loss, link dynamics, lying
    /// and extraction policies: the pipeline is bit-for-bit the oracle. Sizes
    /// include 64, 65 and 129 (one full bitset word, and several words
    /// ending in a partial one) besides any size up to 200.
    #[test]
    fn pipeline_matches_oracle(
        seed in 0u64..300,
        pick in 0usize..6,
        any_n in 4usize..200,
        steps in 20u64..150,
        inj in 0usize..4,
        lossy in any::<bool>(),
        flapping in any::<bool>(),
        lying in any::<bool>(),
    ) {
        let n = [64, 65, 129].get(pick).copied().unwrap_or(any_n);
        let make = || {
            let mut parts = Parts::new(busy_spec(seed, n), lgg());
            parts.injection = match inj {
                0 => parts.injection,
                1 => Box::new(ScaledInjection::new(1, 3)),
                2 => Box::new(BernoulliInjection::new(0.6)),
                _ => Box::new(UniformInjection { mean: 2 }),
            };
            if lossy {
                parts.loss = Box::new(IidLoss::new(0.2));
            }
            if flapping {
                parts.topology = Box::new(MarkovTopology::new(0.05, 0.4, vec![]));
            }
            if lying {
                parts.declaration = Box::new(RandomBelowRetention);
            }
            if seed % 2 == 1 {
                parts.extraction = Box::new(LazyExtraction);
            }
            parts.seed = seed;
            parts.track_ages = true;
            parts
        };
        assert_matches_oracle(make(), make(), steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole chaos compositions (topology, endpoints, retention, protocol,
    /// injection, loss, dynamics, declaration and extraction drawn by
    /// `compose_trial`), with and without age tracking: the production
    /// components on the pipeline are bit-for-bit the reference
    /// components on the oracle.
    #[test]
    fn compositions_match_the_reference_oracle(
        campaign in any::<u64>(),
        trial in 0usize..64,
        track_ages in any::<bool>(),
    ) {
        let sc = Scenario { track_ages, ..compose_trial(campaign, trial, 1_000) };
        assert_matches_oracle(Parts::production(&sc), Parts::reference(&sc), sc.steps);
    }
}
