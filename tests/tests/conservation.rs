//! Integration: packet conservation and plan legality across the whole
//! protocol × injection × loss matrix, property-tested.

use lgg_core::baselines::{
    Flood, HeightRouting, MaxFlowRouting, RandomForward, ShortestPathRouting,
};
use lgg_core::interference::MatchingLgg;
use lgg_core::{Lgg, TieBreak};
use mgraph::generators;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simqueue::declare::{FullRetention, ZeroBelowRetention};
use simqueue::dynamic::{MarkovTopology, RotatingOutage};
use simqueue::injection::{BernoulliInjection, BurstInjection, OnOffInjection, ScaledInjection};
use simqueue::loss::{AdversarialLoss, GilbertElliottLoss, IidLoss};
use simqueue::{HistoryMode, LazyExtraction, RoutingProtocol, SimulationBuilder};

fn random_spec(seed: u64, n: usize) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_random(n, n / 2, &mut rng);
    TrafficSpecBuilder::new(g)
        .source(0, 2)
        .sink((n - 1) as u32, 3)
        .build()
        .unwrap()
}

fn protocol(idx: usize, spec: &TrafficSpec) -> Box<dyn RoutingProtocol> {
    match idx {
        0 => Box::new(Lgg::new()),
        1 => Box::new(Lgg::with_tie_break(TieBreak::Random, 5)),
        2 => Box::new(MaxFlowRouting::new(spec)),
        3 => Box::new(ShortestPathRouting::new(spec)),
        4 => Box::new(Flood),
        5 => Box::new(RandomForward::new(9)),
        6 => Box::new(HeightRouting::new()),
        _ => Box::new(MatchingLgg::new()),
    }
}

fn injection(idx: usize) -> Box<dyn simqueue::injection::InjectionProcess> {
    match idx {
        0 => Box::new(simqueue::injection::ExactInjection),
        1 => Box::new(ScaledInjection::new(1, 3)),
        2 => Box::new(BernoulliInjection::new(0.6)),
        3 => Box::new(OnOffInjection::new(0.1, 0.3)),
        _ => Box::new(BurstInjection {
            burst: 4,
            quiet: 4,
            burst_amount: 1,
        }),
    }
}

fn dynamics(idx: usize) -> Box<dyn simqueue::dynamic::TopologyProcess> {
    match idx {
        0 => Box::new(simqueue::dynamic::StaticTopology),
        1 => Box::new(MarkovTopology::new(0.05, 0.3, vec![])),
        _ => Box::new(RotatingOutage { k: 1 }),
    }
}

fn loss(idx: usize) -> Box<dyn simqueue::loss::LossModel> {
    match idx {
        0 => Box::new(simqueue::loss::NoLoss),
        1 => Box::new(IidLoss::new(0.2)),
        2 => Box::new(GilbertElliottLoss::new(0.01, 0.5, 0.1, 0.2)),
        _ => Box::new(AdversarialLoss::new(1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// injected = stored + delivered + lost — always, for every protocol,
    /// injection process, loss model, topology process and R-generalized
    /// policy combination.
    #[test]
    fn conservation_holds_across_matrix(
        seed in 0u64..500,
        n in 6usize..25,
        proto_idx in 0usize..8,
        inj_idx in 0usize..5,
        loss_idx in 0usize..4,
        dyn_idx in 0usize..3,
        generalized in any::<bool>(),
        steps in 50u64..400,
    ) {
        let mut spec = random_spec(seed, n);
        if generalized {
            // Promote the terminals to R-generalized nodes with retention.
            spec.retention = 4;
            spec.out_rate[0] = 1; // source also extracts a little
            spec.in_rate[n - 1] = 1; // sink also injects a little
        }
        let mut builder = SimulationBuilder::new(spec.clone(), protocol(proto_idx, &spec))
            .injection(injection(inj_idx))
            .loss(loss(loss_idx))
            .topology(dynamics(dyn_idx))
            .seed(seed ^ 0xABCD)
            .history(HistoryMode::None);
        if generalized {
            builder = builder
                .declaration(if seed % 2 == 0 {
                    Box::new(FullRetention)
                } else {
                    Box::new(ZeroBelowRetention)
                })
                .extraction(Box::new(LazyExtraction));
        }
        let mut sim = builder.build();
        sim.run(steps);
        let m = sim.metrics();
        let stored: u64 = sim.queues().iter().sum();
        prop_assert_eq!(
            m.injected,
            stored + m.delivered + m.lost,
            "proto {} inj {} loss {} dyn {} gen {}",
            proto_idx,
            inj_idx,
            loss_idx,
            dyn_idx,
            generalized
        );
        // Link accounting matches the send counter.
        prop_assert_eq!(m.link_sends.iter().sum::<u64>(), m.sent);
        // Every transmission either delivered somewhere or lost; totals
        // can never exceed what entered the network.
        prop_assert!(m.delivered + m.lost <= m.injected + 0);
        prop_assert!(m.sup_total as u128 <= m.injected as u128);
    }

    /// LGG and MatchingLgg never have a plan rejected: they are
    /// physically-correct protocols by construction.
    #[test]
    fn gradient_protocols_never_rejected(
        seed in 0u64..300,
        n in 6usize..25,
        matching in any::<bool>(),
        steps in 50u64..300,
    ) {
        let spec = random_spec(seed, n);
        let proto: Box<dyn RoutingProtocol> = if matching {
            Box::new(MatchingLgg::new())
        } else {
            Box::new(Lgg::new())
        };
        let mut sim = SimulationBuilder::new(spec, proto)
            .seed(seed)
            .history(HistoryMode::None)
            .build();
        sim.run(steps);
        prop_assert_eq!(sim.metrics().rejected_plans, 0);
    }

    /// Determinism across the full stack: identical seeds give identical
    /// trajectories for any protocol/injection/loss combination.
    #[test]
    fn full_stack_determinism(
        seed in 0u64..200,
        proto_idx in 0usize..8,
        inj_idx in 0usize..4,
        loss_idx in 0usize..4,
    ) {
        let spec = random_spec(seed, 12);
        let go = || {
            let mut sim = SimulationBuilder::new(spec.clone(), protocol(proto_idx, &spec))
                .injection(injection(inj_idx))
                .loss(loss(loss_idx))
                .seed(seed)
                .history(HistoryMode::None)
                .build();
            sim.run(200);
            (sim.queues().to_vec(), sim.metrics().clone())
        };
        let (q1, m1) = go();
        let (q2, m2) = go();
        prop_assert_eq!(q1, q2);
        prop_assert_eq!(m1, m2);
    }

    /// Losses never increase the backlog: a run with loss probability p
    /// has sup_total <= the lossless run's, on the same seed, for LGG.
    /// (This is the monotonicity intuition behind Conjecture 1; it holds
    /// statistically — we allow a small additive tolerance for scheduling
    /// noise.)
    #[test]
    fn losses_do_not_inflate_backlog(seed in 0u64..100, n in 8usize..20) {
        let spec = random_spec(seed, n);
        let sup = |p: f64| {
            let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
                .loss(Box::new(IidLoss::new(p)))
                .seed(seed)
                .history(HistoryMode::None)
                .build();
            sim.run(2000);
            sim.metrics().sup_total
        };
        let lossless = sup(0.0);
        let lossy = sup(0.3);
        prop_assert!(
            lossy <= lossless + n as u64,
            "lossy sup {} vs lossless {}",
            lossy,
            lossless
        );
    }
}
