//! Property tests for the simulation engine's bookkeeping invariants.

use mgraph::generators;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simqueue::injection::{BernoulliInjection, ScaledInjection, UniformInjection};
use simqueue::loss::IidLoss;
use simqueue::protocol::NullProtocol;
use simqueue::{HistoryMode, NetView, RoutingProtocol, SimulationBuilder, Transmission};

fn random_spec(seed: u64, n: usize) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_random(n, n / 2, &mut rng);
    TrafficSpecBuilder::new(g)
        .source(0, 2)
        .sink((n - 1) as u32, 3)
        .build()
        .unwrap()
}

/// Greedy downhill test protocol (engine-level; avoids a dev-dependency on
/// lgg-core, which depends on this crate).
struct Greedy;

impl RoutingProtocol for Greedy {
    fn name(&self) -> &'static str {
        "test-greedy"
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        for u in view.graph.nodes() {
            let mut budget = view.queue_of(u);
            for link in view.graph.incident_links(u) {
                if budget == 0 {
                    break;
                }
                if view.is_active(link.edge)
                    && view.declared_of(link.neighbor) < view.declared_of(u)
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The recorded network state always equals Σ q² of the actual queues,
    /// and the running suprema dominate every snapshot.
    #[test]
    fn recorded_state_matches_queues(
        seed in 0u64..300,
        n in 4usize..20,
        steps in 20u64..200,
    ) {
        let spec = random_spec(seed, n);
        let mut sim = SimulationBuilder::new(spec, Box::new(Greedy))
            .seed(seed)
            .history(HistoryMode::EveryStep)
            .build();
        for _ in 0..steps {
            sim.step();
            let pt: u128 = sim.queues().iter().map(|&q| (q as u128) * (q as u128)).sum();
            prop_assert_eq!(pt, sim.network_state());
            let total: u64 = sim.queues().iter().sum();
            prop_assert_eq!(total, sim.total_packets());
        }
        let m = sim.metrics();
        prop_assert_eq!(m.history.len(), steps as usize);
        for snap in &m.history {
            prop_assert!(snap.pt <= m.sup_pt);
            prop_assert!(snap.total_packets <= m.sup_total);
            prop_assert!(snap.max_queue <= m.max_queue_ever);
        }
        // packet_steps telescopes the per-step totals.
        let total_from_history: u128 =
            m.history.iter().map(|s| s.total_packets as u128).sum();
        prop_assert_eq!(total_from_history, m.packet_steps);
    }

    /// Sampled history records exactly every `stride`-th step.
    #[test]
    fn sampled_history_density(
        seed in 0u64..100,
        stride in 1u64..20,
        steps in 1u64..300,
    ) {
        let spec = random_spec(seed, 8);
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            .history(HistoryMode::Sampled(stride))
            .build();
        sim.run(steps);
        let expected = steps / stride;
        prop_assert_eq!(sim.metrics().history.len() as u64, expected);
        for snap in &sim.metrics().history {
            prop_assert_eq!(snap.t % stride, 0);
        }
    }

    /// With age tracking and no losses, every retired timestamp matches the
    /// delivered counter and latencies are bounded by the horizon.
    #[test]
    fn age_tracking_consistency(
        seed in 0u64..200,
        n in 4usize..16,
        steps in 20u64..300,
        lossy in any::<bool>(),
    ) {
        let spec = random_spec(seed, n);
        let mut builder = SimulationBuilder::new(spec, Box::new(Greedy))
            .seed(seed)
            .track_ages(true)
            .history(HistoryMode::None);
        if lossy {
            builder = builder.loss(Box::new(IidLoss::new(0.25)));
        }
        let mut sim = builder.build();
        sim.run(steps);
        let stats = sim.latency_stats().unwrap().clone();
        let m = sim.metrics();
        prop_assert_eq!(stats.count, m.delivered);
        prop_assert!(stats.max < steps);
        prop_assert_eq!(stats.buckets.iter().sum::<u64>(), stats.count);
        if stats.count > 0 {
            prop_assert!(stats.mean() <= stats.max as f64);
            prop_assert!(stats.quantile_upper_bound(1.0) >= 1);
        }
    }

    /// Injection processes never exceed the declared rate once clamped by
    /// the engine: injected <= steps · Σ in(v).
    #[test]
    fn injection_respects_rates(
        seed in 0u64..200,
        n in 4usize..16,
        steps in 10u64..200,
        inj in 0usize..4,
    ) {
        let spec = random_spec(seed, n);
        let injection: Box<dyn simqueue::injection::InjectionProcess> = match inj {
            0 => Box::new(simqueue::injection::ExactInjection),
            1 => Box::new(ScaledInjection::new(2, 3)),
            2 => Box::new(BernoulliInjection::new(0.7)),
            _ => Box::new(UniformInjection { mean: 9 }), // clamped to in(v)
        };
        let cap = spec.arrival_rate() * steps;
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            .injection(injection)
            .seed(seed)
            .history(HistoryMode::None)
            .build();
        sim.run(steps);
        prop_assert!(sim.metrics().injected <= cap);
        if inj == 0 {
            prop_assert_eq!(sim.metrics().injected, cap);
        }
    }

    /// The engine never creates packets out of thin air even when seeded
    /// with initial queues: stored + delivered + lost - injected equals the
    /// initial load, forever.
    #[test]
    fn initial_queues_accounted(
        seed in 0u64..200,
        n in 4usize..12,
        initial in 0u64..50,
        steps in 10u64..200,
    ) {
        let spec = random_spec(seed, n);
        let mut q0 = vec![0u64; n];
        q0[n / 2] = initial;
        let total0: u64 = q0.iter().sum();
        let mut sim = SimulationBuilder::new(spec, Box::new(Greedy))
            .initial_queues(q0)
            .seed(seed)
            .history(HistoryMode::None)
            .build();
        sim.run(steps);
        let m = sim.metrics();
        let stored: u64 = sim.queues().iter().sum();
        prop_assert_eq!(m.injected + total0, stored + m.delivered + m.lost);
    }
}

/// Active-set engine invariants: `P_t`, the total and the max, summed
/// over the occupancy set, must equal the from-scratch definition over
/// all of `V`. (The differential comparison against the full-scan oracle
/// lives in the integration-test crate.)
mod active_set_engine {
    use super::*;
    use simqueue::loss::NoLoss;
    use simqueue::{LazyExtraction, MaxExtraction, Simulation};

    /// A busier random spec: several sources/sinks plus an R-generalized
    /// node so declaration clamping is exercised.
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

    fn build(spec: TrafficSpec, seed: u64, inj: usize, lossy: bool) -> Simulation {
        let injection: Box<dyn simqueue::injection::InjectionProcess> = match inj {
            0 => Box::new(simqueue::injection::ExactInjection),
            1 => Box::new(ScaledInjection::new(1, 3)),
            2 => Box::new(BernoulliInjection::new(0.6)),
            _ => Box::new(UniformInjection { mean: 2 }),
        };
        let loss: Box<dyn simqueue::loss::LossModel> = if lossy {
            Box::new(IidLoss::new(0.2))
        } else {
            Box::new(NoLoss)
        };
        let extraction: Box<dyn simqueue::ExtractionPolicy> = if seed % 2 == 0 {
            Box::new(MaxExtraction)
        } else {
            Box::new(LazyExtraction)
        };
        SimulationBuilder::new(spec, Box::new(Greedy))
            .injection(injection)
            .loss(loss)
            .extraction(extraction)
            .seed(seed)
            .track_ages(true)
            .history(HistoryMode::EveryStep)
            .build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every recorded snapshot is summed over the active set only; it
        /// must equal a recompute of Σ q², Σ q and the max over the whole
        /// queue vector after every single step.
        #[test]
        fn incremental_accumulators_match_recompute(
            seed in 0u64..300,
            n in 4usize..20,
            steps in 20u64..150,
            inj in 0usize..4,
            lossy in any::<bool>(),
        ) {
            let mut sim = build(busy_spec(seed, n), seed, inj, lossy);
            for _ in 0..steps {
                sim.step();
                let snap = *sim.metrics().history.last().unwrap();
                // network_state()/total_packets() recompute from the queue
                // vector; the snapshot carries the running accumulators.
                prop_assert_eq!(snap.pt, sim.network_state());
                prop_assert_eq!(snap.total_packets, sim.total_packets());
                prop_assert_eq!(
                    snap.max_queue,
                    sim.queues().iter().copied().max().unwrap_or(0)
                );
            }
        }
    }
}

/// The guard's integer-first divergence predicate against the full
/// assessor: `OnlineStability::diverging()` must equal
/// `assess().verdict == Diverging` after every push, through buffer
/// halvings and across the corners of the rule.
mod online_divergence {
    use super::*;
    use simqueue::{OnlineStability, Snapshot, StabilityVerdict};

    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Backlog `i` of a `len`-step history of shape `shape`.
    fn backlog(shape: u64, a: u64, b: u64, seed: u64, i: u64, len: u64) -> u64 {
        match shape {
            // Flat, zero included.
            0 => a,
            // A ramp clipped at 47, 48 or 49: the last maximum sits at
            // the `2·TINY` floor.
            1 => (a + i * b / 16).min(47 + seed % 3),
            // A step from 2c to 3c: growth exactly 1.5 whenever the first
            // and last windows straddle it (c = 16 also puts the last
            // maximum at 48).
            2 => {
                let c = a / 2;
                if i * 10 < len * (b + 1) {
                    2 * c
                } else {
                    3 * c
                }
            }
            // Noise around a level, with an optional slow drift.
            3 => a + i * (seed % 4) / 64 + mix(seed ^ i) % (b * 8 + 1),
            // Draining.
            4 => (a * 20).saturating_sub(i * b / 8),
            // Superlinear growth.
            _ => a + i * i * b / (len * 8),
        }
    }

    fn push_all(online: &mut OnlineStability, values: impl Iterator<Item = u64>) -> Vec<bool> {
        values
            .enumerate()
            .map(|(i, v)| {
                online.push(Snapshot {
                    t: i as u64 + 1,
                    pt: (v as u128) * (v as u128),
                    total_packets: v,
                    max_queue: v,
                });
                let full = online.assess().verdict == StabilityVerdict::Diverging;
                assert_eq!(online.diverging(), full, "after {} pushes", i + 1);
                full
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Capacities from below the 64-point floor up, histories from
        /// empty to several halvings long.
        #[test]
        fn integer_first_predicate_matches_full_assessment(
            cap in 0usize..320,
            len in 0u64..1400,
            shape in 0u64..6,
            a in 0u64..80,
            b in 0u64..8,
            seed in any::<u64>(),
        ) {
            let mut online = OnlineStability::new(cap);
            push_all(&mut online, (0..len).map(|i| backlog(shape, a, b, seed, i, len)));
        }
    }

    #[test]
    fn rule_corners_agree() {
        // 240 unhalved points: the tail is [80, 240), windows of 40, so a
        // step at 180 gives window maxima [2c, 2c, 3c, 3c].
        let step = |c: u64| (0..240).map(move |i| if i < 180 { 2 * c } else { 3 * c });
        let last_verdict = |values: Vec<u64>| {
            let mut online = OnlineStability::new(4096);
            *push_all(&mut online, values.into_iter()).last().unwrap()
        };
        // Growth exactly 1.5 above the floor diverges; at the floor
        // (last maximum 48) it does not.
        assert!(last_verdict(step(17).collect()));
        assert!(!last_verdict(step(16).collect()));
        // Growth just under 1.5 does not.
        let under = (0..240).map(|i| if i < 180 { 35 } else { 52 });
        assert!(!last_verdict(under.collect()));
        // Flat and zero backlogs never diverge.
        assert!(!last_verdict(vec![0; 240]));
        assert!(!last_verdict(vec![60; 240]));
        // The 32-point floor: 31 points of a steep ramp are undecided,
        // the 32nd decides.
        let ramp = |n: u64| (0..n).map(|t| 5 + 3 * t).collect::<Vec<_>>();
        assert!(!last_verdict(ramp(31)));
        assert!(last_verdict(ramp(32)));
    }
}
