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
