//! Bench: per-step cost of the LGG protocol as the network scales.
//!
//! LGG's cost per step is `O(Σ_v deg(v) log deg(v))` for the sorted
//! preference plus the engine's active-set bookkeeping; this bench pins
//! the constants and verifies the hot loop stays allocation-free (the
//! per-iteration time should scale linearly in `n + m`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lgg_core::Lgg;
use mgraph::generators;
use netmodel::TrafficSpecBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simqueue::{HistoryMode, SimulationBuilder};
use std::hint::black_box;

fn bench_step_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("lgg_step/grid");
    for side in [8usize, 16, 32, 64] {
        let n = side * side;
        let g = generators::grid2d(side, side);
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 2)
            .sink((n - 1) as u32, 4)
            .build()
            .unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &spec, |b, spec| {
            let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
                .history(HistoryMode::None)
                .build();
            sim.run(200); // reach steady state first
            b.iter(|| {
                sim.step();
                black_box(sim.total_packets())
            });
        });
    }
    group.finish();
}

fn bench_step_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("lgg_step/random_density");
    let n = 512;
    for factor in [1usize, 4, 16] {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::connected_random(n, n * factor, &mut rng);
        let m = g.edge_count();
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 2)
            .sink((n - 1) as u32, 4)
            .build()
            .unwrap();
        group.throughput(Throughput::Elements(m as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("m{m}")),
            &spec,
            |b, spec| {
                let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
                    .history(HistoryMode::None)
                    .build();
                sim.run(200);
                b.iter(|| {
                    sim.step();
                    black_box(sim.total_packets())
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_step_scaling, bench_step_density
}
criterion_main!(benches);
