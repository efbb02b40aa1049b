//! Temporal-engine micro-benchmark: a full HOT evolution (attachment,
//! multihoming and re-optimization over 20 epochs). CI runs this
//! harness with `CRITERION_JSON=BENCH_evolve.json` so the growth
//! engine's perf trajectory is tracked per commit.

use criterion::{criterion_group, criterion_main, Criterion};
use hot_econ::trend::TechTrend;
use hot_sim::evolve::{Evolution, EvolveConfig, HotGrowth, HotGrowthConfig};
use std::hint::black_box;

fn bench_evolve(c: &mut Criterion) {
    // One full HOT evolution at scenario scale, amortized over the
    // whole schedule.
    let mut group = c.benchmark_group("evolve_hot_step");
    group.sample_size(10);
    group.bench_function("hot_20epochs_x100", |b| {
        b.iter(|| {
            let mut evo = Evolution::new(
                HotGrowth::new(HotGrowthConfig {
                    cities: 12,
                    ..HotGrowthConfig::default()
                }),
                EvolveConfig {
                    arrivals_per_epoch: 100,
                    trend: TechTrend::dotcom(),
                    reopt_interval: 4,
                    seed: 20030617,
                },
            );
            for _ in 0..20 {
                black_box(evo.step());
            }
            black_box(evo.graph().edge_count())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_evolve);
criterion_main!(benches);
