//! Metric-suite micro-benchmarks: the cost of the comparison battery.

use criterion::{criterion_group, criterion_main, Criterion};
use hot_baselines::ba;
use hot_metrics::clustering::mean_clustering;
use hot_metrics::distortion::distortion;
use hot_metrics::expansion::expansion_at;
use hot_metrics::powerlaw::fit_ccdf;
use hot_metrics::resilience::mean_pairwise_connectivity;
use hot_metrics::MetricReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_metrics(c: &mut Criterion) {
    let g = ba::generate(1000, 2, &mut StdRng::seed_from_u64(1));
    let mut group = c.benchmark_group("metrics_ba1000");
    group.sample_size(10);
    group.bench_function("full_report", |b| {
        b.iter(|| black_box(MetricReport::compute("ba", &g)))
    });
    group.bench_function("clustering", |b| b.iter(|| black_box(mean_clustering(&g))));
    group.bench_function("expansion3", |b| b.iter(|| black_box(expansion_at(&g, 3))));
    group.bench_function("resilience", |b| {
        b.iter(|| black_box(mean_pairwise_connectivity(&g)))
    });
    group.bench_function("distortion", |b| b.iter(|| black_box(distortion(&g))));
    group.finish();
}

fn bench_fits(c: &mut Criterion) {
    // A big synthetic power-law sample.
    let sample: Vec<u32> = {
        let mut rng = StdRng::seed_from_u64(2);
        use rand::Rng;
        (0..100_000)
            .map(|_| {
                let u: f64 = rng.random_range(0.0f64..1.0);
                ((1.0 - u).powf(-1.0 / 1.5).round() as u32).clamp(1, 10_000)
            })
            .collect()
    };
    let mut group = c.benchmark_group("fits_100k");
    group.bench_function("ccdf_fit", |b| b.iter(|| black_box(fit_ccdf(&sample))));
    group.finish();
}

criterion_group!(benches, bench_metrics, bench_fits);
criterion_main!(benches);
