//! Traffic-engine micro-benchmarks: demand-matrix construction and the
//! batched link-load engine (serial vs parallel, tree-path vs ECMP).
//! The per-flow reference it is checked against is test code
//! (`tests/common/per_flow.rs`) and is timed only by the speedup gate.
//! CI runs this harness with `CRITERION_JSON=BENCH_traffic.json` so the
//! engine's perf trajectory is tracked per commit.

use criterion::{criterion_group, criterion_main, Criterion};
use hot_baselines::glp;
use hot_graph::csr::CsrGraph;
use hot_graph::parallel::default_threads;
use hot_sim::demand::{DemandConfig, DemandMatrix, DemandModel, OdDemand};
use hot_sim::traffic::{link_loads, link_loads_multi, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_traffic(c: &mut Criterion) {
    let g = glp::generate(
        &glp::GlpConfig { n: 2000 },
        &mut StdRng::seed_from_u64(20030617),
    );
    let csr = CsrGraph::from_graph(&g);
    let threads = default_threads();
    let cfg = |model| DemandConfig {
        model,
        ..DemandConfig::default()
    };
    let gravity = DemandMatrix::build(
        &csr,
        None,
        &cfg(DemandModel::Gravity {
            distance_exponent: 1.0,
        }),
    );
    let uniform = DemandMatrix::build(&csr, None, &cfg(DemandModel::Uniform));
    let ranked = DemandMatrix::build(&csr, None, &cfg(DemandModel::RankBiased { exponent: 1.0 }));

    let mut group = c.benchmark_group("traffic_glp2000");
    group.sample_size(10);
    group.bench_function("demand_build_gravity", |b| {
        b.iter(|| {
            black_box(DemandMatrix::build(
                &csr,
                None,
                &cfg(DemandModel::Gravity {
                    distance_exponent: 1.0,
                }),
            ))
        })
    });
    // All-pairs (~4M OD flows) through the batched engine.
    group.bench_function("batched_allpairs_serial", |b| {
        b.iter(|| black_box(link_loads(&csr, &gravity, RoutePolicy::TreePath, 1)))
    });
    group.bench_function(format!("batched_allpairs_par{}", threads).as_str(), |b| {
        b.iter(|| black_box(link_loads(&csr, &gravity, RoutePolicy::TreePath, threads)))
    });
    group.bench_function(format!("batched_ecmp_par{}", threads).as_str(), |b| {
        b.iter(|| black_box(link_loads(&csr, &gravity, RoutePolicy::Ecmp, threads)))
    });
    // Three models sharing one BFS per source.
    group.bench_function(format!("batched_3models_par{}", threads).as_str(), |b| {
        let refs: [&dyn OdDemand; 3] = [&gravity, &uniform, &ranked];
        b.iter(|| {
            black_box(link_loads_multi(
                &csr,
                &refs,
                RoutePolicy::TreePath,
                threads,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_traffic);
criterion_main!(benches);
