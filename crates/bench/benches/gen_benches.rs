//! Generator micro-benchmarks: how each topology generator scales with
//! n, plus the generate→analyze pipeline on the CSR kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hot_baselines::{ba, glp, plrg, waxman};
use hot_core::buyatbulk::{greedy, mmp, problem::Instance};
use hot_core::fkp::{grow, FkpConfig};
use hot_core::isp::generator::{generate, IspConfig};
use hot_core::plr::{solve, PlrConfig};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_graph::csr::CsrGraph;
use hot_graph::parallel::{default_threads, par_betweenness};
use hot_metrics::robustness::{degradation_curve, RemovalPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fkp(c: &mut Criterion) {
    let mut group = c.benchmark_group("fkp_grow");
    for n in [500usize, 2000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let config = FkpConfig {
                n,
                alpha: 10.0,
                ..FkpConfig::default()
            };
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                black_box(grow(&config, &mut rng))
            });
        });
    }
    group.finish();
}

fn bench_buyatbulk(c: &mut Criterion) {
    let mut group = c.benchmark_group("buyatbulk");
    let cost = LinkCost::cables_only(CableCatalog::realistic_2003());
    for n in [100usize, 400] {
        let instance = {
            let mut rng = StdRng::seed_from_u64(2);
            Instance::random_uniform(n, 15.0, cost.clone(), &mut rng)
        };
        group.bench_with_input(BenchmarkId::new("mmp", n), &instance, |b, inst| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                black_box(mmp::solve(inst, &mut rng))
            });
        });
    }
    let instance = {
        let mut rng = StdRng::seed_from_u64(2);
        Instance::random_uniform(100, 15.0, cost, &mut rng)
    };
    group.bench_function("mmp_plus_local_search/100", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(greedy::mmp_plus_improve(&instance, &mut rng, 500))
        });
    });
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines_n1000");
    group.bench_function("ba_m2", |b| {
        b.iter(|| black_box(ba::generate(1000, 2, &mut StdRng::seed_from_u64(4))))
    });
    group.bench_function("glp", |b| {
        let cfg = glp::GlpConfig { n: 1000 };
        b.iter(|| black_box(glp::generate(&cfg, &mut StdRng::seed_from_u64(5))))
    });
    group.bench_function("plrg", |b| {
        b.iter(|| black_box(plrg::generate(1000, 2.2, 1, &mut StdRng::seed_from_u64(6))))
    });
    group.bench_function("waxman", |b| {
        let cfg = waxman::WaxmanConfig {
            n: 1000,
            ..waxman::WaxmanConfig::default()
        };
        b.iter(|| black_box(waxman::generate(&cfg, &mut StdRng::seed_from_u64(7))))
    });
    group.finish();
}

fn bench_isp_and_plr(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let (census, traffic) = hot_bench::standard_geography(30, 8);
    group.bench_function("isp_8pops_400cust", |b| {
        let config = IspConfig {
            n_pops: 8,
            total_customers: 400,
            ..IspConfig::default()
        };
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            black_box(generate(&census, &traffic, &config, &mut rng))
        });
    });
    group.bench_function("plr_200cells", |b| {
        let config = PlrConfig {
            n_cells: 200,
            resolution: 100_000,
            ..PlrConfig::default()
        };
        b.iter(|| black_box(solve(&config)));
    });
    group.finish();
}

/// Generate-then-analyze: the analytics the E-experiments run on every
/// generated topology, on the CSR kernels.
fn bench_csr_analytics(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr_analytics_glp2000");
    group.sample_size(10);
    let g = glp::generate(&glp::GlpConfig { n: 2000 }, &mut StdRng::seed_from_u64(10));
    let csr = CsrGraph::from_graph(&g);
    let threads = default_threads();
    group.bench_function(format!("par_betweenness/{}", threads).as_str(), |b| {
        b.iter(|| black_box(par_betweenness(&csr, threads)))
    });
    group.bench_function("degradation_curve", |b| {
        let fractions = [0.01, 0.02, 0.05, 0.1, 0.2];
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(11);
            black_box(degradation_curve(
                &csr,
                RemovalPolicy::DegreeAttack,
                &fractions,
                &mut rng,
                threads,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fkp,
    bench_buyatbulk,
    bench_baselines,
    bench_isp_and_plr,
    bench_csr_analytics
);
criterion_main!(benches);
