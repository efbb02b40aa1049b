//! Probe-pipeline micro-benchmarks: the batched CSR campaign engine in
//! hop and latency forwarding, serial and parallel, plus the bias
//! analytics that post-process a campaign's masks. CI runs this harness
//! with `CRITERION_JSON=BENCH_probe.json` so the measurement emulator's
//! perf trajectory is tracked per commit.

use criterion::{criterion_group, criterion_main, Criterion};
use hot_baselines::glp;
use hot_graph::csr::CsrGraph;
use hot_graph::graph::Graph;
use hot_graph::parallel::default_threads;
use hot_metrics::bias::bias_summary;
use hot_metrics::hierarchy::betweenness_estimate;
use hot_sim::probe::{run_campaign, ProbeCampaign};
use hot_sim::traceroute::strided_vantages;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_probe(c: &mut Criterion) {
    let n = 5_000;
    let glp_graph = glp::generate(
        &glp::GlpConfig {
            n,
            ..glp::GlpConfig::default()
        },
        &mut StdRng::seed_from_u64(20030617),
    );
    // Latency-keyed copy of the topology: tie-heavy small integer link
    // costs.
    let g: Graph<(), f64> = Graph::from_edges(
        n,
        glp_graph
            .edges()
            .map(|(e, a, b, _)| (a.index(), b.index(), ((e.index() % 5) + 1) as f64))
            .collect::<Vec<_>>(),
    );
    let csr = CsrGraph::from_graph(&g);
    let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
    let threads = default_threads();
    let vantages = strided_vantages(&g, 32);

    let mut group = c.benchmark_group("probe_glp5000_v32");
    group.sample_size(10);
    group.bench_function("campaign_latency_serial", |b| {
        b.iter(|| {
            black_box(run_campaign(
                &csr,
                &ProbeCampaign {
                    vantages: &vantages,
                    destinations: None,
                    link_latency: Some(&latency),
                },
                1,
            ))
        })
    });
    group.bench_function(format!("campaign_latency_par{}", threads).as_str(), |b| {
        b.iter(|| {
            black_box(run_campaign(
                &csr,
                &ProbeCampaign {
                    vantages: &vantages,
                    destinations: None,
                    link_latency: Some(&latency),
                },
                threads,
            ))
        })
    });
    group.bench_function("campaign_hops_serial", |b| {
        b.iter(|| {
            black_box(run_campaign(
                &csr,
                &ProbeCampaign {
                    vantages: &vantages,
                    destinations: None,
                    link_latency: None,
                },
                1,
            ))
        })
    });
    let out = run_campaign(
        &csr,
        &ProbeCampaign {
            vantages: &vantages,
            destinations: None,
            link_latency: Some(&latency),
        },
        threads,
    );
    let (true_b, _) = betweenness_estimate(&csr, threads);
    group.bench_function("bias_summary", |b| {
        b.iter(|| {
            black_box(bias_summary(
                &csr,
                &out.map.node_seen,
                &out.map.edge_seen,
                &true_b,
                threads,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_probe);
criterion_main!(benches);
