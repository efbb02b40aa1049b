//! Scale-path benches: the kernels that make 1M+ routers routine —
//! direction-optimizing BFS, pivot-sampled vs exact betweenness, and
//! binary snapshot serialization vs regeneration. The classic queue BFS
//! the direction-optimizing kernel is checked against is test code
//! (`tests/common/traversal.rs`), timed only by the speedup gate.

use criterion::{criterion_group, criterion_main, Criterion};
use hot_baselines::glp;
use hot_graph::csr::{BfsScratch, CsrGraph};
use hot_graph::graph::NodeId;
use hot_graph::io::Snapshot;
use hot_graph::parallel::{default_threads, par_betweenness, par_betweenness_sampled};
use hot_metrics::hierarchy::betweenness_pivots;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn glp_csr(n: usize) -> CsrGraph {
    let g = glp::generate(&glp::GlpConfig { n }, &mut StdRng::seed_from_u64(20030617));
    CsrGraph::from_graph(&g)
}

fn bench_bfs(c: &mut Criterion) {
    let csr = glp_csr(20_000);
    let sources: Vec<NodeId> = (0..64u32).map(|i| NodeId(i * 311)).collect();
    let mut group = c.benchmark_group("scale_bfs_glp20k");
    group.bench_function("dirop_64src", |b| {
        let mut scratch = BfsScratch::sized(csr.node_count());
        b.iter(|| {
            for &s in &sources {
                csr.bfs_distances_into(s, &mut scratch);
                black_box(scratch.dist().len());
            }
        })
    });
    group.finish();
}

fn bench_betweenness(c: &mut Criterion) {
    let csr = glp_csr(4_000);
    let threads = default_threads();
    let pivots = betweenness_pivots(csr.node_count(), 128, 7);
    let mut group = c.benchmark_group("scale_betweenness_glp4k");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| black_box(par_betweenness(&csr, threads)))
    });
    group.bench_function("sampled_128pivots", |b| {
        b.iter(|| black_box(par_betweenness_sampled(&csr, &pivots, threads)))
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let csr = glp_csr(50_000);
    let snap = Snapshot::new(csr);
    let bytes = snap.to_bytes();
    let mut group = c.benchmark_group("scale_snapshot_glp50k");
    group.bench_function("to_bytes", |b| b.iter(|| black_box(snap.to_bytes())));
    group.bench_function("from_bytes", |b| {
        b.iter(|| black_box(Snapshot::from_bytes(&bytes).unwrap()))
    });
    group.bench_function("regenerate", |b| b.iter(|| black_box(glp_csr(50_000))));
    group.finish();
}

criterion_group!(benches, bench_bfs, bench_betweenness, bench_snapshot);
criterion_main!(benches);
