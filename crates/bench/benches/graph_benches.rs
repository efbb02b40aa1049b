//! Substrate micro-benchmarks: the hot-graph primitives everything else
//! leans on.

use criterion::{criterion_group, criterion_main, Criterion};
use hot_graph::betweenness::betweenness;
use hot_graph::csr::{CsrBfsTree, CsrGraph};
use hot_graph::flow::max_flow;
use hot_graph::graph::{Graph, NodeId};
use hot_graph::mst::{kruskal, prim};
use hot_graph::parallel::{default_threads, par_avg_path_length, par_betweenness};
use hot_graph::spectral::spectral_radius;
use std::hint::black_box;

/// A w×h grid graph with deterministic wobbled weights.
fn grid(w: usize, h: usize) -> Graph<(), f64> {
    let mut g: Graph<(), f64> = Graph::with_capacity(w * h, 2 * w * h);
    for _ in 0..w * h {
        g.add_node(());
    }
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            let wobble = 1.0 + ((x * 7 + y * 13) % 10) as f64 / 10.0;
            if x + 1 < w {
                g.add_edge(id(x, y), id(x + 1, y), wobble);
            }
            if y + 1 < h {
                g.add_edge(id(x, y), id(x, y + 1), wobble + 0.3);
            }
        }
    }
    g
}

fn bench_graph(c: &mut Criterion) {
    let g = grid(50, 50); // 2500 nodes, ~4900 edges
    let mut group = c.benchmark_group("graph_grid50x50");
    group.bench_function("dijkstra", |b| {
        let csr = CsrGraph::from_graph(&g);
        let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
        let mut tree = CsrBfsTree::sized(csr.node_count());
        b.iter(|| {
            csr.dijkstra_tree_into(NodeId(0), &latency, &mut tree);
            black_box(tree.visit_order().len())
        })
    });
    group.bench_function("kruskal", |b| b.iter(|| black_box(kruskal(&g, |w| *w))));
    group.bench_function("prim", |b| {
        b.iter(|| black_box(prim(&g, NodeId(0), |w| *w)))
    });
    group.bench_function("maxflow_corners", |b| {
        let t = NodeId((g.node_count() - 1) as u32);
        b.iter(|| black_box(max_flow(&g, NodeId(0), t, |w| *w)))
    });
    group.finish();

    let small = grid(20, 20);
    let mut heavy = c.benchmark_group("graph_grid20x20_heavy");
    heavy.sample_size(10);
    heavy.bench_function("betweenness", |b| b.iter(|| black_box(betweenness(&small))));
    heavy.bench_function("spectral_radius", |b| {
        b.iter(|| black_box(spectral_radius(&small)))
    });
    heavy.finish();
}

/// The CSR kernels: view construction, then the serial-vs-parallel
/// whole-graph traversals the experiments lean on. The serial rows are
/// the 1-thread runs of the same chunked kernel, so the parallel rows
/// are pure scheduling overhead/speedup with bit-identical output.
fn bench_csr(c: &mut Criterion) {
    let g = grid(50, 50);
    let csr = CsrGraph::from_graph(&g);
    let threads = default_threads();
    let mut group = c.benchmark_group("csr_grid50x50");
    group.sample_size(10);
    group.bench_function("from_graph", |b| {
        b.iter(|| black_box(CsrGraph::from_graph(&g)))
    });
    group.bench_function("betweenness_serial", |b| {
        b.iter(|| black_box(par_betweenness(&csr, 1)))
    });
    group.bench_function(format!("betweenness_par{}", threads).as_str(), |b| {
        b.iter(|| black_box(par_betweenness(&csr, threads)))
    });
    group.bench_function("avg_path_length_serial", |b| {
        b.iter(|| black_box(par_avg_path_length(&csr, 1)))
    });
    group.bench_function(format!("avg_path_length_par{}", threads).as_str(), |b| {
        b.iter(|| black_box(par_avg_path_length(&csr, threads)))
    });
    group.bench_function("largest_component", |b| {
        b.iter(|| black_box(csr.largest_component_size()))
    });
    group.finish();
}

criterion_group!(benches, bench_graph, bench_csr);
criterion_main!(benches);
