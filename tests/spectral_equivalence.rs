//! Bit-exactness of the sparse spectral kernels against the dense
//! matrices they replaced.
//!
//! `hot_graph::spectral` iterates on compressed sparse rows. The `dense`
//! module below is the n×n implementation it replaced, kept as the
//! oracle: every eigenvalue must agree by `to_bits()`, on multigraphs
//! with parallel edges and isolated nodes, graphs of several components,
//! and the stars and paths whose bipartite spectra are symmetric about 0.

use hotgen::graph::spectral::{algebraic_connectivity, spectral_radius, top_adjacency_eigenvalues};
use hotgen::graph::Graph;
use proptest::prelude::*;

/// The dense reference: n×n matrices and a dense matvec under the same
/// power iteration, start vector, deflation and convergence test.
mod dense {
    use hotgen::graph::Graph;

    const MAX_ITERS: usize = 10_000;
    const TOL: f64 = 1e-10;

    fn matvec(m: &[Vec<f64>], v: &[f64], out: &mut [f64]) {
        for (i, row) in m.iter().enumerate() {
            out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
    }

    fn norm(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    fn normalize(v: &mut [f64]) {
        let n = norm(v);
        if n > 0.0 {
            for x in v.iter_mut() {
                *x /= n;
            }
        }
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn deflate(v: &mut [f64], basis: &[Vec<f64>]) {
        for b in basis {
            let d = dot(v, b);
            for (x, y) in v.iter_mut().zip(b) {
                *x -= d * y;
            }
        }
    }

    fn power_iteration(m: &[Vec<f64>], deflated: &[Vec<f64>]) -> (f64, Vec<f64>) {
        let n = m.len();
        let mut v: Vec<f64> = (0..n)
            .map(|i| 1.0 + (i as f64 * 0.7183).sin() * 0.5)
            .collect();
        deflate(&mut v, deflated);
        normalize(&mut v);
        let mut next = vec![0.0; n];
        let mut lambda = 0.0;
        for _ in 0..MAX_ITERS {
            matvec(m, &v, &mut next);
            deflate(&mut next, deflated);
            let new_lambda = dot(&next, &v);
            normalize(&mut next);
            std::mem::swap(&mut v, &mut next);
            if (new_lambda - lambda).abs() < TOL * (1.0 + new_lambda.abs()) {
                lambda = new_lambda;
                break;
            }
            lambda = new_lambda;
        }
        (lambda, v)
    }

    /// Dense adjacency matrix (parallel edges sum).
    fn adjacency_matrix<N, E>(g: &Graph<N, E>) -> Vec<Vec<f64>> {
        let n = g.node_count();
        let mut m = vec![vec![0.0; n]; n];
        for (_, a, b, _) in g.edges() {
            m[a.index()][b.index()] += 1.0;
            m[b.index()][a.index()] += 1.0;
        }
        m
    }

    /// Dense combinatorial Laplacian `L = D − A`.
    fn laplacian_matrix<N, E>(g: &Graph<N, E>) -> Vec<Vec<f64>> {
        let n = g.node_count();
        let mut m = vec![vec![0.0; n]; n];
        for (_, a, b, _) in g.edges() {
            m[a.index()][b.index()] -= 1.0;
            m[b.index()][a.index()] -= 1.0;
            m[a.index()][a.index()] += 1.0;
            m[b.index()][b.index()] += 1.0;
        }
        m
    }

    pub fn top_adjacency_eigenvalues<N, E>(g: &Graph<N, E>, k: usize) -> Vec<f64> {
        let mut m = adjacency_matrix(g);
        let n = m.len();
        if n == 0 {
            return Vec::new();
        }
        let c = g.degree_sequence().into_iter().max().unwrap_or(0) as f64 + 1.0;
        for (i, row) in m.iter_mut().enumerate() {
            row[i] += c;
        }
        let mut values = Vec::new();
        let mut vectors: Vec<Vec<f64>> = Vec::new();
        for _ in 0..k.min(n) {
            let (lambda, vec) = power_iteration(&m, &vectors);
            values.push(lambda - c);
            vectors.push(vec);
        }
        values
    }

    pub fn algebraic_connectivity<N, E>(g: &Graph<N, E>) -> f64 {
        let n = g.node_count();
        if n < 2 {
            return 0.0;
        }
        let l = laplacian_matrix(g);
        let c = 2.0 * l.iter().enumerate().map(|(i, r)| r[i]).fold(0.0, f64::max) + 1.0;
        let m: Vec<Vec<f64>> = l
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(|(j, &x)| if i == j { c - x } else { -x })
                    .collect()
            })
            .collect();
        let ones = vec![1.0 / (n as f64).sqrt(); n];
        let (lambda, _) = power_iteration(&m, &[ones]);
        (c - lambda).max(0.0)
    }
}

/// A test graph on `n` nodes. `shape` picks the skeleton: 0 a random
/// multigraph, 1 a star and 2 a path over the first `span` nodes, 3
/// random edges kept only inside `2 + span % 3` residue-class
/// components. `picks` supplies endpoints and each edge's multiplicity;
/// nodes no edge reaches stay isolated.
fn build(n: usize, shape: usize, span: usize, picks: &[(usize, usize, usize)]) -> Graph<(), ()> {
    let mut edges = Vec::new();
    let mut push = |a: usize, b: usize, times: usize| {
        for _ in 0..times {
            edges.push((a, b, ()));
        }
    };
    let times = |i: usize| picks.get(i).map_or(1, |p| p.2);
    let span = span.min(n);
    match shape {
        1 => (1..span).for_each(|i| push(0, i, times(i))),
        2 => (1..span).for_each(|i| push(i - 1, i, times(i))),
        _ if n > 0 => {
            let comps = if shape == 3 { 2 + span % 3 } else { 1 };
            for &(a, b, k) in picks {
                let (a, b) = (a % n, b % n);
                if a != b && a % comps == b % comps {
                    push(a, b, k);
                }
            }
        }
        _ => {}
    }
    Graph::from_edges(n, edges)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_spectra_match_dense_bit_for_bit(
        n in 0usize..65,
        shape in 0usize..4,
        span in 0usize..65,
        picks in proptest::collection::vec((0usize..64, 0usize..64, 1usize..4), 0..96),
    ) {
        let g = build(n, shape, span, &picks);
        // Eigenpairs are found one at a time, so the dense values for
        // k < 3 are a prefix of the k = 3 run.
        let dense_top = dense::top_adjacency_eigenvalues(&g, 3);
        for k in 1..=3 {
            let want = &dense_top[..k.min(dense_top.len())];
            prop_assert_eq!(
                bits(&top_adjacency_eigenvalues(&g, k)),
                bits(want),
                "n = {}, shape = {}, k = {}", n, shape, k
            );
        }
        let radius = dense_top.first().copied().unwrap_or(0.0);
        prop_assert_eq!(spectral_radius(&g).to_bits(), radius.to_bits());
        prop_assert_eq!(
            algebraic_connectivity(&g).to_bits(),
            dense::algebraic_connectivity(&g).to_bits(),
            "n = {}, shape = {}", n, shape
        );
    }
}
