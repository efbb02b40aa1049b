//! Spectral estimates via power iteration: dominant adjacency eigenvalues
//! and the algebraic connectivity (the Fiedler value of the combinatorial
//! Laplacian `L = D − A`).
//!
//! Vukadinović et al. (cited as \[31\] in the paper) proposed spectral
//! analysis for distinguishing topology generators; experiment E6 reports
//! the top adjacency eigenvalues and the algebraic connectivity as part of
//! the metric matrix.
//!
//! Both iterate on a shifted matrix held in compressed sparse rows, so a
//! step costs O(n + m) time and the whole pass O(n + m) memory. Each row
//! lists its nonzero columns in ascending order and is reduced with the
//! same `Iterator::sum` a dense row would be. A dense product only adds
//! `±0.0` terms on top of those, which never change a nonzero partial
//! sum, so every eigenvalue is bit-identical to the dense computation's
//! (`tests/spectral_equivalence.rs` keeps that dense path as the oracle).

use crate::graph::Graph;

/// Maximum power-iteration steps before giving up on convergence.
const MAX_ITERS: usize = 10_000;
/// Convergence tolerance on the eigenvalue estimate.
const TOL: f64 = 1e-10;

/// A symmetric matrix in compressed sparse rows: row `i`'s nonzero
/// columns, ascending, are `cols[start[i]..start[i + 1]]`, with their
/// coefficients at the same positions of `vals`.
struct SparseSym {
    start: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseSym {
    /// The adjacency matrix of `g` with row `i`'s diagonal set to
    /// `diag(i)`. Parallel edges merge into one coefficient, their count
    /// (the value a dense build reaches by adding 1.0 per edge).
    fn adjacency_with_diagonal<N, E>(g: &Graph<N, E>, diag: impl Fn(usize) -> f64) -> Self {
        let n = g.node_count();
        let entries = n + 2 * g.edge_count();
        let mut m = SparseSym {
            start: Vec::with_capacity(n + 1),
            cols: Vec::with_capacity(entries),
            vals: Vec::with_capacity(entries),
        };
        m.start.push(0);
        let mut row: Vec<u32> = Vec::new();
        for v in g.node_ids() {
            row.clear();
            row.extend(g.neighbors(v).map(|(u, _)| u.0));
            // `Graph` has no self-loops, so `v` itself marks the diagonal.
            row.push(v.0);
            row.sort_unstable();
            for run in row.chunk_by(|a, b| a == b) {
                m.cols.push(run[0]);
                m.vals.push(if run[0] == v.0 {
                    diag(v.index())
                } else {
                    run.len() as f64
                });
            }
            m.start.push(m.cols.len());
        }
        m
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// `out = M v`, each row summed over its nonzero columns in order.
    fn matvec(&self, v: &[f64], out: &mut [f64]) {
        for (o, w) in out.iter_mut().zip(self.start.windows(2)) {
            let (cols, vals) = (&self.cols[w[0]..w[1]], &self.vals[w[0]..w[1]]);
            *o = vals.iter().zip(cols).map(|(a, &j)| a * v[j as usize]).sum();
        }
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

/// Removes the components of `v` along each (unit) vector in `basis`.
fn deflate(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let d = dot(v, b);
        for (x, y) in v.iter_mut().zip(b) {
            *x -= d * y;
        }
    }
}

/// Power iteration for the largest-magnitude eigenvalue of a sparse
/// symmetric matrix, orthogonal to `deflated` eigenvectors.
///
/// Returns `(eigenvalue, eigenvector)`. A deterministic non-uniform start
/// vector avoids getting stuck orthogonal to the dominant eigenvector on
/// symmetric graphs.
fn power_iteration(m: &SparseSym, deflated: &[Vec<f64>]) -> (f64, Vec<f64>) {
    let n = m.len();
    let mut v: Vec<f64> = (0..n)
        .map(|i| 1.0 + (i as f64 * 0.7183).sin() * 0.5)
        .collect();
    deflate(&mut v, deflated);
    normalize(&mut v);
    let mut next = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..MAX_ITERS {
        m.matvec(&v, &mut next);
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

/// The `k` algebraically largest eigenvalues of the adjacency matrix
/// (parallel edges sum), descending, via power iteration with deflation.
///
/// The matrix is shifted by `cI` (`c` = max degree + 1) before iterating so
/// that the algebraically largest eigenvalue is also the largest in
/// magnitude — without the shift, power iteration oscillates on bipartite
/// graphs (e.g. stars and trees, whose spectra are symmetric about 0).
/// Only the leading eigenvalues are meaningful for generator comparison;
/// `k` beyond ~5 accumulates deflation error.
pub fn top_adjacency_eigenvalues<N, E>(g: &Graph<N, E>, k: usize) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let c = g.degree_sequence().into_iter().max().unwrap_or(0) as f64 + 1.0;
    let m = SparseSym::adjacency_with_diagonal(g, |_| c);
    let mut values = Vec::new();
    let mut vectors: Vec<Vec<f64>> = Vec::new();
    for _ in 0..k.min(n) {
        let (lambda, vec) = power_iteration(&m, &vectors);
        values.push(lambda - c);
        vectors.push(vec);
    }
    values
}

/// Spectral radius (largest adjacency eigenvalue); 0 for the empty graph.
pub fn spectral_radius<N, E>(g: &Graph<N, E>) -> f64 {
    top_adjacency_eigenvalues(g, 1)
        .first()
        .copied()
        .unwrap_or(0.0)
}

/// Algebraic connectivity: the second-smallest eigenvalue of the
/// combinatorial Laplacian (Fiedler value).
///
/// Computed by power iteration on `cI − L` (with `c` = Gershgorin bound)
/// deflated against the constant vector. Returns 0 for graphs with fewer
/// than 2 nodes; values near 0 indicate disconnection or bottlenecks.
pub fn algebraic_connectivity<N, E>(g: &Graph<N, E>) -> f64 {
    let n = g.node_count();
    if n < 2 {
        return 0.0;
    }
    // The Laplacian's diagonal is the degree sequence.
    let degrees = g.degree_sequence();
    // Gershgorin: all Laplacian eigenvalues lie in [0, 2*max_degree].
    let c = 2.0 * degrees.iter().map(|&d| d as f64).fold(0.0, f64::max) + 1.0;
    // Shifted matrix M = cI - L has eigenvalues c - mu, so the smallest mu
    // becomes the largest. Off the diagonal, M is the adjacency matrix.
    // Deflate the known eigenvector 1/sqrt(n) (mu = 0).
    let m = SparseSym::adjacency_with_diagonal(g, |i| c - degrees[i] as f64);
    let ones = vec![1.0 / (n as f64).sqrt(); n];
    let (lambda, _) = power_iteration(&m, &[ones]);
    (c - lambda).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn complete(n: usize) -> Graph<(), ()> {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j, ()));
            }
        }
        Graph::from_edges(n, edges)
    }

    #[test]
    fn operator_rows_are_sorted_with_parallel_edges_merged() {
        // Node 0's edges arrive out of order, one of them twice.
        let g: Graph<(), ()> = Graph::from_edges(3, vec![(0, 2, ()), (1, 0, ()), (2, 0, ())]);
        let m = SparseSym::adjacency_with_diagonal(&g, |i| 10.0 + i as f64);
        assert_eq!(m.start, vec![0, 3, 5, 7]);
        assert_eq!(m.cols, vec![0, 1, 2, 0, 1, 0, 2]);
        assert_eq!(m.vals, vec![10.0, 1.0, 2.0, 1.0, 11.0, 2.0, 12.0]);
        let mut out = vec![0.0; 3];
        m.matvec(&[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![18.0, 23.0, 38.0]);
    }

    #[test]
    fn complete_graph_spectral_radius() {
        // K_n has spectral radius n-1.
        let g = complete(5);
        assert!((spectral_radius(&g) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn star_spectral_radius() {
        // Star with k leaves has spectral radius sqrt(k).
        let g: Graph<(), ()> =
            Graph::from_edges(10, (1..10).map(|i| (0, i, ())).collect::<Vec<_>>());
        assert!((spectral_radius(&g) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn complete_graph_algebraic_connectivity() {
        // K_n Laplacian eigenvalues: 0 and n (multiplicity n-1).
        let g = complete(4);
        assert!((algebraic_connectivity(&g) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn path_algebraic_connectivity() {
        // P_n: lambda_2 = 2(1 - cos(pi/n)) = 4 sin^2(pi/(2n)).
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
        let expect = 2.0 * (1.0 - (std::f64::consts::PI / 4.0).cos());
        assert!((algebraic_connectivity(&g) - expect).abs() < 1e-6);
    }

    #[test]
    fn disconnected_has_zero_connectivity() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        assert!(algebraic_connectivity(&g).abs() < 1e-6);
    }

    #[test]
    fn top_eigenvalues_of_complete_graph() {
        // K_4: eigenvalues 3, -1, -1, -1.
        let g = complete(4);
        let ev = top_adjacency_eigenvalues(&g, 2);
        assert!((ev[0] - 3.0).abs() < 1e-6);
        assert!((ev[1] + 1.0).abs() < 1e-4);
        // K_5: 4, then -1 four times.
        let ev = top_adjacency_eigenvalues(&complete(5), 2);
        assert!((ev[0] - 4.0).abs() < 1e-5);
        assert!((ev[1] + 1.0).abs() < 1e-3);
    }

    /// The first power iteration does not depend on how many
    /// eigenvalues are asked for, so the spectral radius is the same
    /// bits from `k = 1` and `k = 2`.
    #[test]
    fn radius_is_independent_of_k() {
        let g: Graph<(), ()> = Graph::from_edges(
            7,
            vec![
                (0, 1, ()),
                (1, 2, ()),
                (2, 0, ()),
                (2, 3, ()),
                (3, 4, ()),
                (4, 5, ()),
                (5, 6, ()),
            ],
        );
        assert_eq!(
            spectral_radius(&g).to_bits(),
            top_adjacency_eigenvalues(&g, 2)[0].to_bits()
        );
    }

    #[test]
    fn empty_graph_degenerate() {
        let g: Graph<(), ()> = Graph::new();
        assert_eq!(spectral_radius(&g), 0.0);
        assert_eq!(algebraic_connectivity(&g), 0.0);
        assert!(top_adjacency_eigenvalues(&g, 2).is_empty());
        assert!(top_adjacency_eigenvalues(&g, 3).is_empty());
    }
}
