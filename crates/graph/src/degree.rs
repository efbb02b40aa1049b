//! Degree sequences, histograms, and complementary cumulative distribution
//! functions (CCDFs).
//!
//! Degree distributions are the statistic the descriptive-generation
//! literature fixates on and the statistic HOT models reproduce as a
//! *by-product*; every experiment in the reproduction reports them.

use crate::graph::Graph;

/// Histogram of an integer sample (u32 values — the sample type degree
/// sequences and component labels use): `(value k, count of k)`,
/// ascending in `k`, zero-count values omitted.
pub fn histogram_of(sample: &[u32]) -> Vec<(u32, usize)> {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<(u32, usize)> = Vec::new();
    for v in sorted {
        match out.last_mut() {
            Some((k, c)) if *k == v => *c += 1,
            _ => out.push((v, 1)),
        }
    }
    out
}

/// Empirical CCDF of the degree distribution:
/// `(k, P[degree >= k])` for each distinct degree `k`, ascending.
pub fn degree_ccdf<N, E>(g: &Graph<N, E>) -> Vec<(u32, f64)> {
    ccdf_of(&g.degree_sequence())
}

/// Empirical CCDF of an arbitrary integer sample.
pub fn ccdf_of(sample: &[u32]) -> Vec<(u32, f64)> {
    let n = sample.len();
    if n == 0 {
        return Vec::new();
    }
    let hist = histogram_of(sample);
    let mut remaining = n as f64;
    let mut out = Vec::with_capacity(hist.len());
    for (k, c) in hist {
        out.push((k, remaining / n as f64));
        remaining -= c as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use proptest::prelude::*;

    fn star5() -> Graph<(), ()> {
        // center 0 with 5 leaves
        Graph::from_edges(6, (1..6).map(|i| (0, i, ())).collect::<Vec<_>>())
    }

    #[test]
    fn histogram_counts() {
        let g = star5();
        assert_eq!(histogram_of(&g.degree_sequence()), vec![(1, 5), (5, 1)]);
    }

    #[test]
    fn ccdf_values() {
        let g = star5();
        let ccdf = degree_ccdf(&g);
        assert_eq!(ccdf.len(), 2);
        assert_eq!(ccdf[0].0, 1);
        assert!((ccdf[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(ccdf[1].0, 5);
        assert!((ccdf[1].1 - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn max_and_mean() {
        let hist = histogram_of(&star5().degree_sequence());
        assert_eq!(hist.last(), Some(&(5, 1)), "max degree 5, once");
        let (degree_sum, nodes) = hist
            .iter()
            .fold((0, 0), |(s, n), &(k, c)| (s + k as usize * c, n + c));
        assert!((degree_sum as f64 / nodes as f64 - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_degenerate() {
        let g: Graph<(), ()> = Graph::new();
        assert!(histogram_of(&g.degree_sequence()).is_empty());
        assert!(degree_ccdf(&g).is_empty());
        assert!(ccdf_of(&[]).is_empty());
    }

    proptest! {
        /// Histogram mass equals sample size.
        #[test]
        fn histogram_mass_conserved(sample in proptest::collection::vec(0u32..30, 0..200)) {
            let hist = histogram_of(&sample);
            let total: usize = hist.iter().map(|(_, c)| c).sum();
            prop_assert_eq!(total, sample.len());
            // Keys strictly ascending.
            for w in hist.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
        }

        /// CCDF starts at 1, is non-increasing, and stays in (0, 1].
        #[test]
        fn ccdf_monotone(sample in proptest::collection::vec(0u32..30, 1..200)) {
            let ccdf = ccdf_of(&sample);
            prop_assert!((ccdf[0].1 - 1.0).abs() < 1e-12);
            for w in ccdf.windows(2) {
                prop_assert!(w[0].1 >= w[1].1);
                prop_assert!(w[1].1 > 0.0);
            }
        }
    }
}
