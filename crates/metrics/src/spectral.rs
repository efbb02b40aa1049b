//! Spectral metrics (Vukadinović et al., reference \[31\] in the paper).
//!
//! Thin, documented façade over [`hot_graph::spectral`] so the metric
//! matrix computes everything through one crate. Spectral analysis was
//! proposed as a generator-distinguishing tool precisely because two
//! graphs can share a degree sequence and differ in their spectra.

use hot_graph::graph::Graph;

/// Spectral summary of a graph.
#[derive(Clone, Copy, Debug)]
pub struct SpectralSummary {
    /// Largest adjacency eigenvalue (spectral radius).
    pub radius: f64,
    /// Algebraic connectivity (Fiedler value of the Laplacian).
    pub algebraic_connectivity: f64,
}

/// Computes the spectral summary in O(n + m) memory. Each of its two
/// power iterations may take up to 10 000 O(n + m) steps, so the report
/// module skips it above a few thousand nodes to bound the time.
pub fn spectral_summary<N, E>(g: &Graph<N, E>) -> SpectralSummary {
    SpectralSummary {
        radius: hot_graph::spectral::spectral_radius(g),
        algebraic_connectivity: hot_graph::spectral::algebraic_connectivity(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    #[test]
    fn complete_graph_summary() {
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                edges.push((i, j, ()));
            }
        }
        let g: Graph<(), ()> = Graph::from_edges(5, edges);
        let s = spectral_summary(&g);
        assert!((s.radius - 4.0).abs() < 1e-5);
        assert!((s.algebraic_connectivity - 5.0).abs() < 1e-5);
    }

    #[test]
    fn disconnected_zero_connectivity() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let s = spectral_summary(&g);
        assert!(s.algebraic_connectivity.abs() < 1e-6);
        assert!((s.radius - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_graph_zeros() {
        let g: Graph<(), ()> = Graph::new();
        let s = spectral_summary(&g);
        assert_eq!(s.radius, 0.0);
        assert_eq!(s.algebraic_connectivity, 0.0);
    }
}
