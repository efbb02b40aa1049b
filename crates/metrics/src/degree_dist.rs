//! Degree-distribution summary statistics.
//!
//! Thin layer over [`hot_graph::degree`] adding the scalar summaries the
//! metric matrix reports (mean, max, coefficient of variation), the
//! threshold CCDF the bias and trajectory tables read, and ASCII CCDF
//! rendering for the examples.

use hot_graph::graph::Graph;

/// Scalar summary of a degree distribution.
#[derive(Clone, Copy, Debug)]
pub struct DegreeSummary {
    pub mean: f64,
    pub max: u32,
    /// Coefficient of variation (σ/μ) — heavy tails push this up.
    pub cv: f64,
    /// Fraction of nodes with degree 1 (leaves).
    pub leaf_fraction: f64,
}

/// Computes the summary for a graph (zeros for the empty graph).
pub fn summarize<N, E>(g: &Graph<N, E>) -> DegreeSummary {
    summarize_sample(&g.degree_sequence())
}

/// Computes the summary for a raw degree sample.
pub fn summarize_sample(degs: &[u32]) -> DegreeSummary {
    let n = degs.len();
    if n == 0 {
        return DegreeSummary {
            mean: 0.0,
            max: 0,
            cv: 0.0,
            leaf_fraction: 0.0,
        };
    }
    let mean = degs.iter().map(|&d| d as u64).sum::<u64>() as f64 / n as f64;
    let var = degs.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    DegreeSummary {
        mean,
        max: degs.iter().copied().max().unwrap_or(0),
        cv,
        leaf_fraction: degs.iter().filter(|&&d| d == 1).count() as f64 / n as f64,
    }
}

/// CCDF of a degree sample at threshold `k`: the fraction of the sample
/// at or above `k` (0 for the empty sample).
pub fn ccdf_at(sample: &[u32], k: u32) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.iter().filter(|&&d| d >= k).count() as f64 / sample.len() as f64
}

/// Renders a log-log ASCII scatter of a CCDF, for terminal output in the
/// examples. `width`/`height` are the plot dimensions in characters.
pub fn ascii_ccdf(sample: &[u32], width: usize, height: usize) -> String {
    let ccdf = hot_graph::degree::ccdf_of(sample);
    let pts: Vec<(f64, f64)> = ccdf
        .into_iter()
        .filter(|&(k, p)| k > 0 && p > 0.0)
        .map(|(k, p)| ((k as f64).ln(), p.ln()))
        .collect();
    if pts.len() < 2 || width < 2 || height < 2 {
        return String::from("(not enough data to plot)\n");
    }
    let (min_x, max_x) = pts.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| {
        (lo.min(p.0), hi.max(p.0))
    });
    let (min_y, max_y) = pts.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| {
        (lo.min(p.1), hi.max(p.1))
    });
    let dx = (max_x - min_x).max(1e-12);
    let dy = (max_y - min_y).max(1e-12);
    let mut grid = vec![vec![b' '; width]; height];
    for (x, y) in &pts {
        let cx = (((x - min_x) / dx) * (width - 1) as f64).round() as usize;
        let cy = (((y - min_y) / dy) * (height - 1) as f64).round() as usize;
        grid[height - 1 - cy][cx] = b'*';
    }
    let mut out = String::with_capacity((width + 3) * height);
    out.push_str(&format!("log P[D>=k] from {:.2} to {:.2}\n", min_y, max_y));
    for row in grid {
        out.push('|');
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(" log k from {:.2} to {:.2}\n", min_x, max_x));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    #[test]
    fn star_summary() {
        let g: Graph<(), ()> = Graph::from_edges(5, (1..5).map(|i| (0, i, ())).collect::<Vec<_>>());
        let s = summarize(&g);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.max, 4);
        assert!((s.leaf_fraction - 0.8).abs() < 1e-12);
        assert!(s.cv > 0.5); // very skewed
    }

    #[test]
    fn regular_graph_zero_cv() {
        // 4-cycle: all degrees 2.
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ()), (3, 0, ())]);
        let s = summarize(&g);
        assert_eq!(s.cv, 0.0);
        assert_eq!(s.leaf_fraction, 0.0);
    }

    #[test]
    fn empty_graph_zeros() {
        let g: Graph<(), ()> = Graph::new();
        let s = summarize(&g);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn ccdf_at_counts_the_tail() {
        let sample = [0, 1, 2, 2, 3, 5];
        assert_eq!(ccdf_at(&sample, 0), 1.0);
        assert_eq!(ccdf_at(&sample, 1), 5.0 / 6.0);
        assert_eq!(ccdf_at(&sample, 2), 4.0 / 6.0);
        assert_eq!(ccdf_at(&sample, 6), 0.0);
        assert_eq!(ccdf_at(&[], 1), 0.0);
    }

    #[test]
    fn ascii_plot_shape() {
        let sample: Vec<u32> = (1u32..100)
            .flat_map(|k| std::iter::repeat_n(k, (100 / k) as usize))
            .collect();
        let plot = ascii_ccdf(&sample, 40, 10);
        assert!(plot.contains('*'));
        let lines: Vec<&str> = plot.lines().collect();
        // header + height rows + axis + footer
        assert_eq!(lines.len(), 1 + 10 + 1 + 1);
    }

    #[test]
    fn ascii_plot_degenerate() {
        assert!(ascii_ccdf(&[], 40, 10).contains("not enough data"));
        assert!(ascii_ccdf(&[2, 2, 2], 40, 10).contains("not enough data"));
    }
}
