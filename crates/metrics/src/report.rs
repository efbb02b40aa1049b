//! The metric matrix: one struct per graph, one table across generators.
//!
//! This is the machinery behind experiment E6 — apply the *same* battery
//! of metrics to topologies from every generator and render them side by
//! side, making "matches on the chosen metric, dissimilar on others"
//! visible in a single table.

use crate::assortativity::assortativity;
use crate::clustering::mean_clustering;
use crate::degree_dist::{summarize, DegreeSummary};
use crate::distortion::distortion;
use crate::expansion::expansion_at;
use crate::expfit::{classify, TailClass};
use crate::hierarchy::{hierarchy, HierarchySummary};
use crate::paths::path_metrics;
use crate::resilience::mean_pairwise_connectivity;
use crate::spectral::spectral_summary;
use hot_graph::graph::Graph;
use hot_graph::traversal::{component_count, largest_component_size};

/// Skip the spectral summary above this node count: a time cap, since
/// each power iteration may run up to 10 000 O(n + m) steps. Raising it
/// changes the reports of larger graphs (their spectral fields stop
/// being `None`).
const SPECTRAL_LIMIT: usize = 3000;

/// The full metric vector of one topology.
#[derive(Clone, Debug)]
pub struct MetricReport {
    /// Label for tables.
    pub name: String,
    pub nodes: usize,
    pub edges: usize,
    pub components: usize,
    /// Largest-component fraction.
    pub giant_fraction: f64,
    pub degree: DegreeSummary,
    /// Power-law CCDF exponent (γ−1) when the fit exists.
    pub powerlaw_exponent: Option<f64>,
    /// Tail classification of the degree distribution.
    pub tail: TailClass,
    pub mean_clustering: f64,
    /// Newman degree assortativity (`None` when undefined).
    pub assortativity: Option<f64>,
    pub mean_distance: f64,
    pub diameter: u32,
    /// Expansion at 3 hops.
    pub expansion3: f64,
    /// Mean sampled pairwise edge connectivity.
    pub resilience: f64,
    /// Approximate spanning-tree distance stretch.
    pub distortion: f64,
    pub hierarchy: HierarchySummary,
    /// Spectral radius (skipped = NaN-free `None`) for large graphs.
    pub spectral_radius: Option<f64>,
    pub algebraic_connectivity: Option<f64>,
}

/// One metric cell in structured, serialization-ready form — what the
/// scenario engine's JSON export consumes via
/// [`MetricReport::key_values`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Int(u64),
    Float(f64),
    /// A metric that may be undefined for this graph (e.g. spectral
    /// summaries, skipped above the report's spectral node limit).
    OptFloat(Option<f64>),
    Text(String),
}

impl MetricReport {
    /// Computes the full report for a graph.
    pub fn compute<N, E>(name: impl Into<String>, g: &Graph<N, E>) -> Self {
        let degs = g.degree_sequence();
        let verdict = classify(&degs);
        let paths = path_metrics(g);
        let spectral = if g.node_count() <= SPECTRAL_LIMIT && g.node_count() > 0 {
            Some(spectral_summary(g))
        } else {
            None
        };
        MetricReport {
            name: name.into(),
            nodes: g.node_count(),
            edges: g.edge_count(),
            components: component_count(g),
            giant_fraction: if g.node_count() > 0 {
                largest_component_size(g) as f64 / g.node_count() as f64
            } else {
                0.0
            },
            degree: summarize(g),
            powerlaw_exponent: verdict.power.map(|f| f.exponent),
            tail: verdict.class,
            mean_clustering: mean_clustering(g),
            assortativity: assortativity(g),
            mean_distance: paths.mean_distance,
            diameter: paths.diameter,
            expansion3: expansion_at(g, 3),
            resilience: mean_pairwise_connectivity(g),
            distortion: distortion(g),
            hierarchy: hierarchy(g),
            spectral_radius: spectral.map(|s| s.radius),
            algebraic_connectivity: spectral.map(|s| s.algebraic_connectivity),
        }
    }

    /// The full metric vector as ordered `(key, value)` pairs — the
    /// structured face of the report. The human table ([`row`](Self::row))
    /// shows a fixed-width subset; this is the complete, machine-readable
    /// form the E6 scenario serializes, in a stable order.
    pub fn key_values(&self) -> Vec<(&'static str, MetricValue)> {
        use MetricValue::*;
        vec![
            ("generator", Text(self.name.clone())),
            ("nodes", Int(self.nodes as u64)),
            ("edges", Int(self.edges as u64)),
            ("components", Int(self.components as u64)),
            ("giant_fraction", Float(self.giant_fraction)),
            ("mean_degree", Float(self.degree.mean)),
            ("max_degree", Int(self.degree.max as u64)),
            ("degree_cv", Float(self.degree.cv)),
            ("leaf_fraction", Float(self.degree.leaf_fraction)),
            ("powerlaw_exponent", OptFloat(self.powerlaw_exponent)),
            ("tail", Text(self.tail.to_string())),
            ("clustering", Float(self.mean_clustering)),
            ("assortativity", OptFloat(self.assortativity)),
            ("mean_distance", Float(self.mean_distance)),
            ("diameter", Int(self.diameter as u64)),
            ("expansion3", Float(self.expansion3)),
            ("resilience", Float(self.resilience)),
            ("distortion", Float(self.distortion)),
            ("betweenness_gini", Float(self.hierarchy.betweenness_gini)),
            (
                "betweenness_top_decile",
                Float(self.hierarchy.top_decile_share),
            ),
            ("spectral_radius", OptFloat(self.spectral_radius)),
            (
                "algebraic_connectivity",
                OptFloat(self.algebraic_connectivity),
            ),
        ]
    }

    /// Header row matching [`row`](Self::row).
    pub fn header() -> String {
        format!(
            "{:<18} {:>6} {:>7} {:>5} {:>6} {:>6} {:>12} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "generator",
            "nodes",
            "edges",
            "maxk",
            "cv",
            "plexp",
            "tail",
            "clust",
            "assort",
            "dist",
            "diam",
            "exp3",
            "resil",
            "dstrt",
            "gini",
            "lam1"
        )
    }

    /// One aligned table row.
    pub fn row(&self) -> String {
        format!(
            "{:<18} {:>6} {:>7} {:>5} {:>6.2} {:>6} {:>12} {:>6.3} {:>6} {:>6.2} {:>5} {:>6.3} {:>6.2} {:>6.2} {:>6.2} {:>6}",
            self.name,
            self.nodes,
            self.edges,
            self.degree.max,
            self.degree.cv,
            self.powerlaw_exponent
                .map(|e| format!("{:.2}", e))
                .unwrap_or_else(|| "-".into()),
            self.tail.to_string(),
            self.mean_clustering,
            self.assortativity
                .map(|r| format!("{:.2}", r))
                .unwrap_or_else(|| "-".into()),
            self.mean_distance,
            self.diameter,
            self.expansion3,
            self.resilience,
            self.distortion,
            self.hierarchy.betweenness_gini,
            self.spectral_radius
                .map(|r| format!("{:.2}", r))
                .unwrap_or_else(|| "-".into()),
        )
    }

    /// Renders a table of reports.
    pub fn table(reports: &[MetricReport]) -> String {
        let mut out = MetricReport::header();
        out.push('\n');
        for r in reports {
            out.push_str(&r.row());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    fn star(n: usize) -> Graph<(), ()> {
        Graph::from_edges(n, (1..n).map(|i| (0, i, ())).collect::<Vec<_>>())
    }

    #[test]
    fn report_on_star() {
        let r = MetricReport::compute("star", &star(50));
        assert_eq!(r.nodes, 50);
        assert_eq!(r.edges, 49);
        assert_eq!(r.components, 1);
        assert!((r.giant_fraction - 1.0).abs() < 1e-12);
        assert_eq!(r.degree.max, 49);
        assert_eq!(r.diameter, 2);
        assert!((r.resilience - 1.0).abs() < 1e-12); // tree
        assert!((r.distortion - 1.0).abs() < 1e-12);
        assert!(r.hierarchy.betweenness_gini > 0.9);
        assert!(r.spectral_radius.is_some());
    }

    #[test]
    fn key_values_track_the_report() {
        let r = MetricReport::compute("star", &star(50));
        let kv = r.key_values();
        // Keys are unique and lead with the generator name.
        let mut keys: Vec<&str> = kv.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys[0], "generator");
        keys.sort_unstable();
        let n = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), n);
        let get = |key: &str| {
            kv.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("generator"), MetricValue::Text("star".into()));
        assert_eq!(get("nodes"), MetricValue::Int(50));
        assert_eq!(get("max_degree"), MetricValue::Int(49));
        assert_eq!(get("diameter"), MetricValue::Int(2));
        match get("spectral_radius") {
            MetricValue::OptFloat(Some(v)) => assert!(v > 0.0),
            other => panic!("expected spectral radius, got {:?}", other),
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let reports = vec![
            MetricReport::compute("a", &star(10)),
            MetricReport::compute("b", &star(20)),
        ];
        let table = MetricReport::table(&reports);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("generator"));
        assert!(lines[1].starts_with('a'));
        assert!(lines[2].starts_with('b'));
    }

    #[test]
    fn empty_graph_report() {
        let g: Graph<(), ()> = Graph::new();
        let r = MetricReport::compute("empty", &g);
        assert_eq!(r.nodes, 0);
        assert_eq!(r.components, 0);
        assert!(r.spectral_radius.is_none());
        // Row must render without panicking.
        assert!(!r.row().is_empty());
    }

    #[test]
    fn spectral_skipped_for_large_graphs() {
        // A big path exceeds SPECTRAL_LIMIT.
        let edges: Vec<(usize, usize, ())> = (0..3500).map(|i| (i, i + 1, ())).collect();
        let g: Graph<(), ()> = Graph::from_edges(3501, edges);
        let r = MetricReport::compute("path", &g);
        assert!(r.spectral_radius.is_none());
        assert!(r.algebraic_connectivity.is_none());
    }
}
