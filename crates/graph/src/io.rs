//! Graphviz DOT export, the one output format for graphs. No library
//! code reads a graph from a file: every topology is regenerated from
//! its parameters and seed.

use crate::graph::{EdgeId, Graph, NodeId};
use std::fmt::Write as _;

/// Renders the graph in Graphviz DOT format.
///
/// `node_attr` and `edge_attr` return raw DOT attribute strings (e.g.
/// `label="pop", shape=box`); return an empty string for no attributes.
pub fn to_dot<N, E>(
    g: &Graph<N, E>,
    mut node_attr: impl FnMut(NodeId, &N) -> String,
    mut edge_attr: impl FnMut(EdgeId, &E) -> String,
) -> String {
    let mut out = String::from("graph topology {\n");
    for v in g.node_ids() {
        let attrs = node_attr(v, g.node_weight(v));
        if attrs.is_empty() {
            let _ = writeln!(out, "  {};", v.index());
        } else {
            let _ = writeln!(out, "  {} [{}];", v.index(), attrs);
        }
    }
    for (e, a, b, w) in g.edges() {
        let attrs = edge_attr(e, w);
        if attrs.is_empty() {
            let _ = writeln!(out, "  {} -- {};", a.index(), b.index());
        } else {
            let _ = writeln!(out, "  {} -- {} [{}];", a.index(), b.index(), attrs);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph<(), f64> {
        Graph::from_edges(3, vec![(0, 1, 1.5), (1, 2, 2.5), (0, 2, 3.5)])
    }

    #[test]
    fn dot_contains_all_elements() {
        let g = triangle();
        let dot = to_dot(&g, |_, _| String::new(), |_, w| format!("label=\"{}\"", w));
        assert!(dot.starts_with("graph topology {"));
        assert!(dot.contains("0 -- 1 [label=\"1.5\"];"));
        assert!(dot.contains("1 -- 2"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_node_attributes() {
        let mut g: Graph<&str, f64> = Graph::new();
        let a = g.add_node("core");
        let b = g.add_node("leaf");
        g.add_edge(a, b, 1.0);
        let dot = to_dot(&g, |_, w| format!("label=\"{}\"", w), |_, _| String::new());
        assert!(dot.contains("0 [label=\"core\"];"));
        assert!(dot.contains("1 [label=\"leaf\"];"));
        assert!(dot.contains("0 -- 1;"));
    }
}
