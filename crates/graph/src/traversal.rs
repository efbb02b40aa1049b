//! Connectivity queries over a [`Graph`], answered by the component pass
//! of its CSR view ([`CsrGraph::components`]). Every hop BFS in the
//! workspace lives in [`crate::csr`].

use crate::csr::CsrGraph;
use crate::graph::Graph;

/// Number of connected components (0 for the empty graph).
pub fn component_count<N, E>(g: &Graph<N, E>) -> usize {
    CsrGraph::from_graph(g).component_count()
}

/// Whether the graph is connected. The empty graph counts as connected.
pub fn is_connected<N, E>(g: &Graph<N, E>) -> bool {
    component_count(g) <= 1
}

/// Size of the largest connected component (0 for the empty graph).
pub fn largest_component_size<N, E>(g: &Graph<N, E>) -> usize {
    CsrGraph::from_graph(g).largest_component_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn two_triangles() -> Graph<(), ()> {
        // {0,1,2} triangle and {3,4,5} triangle, disconnected.
        Graph::from_edges(
            6,
            vec![
                (0, 1, ()),
                (1, 2, ()),
                (0, 2, ()),
                (3, 4, ()),
                (4, 5, ()),
                (3, 5, ()),
            ],
        )
    }

    #[test]
    fn components_labeling() {
        let g = two_triangles();
        assert_eq!(component_count(&g), 2);
        assert!(!is_connected(&g));
        assert_eq!(largest_component_size(&g), 3);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g: Graph<(), ()> = Graph::new();
        assert!(is_connected(&g));
        assert_eq!(component_count(&g), 0);
        assert_eq!(largest_component_size(&g), 0);
    }

    #[test]
    fn largest_component_mask_picks_bigger() {
        let g: Graph<(), ()> = Graph::from_edges(5, vec![(0, 1, ()), (2, 3, ()), (3, 4, ())]);
        assert_eq!(largest_component_size(&g), 3);
        assert_eq!(
            CsrGraph::from_graph(&g).largest_component_mask(),
            vec![false, false, true, true, true]
        );
    }

    #[test]
    fn single_node_component() {
        let mut g: Graph<(), ()> = Graph::new();
        g.add_node(());
        assert!(is_connected(&g));
        assert_eq!(largest_component_size(&g), 1);
    }
}
