//! The per-vantage traceroute reference for the probe engine
//! (`hot_sim::probe`): one allocating `Graph` Dijkstra per vantage and
//! one materialized path per destination.

use super::shortest_path::dijkstra;
use hotgen::graph::{Graph, NodeId};
use hotgen::sim::traceroute::InferredMap;

/// Runs a measurement campaign: shortest paths (under `weight`) from each
/// vantage to every destination; observed = union of path links.
///
/// Destinations: all nodes when `destinations` is `None`, else the given
/// subset. Unreachable destinations are silently skipped (exactly like a
/// traceroute timing out), and so are out-of-range vantage or
/// destination ids.
pub fn infer_map<N, E>(
    truth: &Graph<N, E>,
    vantages: &[NodeId],
    destinations: Option<&[NodeId]>,
    mut weight: impl FnMut(&E) -> f64,
) -> InferredMap {
    let n = truth.node_count();
    let mut node_seen = vec![false; n];
    let mut edge_seen = vec![false; truth.edge_count()];
    let all: Vec<NodeId>;
    let dests: &[NodeId] = match destinations {
        Some(d) => d,
        None => {
            all = truth.node_ids().collect();
            &all
        }
    };
    for &v in vantages {
        if v.index() >= n {
            continue;
        }
        node_seen[v.index()] = true;
        let sp = dijkstra(truth, v, |_, w| weight(w));
        for &dst in dests {
            if dst.index() >= n {
                continue;
            }
            if let Some(path) = sp.edge_path_to(dst) {
                node_seen[dst.index()] = true;
                let mut cur = dst;
                for e in path.iter().rev() {
                    edge_seen[e.index()] = true;
                    cur = truth.opposite(*e, cur);
                    node_seen[cur.index()] = true;
                }
            }
        }
    }
    let nodes_obs = node_seen.iter().filter(|&&s| s).count();
    let edges_obs = edge_seen.iter().filter(|&&s| s).count();
    InferredMap {
        node_coverage: if n > 0 {
            nodes_obs as f64 / n as f64
        } else {
            0.0
        },
        edge_coverage: if truth.edge_count() > 0 {
            edges_obs as f64 / truth.edge_count() as f64
        } else {
            0.0
        },
        node_seen,
        edge_seen,
    }
}
