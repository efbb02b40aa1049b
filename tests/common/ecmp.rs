//! The two-pass ECMP reference of the batched traffic engine: per
//! source, a BFS tree, a separate path-count pass over every adjacency
//! list, and a reverse pass that rescans each node's neighbors for its
//! shortest-path parents. It is the engine's ECMP path as it ran before
//! the one-sweep shortest-path DAG, chunked on the same fixed
//! scheduler, so the loads must agree bit for bit.

use hotgen::graph::csr::{CsrBfsTree, CsrGraph, UNREACHABLE};
use hotgen::graph::parallel::run_chunks;
use hotgen::graph::NodeId;
use hotgen::sim::demand::OdDemand;
use hotgen::sim::traffic::TrafficLoads;

struct Scratch {
    tree: CsrBfsTree,
    acc: Vec<f64>,
    sigma: Vec<f64>,
    entries: Vec<Vec<(u32, f64)>>,
}

fn zero(links: usize) -> TrafficLoads {
    TrafficLoads {
        link_load: vec![0.0; links],
        routed_flows: 0,
        unrouted_flows: 0,
        routed_traffic: 0.0,
        unrouted_traffic: 0.0,
        traffic_hops: 0.0,
    }
}

/// ECMP link loads of every model in `demands`, weighted by
/// `weights` (indexed by edge id) when given: the reference for
/// `link_loads_multi(.., Ecmp, ..)` and `link_loads_weighted`.
pub fn ecmp_two_pass(
    csr: &CsrGraph,
    demands: &[&dyn OdDemand],
    weights: Option<&[f64]>,
    threads: usize,
) -> Vec<TrafficLoads> {
    let n = csr.node_count();
    let links = csr.edge_count();
    let mut totals: Vec<TrafficLoads> = demands.iter().map(|_| zero(links)).collect();
    if n == 0 || demands.is_empty() {
        return totals;
    }
    let partials = run_chunks(
        n,
        threads,
        || Scratch {
            tree: CsrBfsTree::sized(n),
            acc: vec![0.0; n],
            sigma: vec![0.0; n],
            entries: demands.iter().map(|_| Vec::new()).collect(),
        },
        |scratch, range| {
            let mut partial: Vec<TrafficLoads> = demands.iter().map(|_| zero(links)).collect();
            for s in range {
                let mut any = false;
                for (dem, entries) in demands.iter().zip(&mut scratch.entries) {
                    entries.clear();
                    dem.gather_row(s, entries);
                    any |= !entries.is_empty();
                }
                if !any {
                    continue;
                }
                csr.bfs_tree_into(NodeId(s as u32), &mut scratch.tree);
                count_paths(csr, &scratch.tree, &mut scratch.sigma, weights);
                for (m, out) in partial.iter_mut().enumerate() {
                    accumulate_source(csr, scratch, m, weights, out);
                }
            }
            partial
        },
    );
    for (_, partial) in partials {
        for (total, part) in totals.iter_mut().zip(&partial) {
            for (a, b) in total.link_load.iter_mut().zip(&part.link_load) {
                *a += b;
            }
            total.routed_flows += part.routed_flows;
            total.unrouted_flows += part.unrouted_flows;
            total.routed_traffic += part.routed_traffic;
            total.unrouted_traffic += part.unrouted_traffic;
            total.traffic_hops += part.traffic_hops;
        }
    }
    totals
}

/// Brandes-style shortest-path counts from the tree's source, into
/// `sigma`, by scanning every reached node's whole adjacency list.
fn count_paths(csr: &CsrGraph, tree: &CsrBfsTree, sigma: &mut [f64], weights: Option<&[f64]>) {
    for &v in tree.visit_order() {
        sigma[v.index()] = 0.0;
    }
    sigma[tree.source.index()] = 1.0;
    for &v in tree.visit_order() {
        let next = tree.dist[v.index()] + 1;
        match weights {
            None => {
                for &u in csr.neighbors(v) {
                    if tree.dist[u.index()] == next {
                        sigma[u.index()] += sigma[v.index()];
                    }
                }
            }
            Some(w) => {
                for (&u, &e) in csr.neighbors(v).iter().zip(csr.incident_edges(v)) {
                    if tree.dist[u.index()] == next {
                        sigma[u.index()] += sigma[v.index()] * w[e.index()];
                    }
                }
            }
        }
    }
}

/// Routes model `m`'s gathered demands over the current tree's
/// shortest-path DAG into `out`, finding each node's parents by a scan
/// of its neighbors.
fn accumulate_source(
    csr: &CsrGraph,
    scratch: &mut Scratch,
    m: usize,
    weights: Option<&[f64]>,
    out: &mut TrafficLoads,
) {
    let Scratch {
        tree,
        acc,
        sigma,
        entries,
    } = scratch;
    for &(v, amount) in &entries[m] {
        let v = v as usize;
        if v == tree.source.index() {
            continue;
        }
        if tree.dist[v] == UNREACHABLE {
            out.unrouted_flows += 1;
            out.unrouted_traffic += amount;
        } else {
            acc[v] = amount;
            out.routed_flows += 1;
            out.routed_traffic += amount;
            out.traffic_hops += amount * tree.dist[v] as f64;
        }
    }
    for &v in tree.visit_order().iter().rev() {
        if v == tree.source {
            continue;
        }
        let a = acc[v.index()];
        if a == 0.0 {
            continue;
        }
        let dv = tree.dist[v.index()];
        let share = a / sigma[v.index()];
        for (&u, &e) in csr.neighbors(v).iter().zip(csr.incident_edges(v)) {
            let du = tree.dist[u.index()];
            if du != UNREACHABLE && du + 1 == dv {
                let c = match weights {
                    None => share * sigma[u.index()],
                    Some(w) => share * (sigma[u.index()] * w[e.index()]),
                };
                out.link_load[e.index()] += c;
                acc[u.index()] += c;
            }
        }
        acc[v.index()] = 0.0;
    }
    acc[tree.source.index()] = 0.0;
}
