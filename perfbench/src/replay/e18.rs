//! Traced replay of `te-cascade`: the computation of
//! `hot_exp::scenarios::e18::cascade_rows`, one layer call per span.

use crate::layers::{BASELINES, CASCADE, CSR, GENERATORS, TE, TRAFFIC};
use crate::trace::Tracer;
use hot_baselines::{ba, glp};
use hot_core::isp::generator::{generate, IspConfig};
use hot_econ::cable::CableCatalog;
use hot_econ::{proportional_capacities, provision_capacities};
use hot_exp::fixtures::{customer_masses, standard_geography};
use hot_exp::scenarios::e18::{CascadeRow, Params};
use hot_graph::csr::CsrGraph;
use hot_metrics::utilization::utilization_summary;
use hot_sim::cascade::{cascade, CascadeConfig};
use hot_sim::demand::{DemandConfig, DemandMatrix, DemandModel, OdDemand, SumDemand};
use hot_sim::te::{tune_weights, TeConfig};
use hot_sim::traffic::{link_loads, RoutePolicy, TrafficLoads};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One provisioned topology, ready for the capacitated analysis.
pub struct Case {
    name: &'static str,
    csr: CsrGraph,
    base: DemandMatrix,
    capacities: Vec<f64>,
}

fn routed(tr: &mut Tracer, csr: &CsrGraph, demand: &dyn OdDemand, threads: usize) -> TrafficLoads {
    tr.count(TRAFFIC, "sources", csr.node_count() as u64);
    tr.span(TRAFFIC, || {
        link_loads(csr, demand, RoutePolicy::TreePath, threads)
    })
}

fn surge(csr: &CsrGraph, p: &Params) -> DemandMatrix {
    DemandMatrix::build(
        csr,
        None,
        &DemandConfig {
            model: DemandModel::RankBiased {
                exponent: p.surge_exponent,
            },
            total_traffic: p.surge_traffic,
            ..DemandConfig::default()
        },
    )
}

/// Topologies, CSR views, demand matrices and provisioned capacities:
/// everything before the first analysis kernel.
pub fn build(p: &Params, seed: u64, threads: usize, tr: &mut Tracer) -> Vec<Case> {
    let isp = tr.span(GENERATORS, || {
        let (census, traffic) = standard_geography(p.cities, seed);
        let config = IspConfig {
            n_pops: p.n_pops,
            total_customers: p.total_customers,
            ..IspConfig::default()
        };
        generate(&census, &traffic, &config, &mut StdRng::seed_from_u64(seed))
    });
    let csr = tr.span(CSR, || CsrGraph::from_graph(&isp.graph));
    let (mass, positions) = customer_masses(&isp);
    let base = DemandMatrix::from_masses(mass, Some(positions), 1.0, 1.0, p.total_traffic);
    let allowance = surge(&csr, p);
    let envelope = SumDemand::new(&base, &allowance);
    let loads = routed(tr, &csr, &envelope, threads);
    let capacities = provision_capacities(
        &CableCatalog::realistic_2003(),
        &loads.link_load,
        p.headroom,
    );
    let mut cases = vec![Case {
        name: "isp(designed)",
        csr,
        base,
        capacities,
    }];
    let (glp_graph, ba_graph) = tr.span(BASELINES, || {
        let glp_graph = glp::generate(
            &glp::GlpConfig {
                n: p.glp_n,
                ..glp::GlpConfig::default()
            },
            &mut StdRng::seed_from_u64(seed + 1),
        );
        let ba_graph = ba::generate(p.ba_n, 2, &mut StdRng::seed_from_u64(seed + 2));
        (glp_graph, ba_graph)
    });
    for (name, g) in [("glp", &glp_graph), ("ba(m=2)", &ba_graph)] {
        let csr = tr.span(CSR, || CsrGraph::from_graph(g));
        let base = DemandMatrix::build(
            &csr,
            None,
            &DemandConfig {
                model: DemandModel::Gravity {
                    distance_exponent: 1.0,
                },
                total_traffic: p.total_traffic,
                ..DemandConfig::default()
            },
        );
        let degrees = csr.degree_sequence();
        let weights: Vec<f64> = g
            .edges()
            .map(|(_, a, b, _)| (degrees[a.index()] + degrees[b.index()]) as f64)
            .collect();
        let loads = routed(tr, &csr, &base, threads);
        let capacities = proportional_capacities(&weights, &loads.link_load, p.headroom);
        cases.push(Case {
            name,
            csr,
            base,
            capacities,
        });
    }
    cases
}

/// Baseline utilization, TE tuning, surge and cascade per topology.
pub fn analyze(p: &Params, cases: &[Case], threads: usize, tr: &mut Tracer) -> Vec<CascadeRow> {
    cases
        .iter()
        .map(|c| {
            let (csr, capacities) = (&c.csr, &c.capacities[..]);
            let baseline_loads = routed(tr, csr, &c.base, threads);
            let baseline = utilization_summary(&baseline_loads.link_load, capacities);
            let te = tr.span(TE, || {
                tune_weights(
                    csr,
                    &c.base,
                    capacities,
                    &TeConfig {
                        max_rounds: p.max_te_rounds,
                        ..TeConfig::default()
                    },
                    threads,
                )
            });
            tr.count(TE, "rounds", te.rounds_tried as u64);
            let surge_overlay = surge(csr, p);
            let surged = SumDemand::new(&c.base, &surge_overlay);
            let out = tr.span(CASCADE, || {
                cascade(
                    csr,
                    &surged,
                    capacities,
                    &CascadeConfig {
                        threshold: p.cascade_threshold,
                        max_rounds: p.max_cascade_rounds,
                    },
                    threads,
                )
            });
            let rounds = out.rounds.len() as u64;
            tr.count(CASCADE, "rounds", rounds);
            tr.count(CASCADE, "failed_links", out.failed_links() as u64);
            tr.count(
                CASCADE,
                "sources_rerouted",
                rounds * csr.node_count() as u64,
            );
            let total_capacity: f64 = capacities.iter().sum();
            let surge_max_util = out.rounds[0].max_util;
            let m = capacities.len();
            CascadeRow {
                topology: c.name,
                nodes: csr.node_count(),
                links: m,
                total_capacity,
                baseline,
                te_initial_max_util: te.initial_max_util(),
                te_final_max_util: te.final_max_util(),
                te_accepted_rounds: te.trajectory.len() - 1,
                te_rounds_tried: te.rounds_tried,
                te_converged: te.converged,
                surge_max_util,
                amplification: if baseline.max > 0.0 {
                    surge_max_util / baseline.max
                } else {
                    0.0
                },
                failed_links: out.failed_links(),
                failed_link_share: if m > 0 {
                    out.failed_links() as f64 / m as f64
                } else {
                    0.0
                },
                stranded_fraction: out.stranded_fraction(),
                cascade_rounds: out.rounds.len(),
                cascade_converged: out.converged,
                surviving_capacity_share: if total_capacity > 0.0 {
                    out.final_round().surviving_capacity / total_capacity
                } else {
                    0.0
                },
                rounds: out.rounds,
            }
        })
        .collect()
}
