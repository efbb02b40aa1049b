//! E7 — the national-ISP pipeline (paper §2.2).
//!
//! Claim: decomposing the design into backbone / distribution / access
//! levels with population-driven demand yields an ISP whose "size,
//! location and connectivity … depend largely on the number and location
//! of its customers", with technology constraints (degree caps) and the
//! formulation (cost vs profit) leaving visible fingerprints.

use crate::fixtures::standard_geography;
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::formulation::Formulation;
use hot_core::isp::generator::{generate, IspConfig};
use hot_core::isp::{LinkKind, RouterRole};
use hot_econ::pricing::RevenueModel;
use hot_graph::traversal::is_connected;
use hot_metrics::degree_dist::summarize_sample;
use hot_metrics::expfit::classify;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
pub struct Params {
    pub cities: usize,
    pub n_pops: usize,
    pub total_customers: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            cities: 20,
            n_pops: 5,
            total_customers: 200,
        }
    }

    pub fn full() -> Params {
        Params {
            cities: 60,
            n_pops: 12,
            total_customers: 1500,
        }
    }
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e7",
        "national-isp",
        "E7: national ISP from a synthetic census",
        "hierarchy (WAN/MAN/LAN) emerges from per-level optimization; \
         degree caps bound router degrees; profit-based design serves \
         fewer customers",
        &ctx,
    );
    report.param("cities", p.cities);
    report.param("n_pops", p.n_pops);
    report.param("total_customers", p.total_customers);
    if p.cities < 2 || p.n_pops == 0 || p.total_customers == 0 {
        return report.into_skipped(format!(
            "degenerate parameters: cities = {}, pops = {}, customers = {}",
            p.cities, p.n_pops, p.total_customers
        ));
    }
    let (census, traffic) = standard_geography(p.cities, ctx.seed);
    let base = IspConfig {
        n_pops: p.n_pops,
        total_customers: p.total_customers,
        ..IspConfig::default()
    };
    let formulations = [
        ("cost-based", Formulation::CostBased),
        (
            "profit-based",
            Formulation::ProfitBased {
                // Calibrated so the marginal metro customer is borderline:
                // attaching a mean-demand customer at the mean scatter
                // radius costs ≈ 25 km × (σ + δ·d) ≈ 300–400 $-units.
                revenue: RevenueModel::PerUnitDemand {
                    base: 250.0,
                    per_unit: 15.0,
                },
            },
        ),
    ];
    for (name, formulation) in formulations {
        let config = IspConfig {
            formulation,
            ..base.clone()
        };
        let mut rng = StdRng::seed_from_u64(ctx.seed + 7);
        let isp = generate(&census, &traffic, &config, &mut rng);
        let mut section = Section::new(format!("{} ISP", name))
            .fact("connected", is_connected(&isp.graph))
            .fact("routers", isp.graph.node_count());
        let mut roles = Table::new(&["role", "count"]);
        for role in [
            RouterRole::Backbone,
            RouterRole::Distribution,
            RouterRole::Customer,
        ] {
            roles.push(vec![
                Json::str(format!("{:?}", role)),
                isp.count_role(role).into(),
            ]);
        }
        section = section
            .table(roles)
            .fact("links", isp.graph.edge_count())
            .fact("fiber_km", isp.total_length());
        let mut kinds = Table::new(&["kind", "count"]);
        for kind in [
            LinkKind::Backbone,
            LinkKind::Metro,
            LinkKind::Access,
            LinkKind::Chassis,
        ] {
            kinds.push(vec![
                Json::str(format!("{:?}", kind)),
                isp.count_kind(kind).into(),
            ]);
        }
        section = section
            .table(kinds)
            .fact("customers_priced_out", isp.rejected_customers);
        // Degree structure per role.
        let max_deg = isp.graph.degree_sequence().into_iter().max().unwrap_or(0);
        section = section
            .fact("max_router_degree", max_deg)
            .fact("degree_cap", config.max_router_degree);
        let mut degrees = Table::new(&["role", "mean", "max", "cv"]);
        for role in [RouterRole::Backbone, RouterRole::Distribution] {
            let degs = isp.degree_sequence_of(role);
            let s = summarize_sample(&degs);
            degrees.push(vec![
                Json::str(format!("{:?}", role)),
                Json::Float(s.mean),
                s.max.into(),
                Json::Float(s.cv),
            ]);
        }
        let all_degs = isp.graph.degree_sequence();
        section = section
            .table(degrees)
            .fact("overall_degree_tail", classify(&all_degs).class.to_string());
        // Cable bill of materials.
        let mut cable_km: BTreeMap<&str, f64> = BTreeMap::new();
        for (_, _, _, l) in isp.graph.edges() {
            if l.kind != LinkKind::Chassis {
                *cable_km.entry(l.cable).or_insert(0.0) += l.length;
            }
        }
        let mut cables = Table::new(&["cable", "fiber_km"]);
        for (cable, km) in cable_km {
            cables.push(vec![Json::str(cable), Json::Float(km)]);
        }
        report.section(section.table(cables));
    }
    report.section(Section::new("interpretation").note(
        "the profit-based ISP serves fewer customers (positive 'priced \
         out' row) with correspondingly less access plant; both respect \
         the router degree cap via chassis splits; big cables appear only \
         on backbone/trunk links where flow aggregates.",
    ));
    report
}
