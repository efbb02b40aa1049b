//! E13 (extension) — valley-free routing and policy inflation.
//!
//! §2.3: peering is economics, and the paper cites Johari–Tsitsiklis on
//! "the gaming issues of interdomain traffic management". The routing
//! face of those economics is Gao–Rexford valley-free export: paths climb
//! providers, cross at most one peer link, then descend customers. We
//! measure what those policies cost the generated Internet in path
//! length — the classic policy-inflation experiment, run on an AS graph
//! whose relationships came from the generator's own economics.

use crate::fixtures::standard_geography;
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_bgp::{AsTopology, PropagationScratch, RouteTable, UNREACHED};
use hot_core::isp::generator::IspConfig;
use hot_core::peering::{generate_internet, InternetConfig, Relationship};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    pub cities: usize,
    pub n_isps: usize,
    pub max_pops: usize,
    pub customers_per_pop: usize,
    /// `(label, tier1_count, transit_per_isp)` variants.
    pub variants: Vec<(String, usize, usize)>,
}

fn default_variants() -> Vec<(String, usize, usize)> {
    vec![
        ("sparse transit (1 upstream)".into(), 3, 1),
        ("multihomed (2 upstreams)".into(), 3, 2),
        ("heavily multihomed (3 upstreams)".into(), 3, 3),
    ]
}

impl Params {
    pub fn golden() -> Params {
        Params {
            cities: 12,
            n_isps: 16,
            max_pops: 6,
            customers_per_pop: 3,
            variants: default_variants(),
        }
    }

    pub fn full() -> Params {
        Params {
            cities: 30,
            n_isps: 50,
            max_pops: 12,
            customers_per_pop: 6,
            variants: default_variants(),
        }
    }
}

/// Policy-inflation statistics over all ordered AS pairs.
#[derive(Clone, Copy, Debug)]
pub struct InflationStats {
    /// Pairs reachable under policy / pairs reachable at all.
    pub policy_reachability: f64,
    /// Mean of (valley-free length / shortest length) over pairs
    /// reachable both ways.
    pub mean_inflation: f64,
    /// Fraction of those pairs whose path is strictly inflated.
    pub inflated_fraction: f64,
    /// Maximum observed inflation ratio.
    pub max_inflation: f64,
}

/// Computes the inflation statistics of `topo`: one valley-free and one
/// unrestricted BFS per source on a shared scratch, accumulated source
/// by source, destinations ascending.
pub fn inflation_stats(topo: &AsTopology) -> InflationStats {
    let n = topo.len();
    let mut scratch = PropagationScratch::for_topology(topo);
    let mut table = RouteTable::sized(n);
    let mut sp = vec![UNREACHED; n];
    let (mut reach_shortest, mut reach_policy) = (0usize, 0usize);
    let (mut compared, mut inflated) = (0usize, 0usize);
    let mut inflation_sum = 0.0;
    let mut max_inflation = 1.0f64;
    for src in 0..n {
        topo.propagate_into(src, &mut scratch, &mut table);
        topo.shortest_into(src, &mut scratch, &mut sp);
        for dst in (0..n).filter(|&dst| dst != src && sp[dst] != UNREACHED) {
            reach_shortest += 1;
            let (v, s) = (table.dist[dst], sp[dst]);
            if v == UNREACHED {
                continue;
            }
            reach_policy += 1;
            debug_assert!(v >= s, "policy cannot beat shortest");
            let ratio = v as f64 / s as f64;
            inflation_sum += ratio;
            compared += 1;
            max_inflation = max_inflation.max(ratio);
            if v > s {
                inflated += 1;
            }
        }
    }
    InflationStats {
        policy_reachability: if reach_shortest > 0 {
            reach_policy as f64 / reach_shortest as f64
        } else {
            1.0
        },
        mean_inflation: if compared > 0 {
            inflation_sum / compared as f64
        } else {
            1.0
        },
        inflated_fraction: if compared > 0 {
            inflated as f64 / compared as f64
        } else {
            0.0
        },
        max_inflation,
    }
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e13",
        "policy-inflation",
        "E13 (extension): valley-free policy inflation",
        "business relationships (transit/peer), not shortest paths, \
         determine AS routes; policy inflates path lengths and can deny \
         reachability that the raw graph would allow",
        &ctx,
    );
    report.param("cities", p.cities);
    report.param("n_isps", p.n_isps);
    report.param("max_pops", p.max_pops);
    report.param("customers_per_pop", p.customers_per_pop);
    let max_tier1 = p.variants.iter().map(|v| v.1).max().unwrap_or(0);
    if p.cities < 2
        || p.variants.is_empty()
        || p.n_isps < max_tier1
        || p.n_isps < 2
        || p.max_pops == 0
        || p.cities < p.max_pops
    {
        return report.into_skipped(format!(
            "degenerate parameters: cities = {}, n_isps = {}, max_pops = {}, {} variants",
            p.cities,
            p.n_isps,
            p.max_pops,
            p.variants.len()
        ));
    }
    let (census, traffic) = standard_geography(p.cities, ctx.seed);
    for (label, tier1, transit) in &p.variants {
        let config = InternetConfig {
            n_isps: p.n_isps,
            max_pops: p.max_pops,
            tier1_count: *tier1,
            transit_per_isp: *transit,
            customers_per_pop: p.customers_per_pop,
            isp_template: IspConfig::default(),
            ..InternetConfig::default()
        };
        let net = generate_internet(
            &census,
            &traffic,
            &config,
            &mut StdRng::seed_from_u64(ctx.seed + 13),
        );
        let peers = net
            .peering
            .iter()
            .filter(|pr| pr.relationship == Relationship::PeerPeer)
            .count();
        let transit_links = net.peering.len() - peers;
        let stats = inflation_stats(&AsTopology::from_internet(&net));
        let mut t = Table::new(&["metric", "value"]);
        t.push(vec![
            Json::str("policy_reachability"),
            Json::Float(stats.policy_reachability),
        ]);
        t.push(vec![
            Json::str("mean_path_inflation"),
            Json::Float(stats.mean_inflation),
        ]);
        t.push(vec![
            Json::str("pairs_strictly_inflated"),
            Json::Float(stats.inflated_fraction),
        ]);
        t.push(vec![
            Json::str("max_inflation_ratio"),
            Json::Float(stats.max_inflation),
        ]);
        report.section(
            Section::new(label.clone())
                .fact("ases", net.isps.len())
                .fact("peer_links", peers)
                .fact("transit_links", transit_links)
                .table(t),
        );
    }
    report.section(Section::new("interpretation").note(
        "with single-homing the AS graph is a tree over the tier-1 spine, \
         so policy routes ARE shortest routes (inflation 1.0). Multihoming \
         adds raw-graph shortcuts whose transit valley-freedom forbids, so \
         inflation appears (2 upstreams). Piling on more upstreams then \
         *shrinks* it again: enough provider diversity makes some up-down \
         route as short as the forbidden shortcut. Either way the effect \
         is purely economic — invisible to any graph-statistical \
         generator.",
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_bgp::AsClass;

    #[test]
    fn inflation_on_toy() {
        // 0 and 1 are tier-1 peers; 0 provides 2, 1 provides 3, 2
        // provides 4.
        let toy = AsTopology::from_relationships(
            5,
            &[(0, 2), (1, 3), (2, 4)],
            &[(0, 1)],
            vec![
                AsClass::Tier1,
                AsClass::Tier1,
                AsClass::Tier2,
                AsClass::Stub,
                AsClass::Stub,
            ],
        );
        let stats = inflation_stats(&toy);
        // Everything reachable under policy in this tree-with-peer-top.
        assert!((stats.policy_reachability - 1.0).abs() < 1e-12);
        assert!(stats.mean_inflation >= 1.0);
        assert!(stats.max_inflation >= stats.mean_inflation);
    }

    #[test]
    fn empty_network() {
        let stats = inflation_stats(&AsTopology::from_relationships(0, &[], &[], vec![]));
        assert_eq!(stats.policy_reachability, 1.0);
        assert_eq!(stats.mean_inflation, 1.0);
    }
}
