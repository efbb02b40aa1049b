//! E13 (extension) — valley-free routing and policy inflation.
//!
//! §2.3: peering is economics, and the paper cites Johari–Tsitsiklis on
//! "the gaming issues of interdomain traffic management". The routing
//! face of those economics is Gao–Rexford valley-free export: paths climb
//! providers, cross at most one peer link, then descend customers. We
//! measure what those policies cost the generated Internet in path
//! length — the classic policy-inflation experiment, run on an AS graph
//! whose relationships came from the generator's own economics. Each
//! variant's four cells come from one batched valley-free sweep
//! (`hot_bgp::policy_summary_all`) on the run's threads.

use crate::fixtures::standard_geography;
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_bgp::{policy_summary_all, AsTopology};
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
}

impl Params {
    pub fn golden() -> Params {
        Params {
            cities: 12,
            n_isps: 16,
            max_pops: 6,
            customers_per_pop: 3,
        }
    }

    pub fn full() -> Params {
        Params {
            cities: 30,
            n_isps: 50,
            max_pops: 12,
            customers_per_pop: 6,
        }
    }
}

/// Size of every variant's tier-1 clique.
const TIER1_COUNT: usize = 3;

/// `(label, transit_per_isp)` of each variant, one report section each.
const VARIANTS: [(&str, usize); 3] = [
    ("sparse transit (1 upstream)", 1),
    ("multihomed (2 upstreams)", 2),
    ("heavily multihomed (3 upstreams)", 3),
];

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
    if p.cities < 2 || p.n_isps < TIER1_COUNT || p.max_pops == 0 || p.cities < p.max_pops {
        return report.into_skipped(format!(
            "degenerate parameters: cities = {}, n_isps = {}, max_pops = {}",
            p.cities, p.n_isps, p.max_pops
        ));
    }
    let (census, traffic) = standard_geography(p.cities, ctx.seed);
    for (label, transit) in VARIANTS {
        let config = InternetConfig {
            n_isps: p.n_isps,
            max_pops: p.max_pops,
            tier1_count: TIER1_COUNT,
            transit_per_isp: transit,
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
        let summary = policy_summary_all(&AsTopology::from_internet(&net), ctx.threads);
        let mut t = Table::new(&["metric", "value"]);
        for (metric, value) in [
            ("policy_reachability", summary.policy_reachability()),
            ("mean_path_inflation", summary.mean_inflation_ratio()),
            ("pairs_strictly_inflated", summary.inflated_fraction()),
            ("max_inflation_ratio", summary.max_inflation_ratio()),
        ] {
            t.push(vec![Json::str(metric), Json::Float(value)]);
        }
        report.section(
            Section::new(label)
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
