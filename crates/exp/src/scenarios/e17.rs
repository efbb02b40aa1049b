//! E17 (extension) — policy routing: batched valley-free propagation
//! over HOT vs degree-based internets.
//!
//! E13 established that valley-free export inflates paths on one
//! generated AS graph; this scenario runs the full `hot-bgp` subsystem —
//! per-AS economic class labels, one propagation per source fanned over
//! the deterministic scheduler, integer-exact analytics — over the HOT
//! internet *and* the degree-based generators the paper critiques. The
//! comparison is structural: on the HOT internet the class labels come
//! from real economics (who bought transit from whom), on GLP/BA they
//! can only be inferred from degree, and the resulting policy geometry —
//! path inflation CCDF, how many paths escape the provider/tier-1
//! hierarchy — differs measurably by generator.

use crate::fixtures::standard_geography;
use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_baselines::{ba, glp};
use hot_bgp::{policy_summary_all, AsClass, AsTopology, PolicySummary};
use hot_core::isp::generator::IspConfig;
use hot_core::peering::{generate_internet, InternetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Geography of the HOT internet.
    pub cities: usize,
    /// ASes of the HOT internet (each a designed multi-POP ISP).
    pub n_isps: usize,
    pub max_pops: usize,
    pub customers_per_pop: usize,
    /// Tier-1 clique size (HOT generator input, and the size of the
    /// degree-inferred clique on the baselines).
    pub tier1_count: usize,
    /// Upstreams per non-tier-1 ISP. Two or more creates the raw-graph
    /// shortcuts whose transit valley-freedom forbids — the inflation
    /// source (E13).
    pub transit_per_isp: usize,
    /// ASes of the GLP control topology.
    pub glp_n: usize,
    /// ASes of the BA control topology.
    pub ba_n: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            cities: 12,
            n_isps: 16,
            max_pops: 6,
            customers_per_pop: 3,
            tier1_count: 3,
            transit_per_isp: 2,
            glp_n: 512,
            ba_n: 512,
        }
    }

    pub fn full() -> Params {
        Params {
            cities: 30,
            n_isps: 50,
            max_pops: 12,
            customers_per_pop: 6,
            tier1_count: 3,
            transit_per_isp: 2,
            glp_n: 5000,
            ba_n: 5000,
        }
    }
}

/// One topology's policy measurement, in typed form for the claims
/// tests. All derived floats come from the summary's exact integer
/// counters.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    pub topology: &'static str,
    pub ases: usize,
    /// ASes per class, indexed by [`AsClass::index`].
    pub class_counts: [usize; 4],
    /// Distinct provider→customer relationships.
    pub p2c: usize,
    /// Distinct peer–peer relationships.
    pub p2p: usize,
    /// The full integer summary (histograms, per-class counts).
    pub summary: PolicySummary,
}

impl PolicyRow {
    fn measure(topology: &'static str, topo: &AsTopology, threads: usize) -> PolicyRow {
        PolicyRow {
            topology,
            ases: topo.len(),
            class_counts: topo.class_counts(),
            p2c: topo.p2c_count(),
            p2p: topo.p2p_count(),
            summary: policy_summary_all(topo, threads),
        }
    }
}

/// The measurement sweep: the HOT internet (economics-derived classes)
/// and the GLP/BA controls (degree-inferred classes), all sources.
pub fn policy_rows(p: &Params, seed: u64, threads: usize) -> Vec<PolicyRow> {
    let mut rows = Vec::new();
    {
        let (census, traffic) = standard_geography(p.cities, seed);
        let config = InternetConfig {
            n_isps: p.n_isps,
            max_pops: p.max_pops,
            tier1_count: p.tier1_count,
            transit_per_isp: p.transit_per_isp,
            customers_per_pop: p.customers_per_pop,
            isp_template: IspConfig::default(),
            ..InternetConfig::default()
        };
        let net = generate_internet(
            &census,
            &traffic,
            &config,
            &mut StdRng::seed_from_u64(seed + 17),
        );
        let topo = AsTopology::from_internet(&net);
        rows.push(PolicyRow::measure("hot(internet)", &topo, threads));
    }
    let glp_graph = glp::generate(
        &glp::GlpConfig {
            n: p.glp_n,
            ..glp::GlpConfig::default()
        },
        &mut StdRng::seed_from_u64(seed + 1),
    );
    let ba_graph = ba::generate(p.ba_n, 2, &mut StdRng::seed_from_u64(seed + 2));
    rows.push(PolicyRow::measure(
        "glp",
        &AsTopology::from_graph_by_degree(&glp_graph, p.tier1_count),
        threads,
    ));
    rows.push(PolicyRow::measure(
        "ba(m=2)",
        &AsTopology::from_graph_by_degree(&ba_graph, p.tier1_count),
        threads,
    ));
    rows
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e17",
        "policy-routing",
        "E17 (extension): batched valley-free policy routing, HOT vs degree-based",
        "Gao-Rexford export rules leave a generator-specific fingerprint: \
         the economics-built internet routes near-shortest under policy \
         (its multihoming was designed against the transit hierarchy), \
         while a degree-inferred hierarchy on BA-style graphs inflates a \
         double-digit share of pairs and even denies reachability the raw \
         graph would allow",
        &ctx,
    );
    report.param("cities", p.cities);
    report.param("n_isps", p.n_isps);
    report.param("max_pops", p.max_pops);
    report.param("customers_per_pop", p.customers_per_pop);
    report.param("tier1_count", p.tier1_count);
    report.param("transit_per_isp", p.transit_per_isp);
    report.param("glp_n", p.glp_n);
    report.param("ba_n", p.ba_n);
    if p.cities < 2
        || p.n_isps < p.tier1_count.max(2)
        || p.max_pops == 0
        || p.cities < p.max_pops
        || p.tier1_count == 0
        || p.transit_per_isp == 0
        || p.glp_n < 10
        || p.ba_n < 10
    {
        return report.into_skipped(format!(
            "degenerate parameters: cities = {}, n_isps = {}, max_pops = {}, tier1_count = {}, \
             transit_per_isp = {}, glp_n = {}, ba_n = {}",
            p.cities, p.n_isps, p.max_pops, p.tier1_count, p.transit_per_isp, p.glp_n, p.ba_n
        ));
    }
    let rows = policy_rows(p, ctx.seed, ctx.threads);
    let mut overview = Table::new(&[
        "topology",
        "ases",
        "tier1",
        "tier2",
        "cloud",
        "stub",
        "p2c",
        "p2p",
        "reachability",
        "meanvfhops",
        "meansphops",
        "meaninflation",
        "inflatedshare",
        "maxinflation",
    ]);
    for r in &rows {
        let s = &r.summary;
        overview.push(vec![
            Json::str(r.topology),
            Json::UInt(r.ases as u64),
            Json::UInt(r.class_counts[0] as u64),
            Json::UInt(r.class_counts[1] as u64),
            Json::UInt(r.class_counts[2] as u64),
            Json::UInt(r.class_counts[3] as u64),
            Json::UInt(r.p2c as u64),
            Json::UInt(r.p2p as u64),
            Json::Float(s.policy_reachability()),
            Json::Float(s.mean_policy_hops()),
            Json::Float(s.mean_shortest_hops()),
            Json::Float(s.mean_inflation_hops()),
            Json::Float(s.inflated_fraction()),
            Json::UInt(s.max_inflation_hops() as u64),
        ]);
    }
    report.section(
        Section::new("valley-free propagation per topology (all sources, batched)")
            .table(overview)
            .note(
                "one propagation per source AS over the 64-chunk \
                 scheduler; every statistic reduces from exact integer \
                 counters, so the table is bit-identical at any thread \
                 count. Inflation compares the valley-free distance \
                 against the unrestricted BFS distance on the same \
                 relationship graph.",
            ),
    );
    let mut ccdf = Table::new(&["topology", "extra_hops", "fraction_ge"]);
    for r in &rows {
        for (k, frac) in r.summary.inflation_ccdf() {
            ccdf.push(vec![
                Json::str(r.topology),
                Json::UInt(k as u64),
                Json::Float(frac),
            ]);
        }
    }
    report.section(
        Section::new("path-inflation CCDF (fraction of pairs inflated by >= k hops)")
            .table(ccdf)
            .note(
                "the HOT internet's tail is short: its transit tree was \
                 designed, so the up-down route is almost always also the \
                 shortest route. On BA the degree-inferred hierarchy \
                 fights the mesh — valley-freedom forbids many raw-graph \
                 shortcuts, inflating a double-digit share of pairs by \
                 several hops (and policy denies some pairs outright).",
            ),
    );
    let mut classes = Table::new(&[
        "topology",
        "class",
        "sources",
        "paths",
        "providerfree",
        "tier1free",
        "hierarchyfree",
    ]);
    for r in &rows {
        for c in AsClass::ALL {
            let counts = r.summary.class(c);
            if counts.sources == 0 {
                continue;
            }
            classes.push(vec![
                Json::str(r.topology),
                Json::str(c.label()),
                Json::UInt(counts.sources),
                Json::UInt(counts.paths),
                Json::Float(counts.provider_free_share()),
                Json::Float(counts.tier1_free_share()),
                Json::Float(counts.hierarchy_free_share()),
            ]);
        }
    }
    report.section(
        Section::new("hierarchy-free paths by source class")
            .table(classes)
            .note(
                "shares of each class's policy-reachable paths that avoid \
                 the source's direct providers, every tier-1 AS, or the \
                 whole transit hierarchy. Tier-1 sources are trivially \
                 provider-free; the interesting signal is how many tier-2 \
                 and stub paths stay below the tier-1 clique on each \
                 generator — regional transit on the designed internet, \
                 accidental hub-avoidance on the degree graphs.",
            ),
    );
    report.section(Section::new("interpretation").note(
        "policy structure is an economic fingerprint: the generators can \
         be degree-matched, yet the valley-free geometry — who inflates, \
         who escapes the hierarchy — separates the economics-built \
         internet from its statistical look-alikes. This is the E6 \
         argument (matching one statistic does not match the network) \
         restated at the routing-policy layer.",
    ));
    report
}
