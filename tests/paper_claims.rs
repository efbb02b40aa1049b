//! The paper's quantitative claims as executable assertions — a cheap,
//! always-on version of the E1–E10 experiment suite. If one of these
//! fails, the reproduction no longer reproduces.

use hotgen::core::buyatbulk::mmp;
use hotgen::graph::tree::is_tree;
use hotgen::metrics::expfit::{classify, TailClass};
use hotgen::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// §3.1 / FKP: alpha below 1/sqrt(2) yields a star.
#[test]
fn claim_fkp_small_alpha_star() {
    let config = FkpConfig {
        n: 500,
        alpha: 0.5,
        ..FkpConfig::default()
    };
    let topo = fkp::grow(&config, &mut StdRng::seed_from_u64(1));
    assert_eq!(fkp::classify(&topo), fkp::TopologyClass::Star);
}

/// §3.1 / FKP: intermediate alpha yields heavy-tailed hubs; huge alpha
/// yields a light-tailed distance tree.
#[test]
fn claim_fkp_regime_transition() {
    let hubs = fkp::grow(
        &FkpConfig {
            n: 3000,
            alpha: 8.0,
            ..FkpConfig::default()
        },
        &mut StdRng::seed_from_u64(2),
    );
    let distance = fkp::grow(
        &FkpConfig {
            n: 3000,
            alpha: 3000.0,
            ..FkpConfig::default()
        },
        &mut StdRng::seed_from_u64(2),
    );
    let hub_max = hubs.degree_sequence().into_iter().max().unwrap();
    let dist_max = distance.degree_sequence().into_iter().max().unwrap();
    assert!(
        hub_max > 10 * dist_max,
        "hub {} vs distance {}",
        hub_max,
        dist_max
    );
    assert_eq!(
        classify(&distance.degree_sequence()).class,
        TailClass::Exponential
    );
}

/// §4.2, the headline: MMP buy-at-bulk with the realistic catalog yields
/// trees with exponential degree distributions.
#[test]
fn claim_buyatbulk_exponential_trees() {
    let cost = LinkCost::cables_only(CableCatalog::realistic_2003());
    let mut pooled = Vec::new();
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = Instance::random_uniform(300, 15.0, cost.clone(), &mut rng);
        let solution = mmp::solve(&instance, &mut rng);
        assert!(is_tree(&solution.to_graph(&instance)));
        pooled.extend(solution.degree_sequence());
    }
    assert_eq!(classify(&pooled).class, TailClass::Exponential);
}

/// §3.1 / HOT-PLR: the optimized design minimizes expected loss AND has
/// the heaviest loss tail.
#[test]
fn claim_plr_optimization_creates_heavy_tails() {
    let base = PlrConfig {
        n_cells: 100,
        density: SparkDensity::Exponential { rate: 20.0 },
        design: Design::HotOptimal,
        resolution: 50_000,
    };
    let hot = plr::solve(&base);
    let uniform = plr::solve(&PlrConfig {
        design: Design::UniformGrid,
        ..base
    });
    assert!(hot.expected_loss() < uniform.expected_loss());
    // Tail heaviness via max/median cell loss.
    let spread = |s: &hotgen::core::plr::PlrSolution| {
        let mut lens: Vec<f64> = (0..s.n_cells()).map(|i| s.cell_loss(i)).collect();
        lens.sort_by(|a, b| a.partial_cmp(b).unwrap());
        lens[lens.len() - 1] / lens[lens.len() / 2]
    };
    assert!(spread(&hot) > 5.0 * spread(&uniform));
}

/// §4 footnote 7: a redundancy requirement breaks the tree structure.
#[test]
fn claim_redundancy_breaks_tree() {
    use hotgen::core::isp::backbone::{design, BackboneConfig};
    let mut rng = StdRng::seed_from_u64(3);
    let pops: Vec<Point> = (0..10)
        .map(|_| BoundingBox::unit().sample_uniform(&mut rng))
        .collect();
    let tree = design(
        &pops,
        |_, _| 1.0,
        &BackboneConfig {
            redundancy: false,
            shortcut_pairs: 0,
        },
    );
    let mesh = design(
        &pops,
        |_, _| 1.0,
        &BackboneConfig {
            redundancy: true,
            shortcut_pairs: 0,
        },
    );
    assert_eq!(tree.edges.len(), 9); // spanning tree
    assert!(mesh.edges.len() > 9); // tree is gone
}

/// §3.2: AS degrees heavy-tailed while router degrees are capped, from
/// one generated economy.
#[test]
fn claim_as_vs_router_degree_laws() {
    let census = Census::synthesize(15, &mut StdRng::seed_from_u64(4));
    let traffic = TrafficMatrix::gravity(&census);
    let config = InternetConfig {
        n_isps: 25,
        max_pops: 8,
        customers_per_pop: 6,
        ..InternetConfig::default()
    };
    let net = generate_internet(&census, &traffic, &config, &mut StdRng::seed_from_u64(5));
    let as_max = *net.as_degrees().iter().max().unwrap();
    // Tier-1 providers accumulate many AS neighbors...
    assert!(as_max >= 8, "max AS degree {}", as_max);
    // ...while no router anywhere exceeds the line-card cap.
    let router_max = net
        .combined_router_graph()
        .degree_sequence()
        .into_iter()
        .max()
        .unwrap();
    assert!((router_max as usize) <= net.router_degree_cap);
}

/// §3.1 robust-yet-fragile: optimized hub trees survive random failure
/// far better than targeted attack.
#[test]
fn claim_robust_yet_fragile() {
    use hotgen::graph::csr::CsrGraph;
    use hotgen::metrics::robustness::{degradation_curve, robustness_score, RemovalPolicy};
    let topo = fkp::grow(
        &FkpConfig {
            n: 800,
            alpha: 10.0,
            ..FkpConfig::default()
        },
        &mut StdRng::seed_from_u64(6),
    );
    let g = CsrGraph::from_graph(&topo.to_graph());
    let fractions = [0.02, 0.05, 0.1];
    let random = degradation_curve(
        &g,
        RemovalPolicy::RandomFailure,
        &fractions,
        &mut StdRng::seed_from_u64(7),
        1,
    );
    let attack = degradation_curve(
        &g,
        RemovalPolicy::DegreeAttack,
        &fractions,
        &mut StdRng::seed_from_u64(7),
        1,
    );
    assert!(robustness_score(&random) > 5.0 * robustness_score(&attack));
}

/// E10, robust yet fragile, via the parallel CSR sweep: on a seeded HOT
/// hub tree, removing the top 5% of nodes by degree shatters the giant
/// component while removing a random 5% barely dents it.
#[test]
fn claim_e10_attack_giant_well_below_random() {
    use hotgen::graph::csr::CsrGraph;
    use hotgen::graph::parallel::default_threads;
    use hotgen::metrics::robustness::{degradation_curve, RemovalPolicy};
    let topo = fkp::grow(
        &FkpConfig {
            n: 1000,
            alpha: 10.0,
            ..FkpConfig::default()
        },
        &mut StdRng::seed_from_u64(10),
    );
    let g = CsrGraph::from_graph(&topo.to_graph());
    let threads = default_threads();
    let random = degradation_curve(
        &g,
        RemovalPolicy::RandomFailure,
        &[0.05],
        &mut StdRng::seed_from_u64(11),
        threads,
    );
    let attack = degradation_curve(
        &g,
        RemovalPolicy::DegreeAttack,
        &[0.05],
        &mut StdRng::seed_from_u64(11),
        threads,
    );
    // Robust: random failure keeps most of the tree connected.
    assert!(
        random[0].giant_fraction > 0.6,
        "random 5% failure left giant {}",
        random[0].giant_fraction
    );
    // Fragile: attacking the optimization-built hubs is catastrophic —
    // "well below" pinned at a 4x gap.
    assert!(
        attack[0].giant_fraction < random[0].giant_fraction / 4.0,
        "attack giant {} vs random giant {}",
        attack[0].giant_fraction,
        random[0].giant_fraction
    );
}

/// E1 via the scenario registry: the full star → heavy-tailed hub tree →
/// exponential distance tree transition, asserted on the typed regime
/// rows the `e1` scenario itself computes.
#[test]
fn claim_e1_regime_transition_via_scenario_structs() {
    use hot_exp::scenarios::e1;
    use hotgen::core::fkp::TopologyClass;
    let p = e1::Params {
        n: 800,
        alphas: vec![0.5, 6.0, 800.0],
        seeds_per_alpha: 1,
    };
    let rows = e1::regime_rows(&p, 8);
    assert_eq!(rows.len(), 3);
    // alpha < 1/sqrt(2): everything attaches to the root.
    assert_eq!(rows[0].class, TopologyClass::Star);
    assert!(
        rows[0].root_share > 0.95,
        "root share {}",
        rows[0].root_share
    );
    // Intermediate alpha: hubs at many scales, heavy-tailed degrees.
    assert_eq!(rows[1].class, TopologyClass::HubTree);
    assert_eq!(rows[1].tail, TailClass::PowerLaw);
    // alpha = Omega(sqrt(n)) (here alpha = n): distance-dominated,
    // bounded degrees with an exponential tail.
    assert_eq!(rows[2].class, TopologyClass::DistanceTree);
    assert_eq!(rows[2].tail, TailClass::Exponential);
    // The hub regime's maximum degree dwarfs the distance regime's.
    assert!(
        rows[1].max_deg > 10 * rows[2].max_deg,
        "hub {} vs distance {}",
        rows[1].max_deg,
        rows[2].max_deg
    );
}

/// E5 via the scenario registry: the PLR loss CCDF of the HOT-optimal
/// design is classified as a power-law tail (straight log-log line over
/// the sampled range) while still minimizing expected loss; the generic
/// designs have far lighter tails.
#[test]
fn claim_e5_plr_powerlaw_tail_via_scenario_structs() {
    use hot_exp::scenarios::e5;
    let p = e5::Params {
        n_cells: 100,
        resolution: 50_000,
        samples: 20_000,
        ccdf_steps: 20,
    };
    let curves = e5::design_curves(&p, 42);
    let hot = &curves[0];
    let uniform = &curves[1];
    assert_eq!(hot.name, "hot-optimal");
    assert_eq!(uniform.name, "uniform-grid");
    // The optimized design wins on the objective...
    assert!(hot.expected_loss < uniform.expected_loss);
    // ...and its loss CCDF is power-law: a straight line on log-log
    // axes (high r²) with a genuine slope, spanning the sampled range.
    let (slope, r2) = hot.loglog_fit.expect("hot-optimal CCDF has a log-log fit");
    assert!(r2 > 0.9, "log-log r² {}", r2);
    assert!(slope > 0.1, "log-log slope {}", slope);
    // Generic placement has a far lighter tail.
    assert!(
        hot.tail_ratio > 5.0 * uniform.tail_ratio,
        "hot p99/median {} vs uniform {}",
        hot.tail_ratio,
        uniform.tail_ratio
    );
}

/// E15 via the scenario registry, the E12 routing-load claim made
/// quantitative: routing ≥ 1M gravity OD flows, the designed ISP
/// carries its peak link load on a provisioned core (backbone/metro)
/// link and concentrates load onto the core well beyond the core's
/// share of links, while the degree-based generators concentrate the
/// same demand class on the links around their few top-degree hubs —
/// far more than the design does.
#[test]
fn claim_e15_core_vs_hub_load_concentration() {
    use hot_exp::scenarios::e15;
    let p = e15::Params::golden();
    let rows = e15::traffic_rows(
        &p,
        &hot_exp::RunCtx {
            scale: hot_exp::Scale::Golden,
            seed: hot_exp::SEED,
            threads: hotgen::graph::parallel::default_threads(),
            snapshot_dir: None,
        },
    );
    let row = |topology: &str, model: &str| {
        rows.iter()
            .find(|r| r.topology == topology && r.model == model)
            .unwrap_or_else(|| panic!("row {}/{} missing", topology, model))
    };
    let isp = row("isp(designed)", "gravity");
    let glp = row("glp", "gravity");
    let ba = row("ba(m=2)", "gravity");
    // The golden preset really is a millions-of-flows workload.
    assert!(
        glp.routed_flows >= 1_000_000,
        "glp routed {} flows",
        glp.routed_flows
    );
    assert!(rows.iter().map(|r| r.routed_flows).sum::<u64>() >= 4_000_000);
    // HOT side: the single most-loaded link is a designed trunk, and
    // the core's load share is well above its link share.
    assert_eq!(isp.peak_on_core, Some(true));
    let core_share = isp.core_load_share.expect("isp rows classify core links");
    let core_links = isp
        .core_link_fraction
        .expect("isp rows classify core links");
    assert!(
        core_share > 1.5 * core_links,
        "core load {} vs core links {}",
        core_share,
        core_links
    );
    // Degree side: the hub neighborhood soaks up the majority of load...
    assert!(
        glp.hub_load_share > 0.5,
        "glp hub share {}",
        glp.hub_load_share
    );
    assert!(glp.hub_link_fraction < 0.4);
    // ...far beyond what the capped-degree design routes through *its*
    // top-degree routers.
    assert!(
        glp.hub_load_share > 2.0 * isp.hub_load_share,
        "glp hub {} vs isp hub {}",
        glp.hub_load_share,
        isp.hub_load_share
    );
    assert!(
        ba.hub_load_share > 2.0 * isp.hub_load_share,
        "ba hub {} vs isp hub {}",
        ba.hub_load_share,
        isp.hub_load_share
    );
}

/// §1: two generators matched on the degree-tail class still differ on
/// other metrics (the critique of descriptive modeling).
#[test]
fn claim_matched_tail_unmatched_structure() {
    use hotgen::baselines::ba;
    let fkp_graph = fkp::grow(
        &FkpConfig {
            n: 800,
            alpha: 10.0,
            ..FkpConfig::default()
        },
        &mut StdRng::seed_from_u64(8),
    )
    .to_graph();
    let ba_graph = ba::generate(800, 2, &mut StdRng::seed_from_u64(9));
    let a = MetricReport::compute("fkp", &fkp_graph);
    let b = MetricReport::compute("ba", &ba_graph);
    // Both heavy-tailed...
    assert_eq!(a.tail, TailClass::PowerLaw);
    assert_eq!(b.tail, TailClass::PowerLaw);
    // ...yet structurally far apart: BA (m=2) has cycles and expands
    // faster; the FKP tree concentrates load far more.
    assert!(b.resilience > 2.0 * a.resilience);
    assert!(b.expansion3 > 1.2 * a.expansion3);
}

/// E17 / §2.3: valley-free export has a measurable cost on every
/// generated topology (policy inflation exceeds zero), and the cost is a
/// generator fingerprint — the economics-built internet routes
/// near-shortest where the BA-style degree hierarchy inflates heavily
/// and even loses reachability.
#[test]
fn claim_e17_policy_inflation_differs_by_generator() {
    use hot_exp::scenarios::e17;
    let p = e17::Params::golden();
    let rows = e17::policy_rows(
        &p,
        hot_exp::SEED,
        hotgen::graph::parallel::default_threads(),
    );
    let row = |topology: &str| {
        rows.iter()
            .find(|r| r.topology == topology)
            .unwrap_or_else(|| panic!("row {} missing", topology))
    };
    let hot = &row("hot(internet)").summary;
    let glp = &row("glp").summary;
    let ba = &row("ba(m=2)").summary;
    // Policy inflation exceeds zero on every topology: some pair pays
    // extra hops for valley-freedom (exact integer counters, no
    // tolerance needed).
    for (name, s) in [("hot", hot), ("glp", glp), ("ba", ba)] {
        assert!(
            s.sum_policy_hops > s.sum_shortest_hops,
            "{}: policy {} vs shortest {} hops",
            name,
            s.sum_policy_hops,
            s.sum_shortest_hops
        );
        assert!(s.inflated_fraction() > 0.0, "{} has no inflated pair", name);
    }
    // ...and the magnitude separates the generators: the designed
    // internet stays near-shortest (about 1% of pairs inflated), while
    // the BA degree hierarchy inflates an order of magnitude more
    // and denies reachability the raw graph allows.
    assert!(
        hot.inflated_fraction() < 0.05,
        "hot inflated {}",
        hot.inflated_fraction()
    );
    assert!(
        ba.inflated_fraction() > 10.0 * hot.inflated_fraction(),
        "ba {} vs hot {}",
        ba.inflated_fraction(),
        hot.inflated_fraction()
    );
    assert!(
        ba.inflated_fraction() > 10.0 * glp.inflated_fraction(),
        "ba {} vs glp {}",
        ba.inflated_fraction(),
        glp.inflated_fraction()
    );
    assert_eq!(hot.policy_reachability(), 1.0, "hot loses reachability");
    assert!(
        ba.policy_reachability() < 1.0,
        "ba keeps full reachability ({})",
        ba.policy_reachability()
    );
    // The classification is economics-grounded on the HOT side: the
    // tier-1 clique the generator wired is exactly what the labels find.
    let hot_row = row("hot(internet)");
    assert_eq!(hot_row.class_counts[0], p.tier1_count);
}

/// E18 / §3: "robust yet fragile", capacitated edition. The designed
/// ISP provisions cable tiers against its anticipated busy-hour
/// envelope, so a rank-biased flash crowd lands inside the engineering
/// margin and no link overloads; the degree-grown topologies spend a
/// comparable capital budget proportional to degree and their hub
/// trunks cascade. Amplification (surge peak utilization over baseline
/// peak) must rank HOT strictly below the BA hub topology — the
/// acceptance criterion for the capacitated subsystem.
#[test]
fn claim_e18_hot_degrades_gracefully_vs_hub_cascade() {
    use hot_exp::scenarios::e18;
    let p = e18::Params::golden();
    let ctx = hot_exp::RunCtx {
        scale: hot_exp::Scale::Golden,
        seed: hot_exp::SEED,
        threads: hotgen::graph::parallel::default_threads(),
        snapshot_dir: None,
    };
    let rows = e18::cascade_rows(&p, &ctx);
    let row = |topology: &str| {
        rows.iter()
            .find(|r| r.topology == topology)
            .unwrap_or_else(|| panic!("row {} missing", topology))
    };
    let hot = row("isp(designed)");
    let glp = row("glp");
    let ba = row("ba(m=2)");
    // The headline ordering: the designed network amplifies the surge
    // strictly less than the hub topology (and the GLP middle ground
    // sits between them at golden scale).
    assert!(
        hot.amplification < ba.amplification,
        "hot {} vs ba {}",
        hot.amplification,
        ba.amplification
    );
    assert!(
        hot.amplification < glp.amplification && glp.amplification < ba.amplification,
        "hot {} / glp {} / ba {}",
        hot.amplification,
        glp.amplification,
        ba.amplification
    );
    // Graceful degradation is absolute, not just relative: the ISP's
    // envelope provisioning absorbs the flash crowd outright — zero
    // failed links, zero stranded traffic, every TE trajectory intact.
    assert_eq!(hot.failed_links, 0, "hot fails {} links", hot.failed_links);
    assert_eq!(hot.stranded_fraction, 0.0);
    assert_eq!(hot.baseline.overloaded_links, 0);
    // The hub topology collapses: most of its links fail, most of the
    // offered traffic is stranded, and the surviving capital is a
    // fraction of what it provisioned — even though its total capacity
    // budget is no smaller than the ISP's.
    assert!(
        ba.failed_link_share > 0.5,
        "ba failed share {}",
        ba.failed_link_share
    );
    assert!(
        ba.stranded_fraction > 0.5,
        "ba stranded {}",
        ba.stranded_fraction
    );
    assert!(
        hot.surviving_capacity_share > ba.surviving_capacity_share,
        "surviving capital: hot {} vs ba {}",
        hot.surviving_capacity_share,
        ba.surviving_capacity_share
    );
    assert!(
        ba.total_capacity >= hot.total_capacity,
        "the comparison is not capital-starved: ba {} vs hot {}",
        ba.total_capacity,
        hot.total_capacity
    );
    // Both cascades reach their fixed points.
    assert!(hot.cascade_converged && glp.cascade_converged && ba.cascade_converged);
}

/// E19 / §1, §3.2: a million-probe campaign against known truths. The
/// tree-like HOT internet is essentially fully observable from a
/// handful of vantages, while the degree-driven meshes hide redundant
/// links at every campaign size — and the maps they yield flatten the
/// degree tail and overstate load hierarchy. This is the acceptance
/// criterion for the batched probe pipeline.
#[test]
fn claim_e19_probes_see_trees_but_meshes_hide_redundancy() {
    use hot_exp::scenarios::e19;
    let p = e19::Params::golden();
    let ctx = hot_exp::RunCtx {
        scale: hot_exp::Scale::Golden,
        seed: hot_exp::SEED,
        threads: hotgen::graph::parallel::default_threads(),
        snapshot_dir: None,
    };
    let rows = e19::probe_rows(&p, &ctx);
    // Campaign scale: even the golden preset fires over a million
    // probes, and every one completes (the truths are connected).
    let sent: u64 = rows.iter().map(|r| r.stats.probes_sent).sum();
    let completed: u64 = rows.iter().map(|r| r.stats.probes_completed).sum();
    assert!(sent >= 1_000_000, "only {} probes fired", sent);
    assert_eq!(sent, completed, "probes lost on connected truths");
    let row = |topology: &str, k: usize| {
        rows.iter()
            .find(|r| r.topology == topology && r.vantage_count == k)
            .unwrap_or_else(|| panic!("row ({}, {}) missing", topology, k))
    };
    // One vantage already separates the designs: the HOT access trees
    // put ~90% of links on that single forwarding tree, the meshes
    // expose only their own tree's worth of edges.
    assert!(row("hot(internet)", 1).bias.edge_coverage > 0.85);
    assert!(row("glp", 1).bias.edge_coverage < 0.5);
    assert!(row("ba", 1).bias.edge_coverage < 0.5);
    // Sixteen vantages finish the HOT map outright; the meshes still
    // hide links, report a flattened mean degree, and concentrate the
    // observed betweenness harder than the truth.
    let hot = row("hot(internet)", 16);
    assert_eq!(hot.bias.node_coverage, 1.0);
    assert_eq!(hot.bias.edge_coverage, 1.0);
    for name in ["glp", "ba"] {
        let r = row(name, 16);
        assert!(
            r.bias.edge_coverage < 0.95,
            "{} edge coverage {}",
            name,
            r.bias.edge_coverage
        );
        assert!(
            r.bias.observed_degree.mean < r.bias.true_degree.mean,
            "{}: observed mean {} vs true {}",
            name,
            r.bias.observed_degree.mean,
            r.bias.true_degree.mean
        );
        assert!(
            r.bias.observed_betweenness.gini > r.bias.true_betweenness.gini,
            "{}: observed gini {} vs true {}",
            name,
            r.bias.observed_betweenness.gini,
            r.bias.true_betweenness.gini
        );
        assert!(
            r.bias.observed_betweenness.top_decile_share > r.bias.true_betweenness.top_decile_share,
            "{} top-decile share",
            name
        );
    }
    // The flattened tail is visible threshold by threshold: at sixteen
    // vantages the GLP observed CCDF never exceeds the truth and sits
    // strictly below it somewhere.
    let glp = row("glp", 16);
    assert!(glp
        .bias
        .degree_ccdf
        .iter()
        .all(|pt| pt.observed_ccdf <= pt.true_ccdf));
    assert!(glp
        .bias
        .degree_ccdf
        .iter()
        .any(|pt| pt.observed_ccdf < pt.true_ccdf));
    // And the plateau is real: even the largest GLP campaign (256
    // vantages, half a million probes) never recovers the full truth.
    assert!(row("glp", 256).bias.edge_coverage < 1.0);
    // Coverage is monotone in the vantage sweep on every topology.
    for topology in ["hot(internet)", "glp", "ba"] {
        let covs: Vec<f64> = rows
            .iter()
            .filter(|r| r.topology == topology)
            .map(|r| r.bias.edge_coverage)
            .collect();
        assert!(
            covs.windows(2).all(|w| w[0] <= w[1]),
            "{} coverage not monotone: {:?}",
            topology,
            covs
        );
    }
}

/// §5 / E20 extension: HOT *stays* HOT under growth. Evolving the
/// constrained design for 24 epochs of compounding demand and falling
/// transport costs leaves its signatures flat — the load-concentration
/// (betweenness Gini) trajectory drifts a fraction of the controls',
/// and the maximum degree stays pinned near the line-card cap — while
/// the preferential BA/GLP controls deepen their hubs monotonically
/// under the *same* arrival schedule.
#[test]
fn claim_e20_hot_stays_hot_under_growth() {
    use hot_exp::scenarios::e20;
    let p = e20::Params::golden();
    let ctx = hot_exp::RunCtx {
        scale: hot_exp::Scale::Golden,
        seed: hot_exp::SEED,
        threads: hotgen::graph::parallel::default_threads(),
        snapshot_dir: None,
    };
    let rows = e20::temporal_rows(&p, &ctx);
    let row = |model: &str| {
        rows.iter()
            .find(|r| r.model == model)
            .unwrap_or_else(|| panic!("model {} missing", model))
    };
    let (hot, glp, ba) = (row("hot"), row("glp"), row("ba"));
    // Every evolution stays a single connected internet throughout.
    for r in &rows {
        assert_eq!(r.final_components, 1, "{} fragmented", r.model);
        assert!(
            r.trajectory.rows.len() as u64 == p.epochs + 1,
            "{} missed epochs",
            r.model
        );
    }
    // The HOT economics actually fired: ISP entry and trunk
    // reinforcement added backbone links along the way.
    assert!(hot.reopt_links > 0, "no re-optimization ever triggered");
    // Load concentration: HOT's Gini trajectory stays flat (drift well
    // under half), each control's climbs past it by more than 2x.
    let hot_drift = hot.trajectory.gini_drift();
    assert!(hot_drift < 0.45, "hot gini drifted {}", hot_drift);
    for ctl in [glp, ba] {
        let drift = ctl.trajectory.gini_drift();
        assert!(drift > 0.6, "{} gini drift only {}", ctl.model, drift);
        assert!(
            drift > 2.0 * hot_drift,
            "{} drift {} not >> hot {}",
            ctl.model,
            drift,
            hot_drift
        );
    }
    // Degree boundedness: the HOT maximum stays pinned near the access
    // cap (trunks and peering add a handful on top), so its growth
    // ratio stays single-digit; the controls' hubs compound past 10x.
    let hot_max = hot.trajectory.rows.last().expect("rows").max_degree;
    assert!(
        hot_max <= 2 * p.hot_degree_cap,
        "hot max degree {} blew past the cap {}",
        hot_max,
        p.hot_degree_cap
    );
    assert!(hot.trajectory.max_degree_ratio() < 8.0);
    for ctl in [glp, ba] {
        assert!(
            ctl.trajectory.max_degree_ratio() > 10.0,
            "{} hub ratio only {}",
            ctl.model,
            ctl.trajectory.max_degree_ratio()
        );
    }
    // And flatness is sustained, not a lucky endpoint: over the whole
    // second half of the run HOT's Gini moves within a narrow band.
    // (Absolute levels are not comparable across models — a HOT access
    // tree concentrates all transit on few core routers by design; the
    // *trajectory* is what separates the mechanisms.)
    let mid = (p.epochs / 2) as usize;
    let late: Vec<f64> = hot.trajectory.rows[mid..]
        .iter()
        .map(|r| r.load.gini)
        .collect();
    let band = late.iter().cloned().fold(f64::MIN, f64::max)
        - late.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        band < 0.05,
        "hot late-run gini wandered over a {} band: {:?}",
        band,
        late
    );
}
