//! # perfbench — the scenario benchmark
//!
//! Four workloads, each one registry scenario at a benchmark-specific
//! size (see `README.md` for why each was chosen):
//!
//! | workload           | scenario | stresses                                |
//! |--------------------|----------|-----------------------------------------|
//! | `te-cascade`       | E18      | TE re-routing and cascade rounds        |
//! | `probe-bias`       | E19      | exact Brandes betweenness (bias, truth) |
//! | `generator-matrix` | E6       | dense spectral power iteration          |
//! | `ablations`        | E9       | buy-at-bulk local search                |
//!
//! The untraced measurement calls only `hot_exp::scenarios::<eN>::run`
//! and digests the report JSON. The traced replays in [`replay`] redo
//! the same computation through each layer's public entry points with a
//! [`trace::Tracer`] span around every call; the equivalence tests show
//! they reproduce the scenario's own outputs.

pub mod replay;
pub mod trace;

use hot_exp::registry::{RunCtx, Scale};
use hot_exp::scenarios::{e18, e19, e6, e9};
use hot_exp::ExpReport;
use trace::Tracer;

/// Layer names: `<crate>.<module>` of the public entry points a span
/// wraps.
pub mod layers {
    pub const TE: &str = "hot_sim.te";
    pub const CASCADE: &str = "hot_sim.cascade";
    pub const TRAFFIC: &str = "hot_sim.traffic";
    pub const PROBE: &str = "hot_sim.probe";
    pub const HIERARCHY: &str = "hot_metrics.hierarchy";
    pub const BIAS: &str = "hot_metrics.bias";
    pub const SPECTRAL: &str = "hot_metrics.spectral";
    pub const REPORT_REST: &str = "hot_metrics.report_rest";
    pub const GREEDY: &str = "hot_core.buyatbulk.greedy";
    pub const GENERATORS: &str = "hot_core.generators";
    pub const BASELINES: &str = "hot_baselines.generate";
    pub const CSR: &str = "hot_graph.csr";
}

/// The workload seed every published table uses.
pub const CANONICAL_SEED: u64 = hot_exp::SEED;

/// A seed kept out of tuning, so a later claim can be re-checked on
/// inputs it was not written against.
pub const HELD_OUT_SEED: u64 = 20031120;

/// `workload seed digest` lines: the FNV-1a digest of each workload's
/// report JSON (compact form) for every instance seed of the canonical
/// and held-out runs. Identical at every thread count.
const PINNED: &str = include_str!("../pinned.txt");

/// One pinned digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    pub workload: Workload,
    pub seed: u64,
    pub digest: u64,
}

/// Every pinned digest, in file order.
pub fn pins() -> Result<Vec<Pin>, String> {
    PINNED
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(i, line)| {
            let bad = || format!("pinned.txt:{}: expected `workload seed hex-digest`", i + 1);
            let mut f = line.split_whitespace();
            let (Some(w), Some(s), Some(d), None) = (f.next(), f.next(), f.next(), f.next()) else {
                return Err(bad());
            };
            Ok(Pin {
                workload: Workload::parse(w).ok_or_else(bad)?,
                seed: s.parse().map_err(|_| bad())?,
                digest: u64::from_str_radix(d, 16).map_err(|_| bad())?,
            })
        })
        .collect()
}

/// The pinned report digest of `workload` at `seed`, if one is recorded.
pub fn pinned_digest(workload: Workload, seed: u64) -> Result<Option<u64>, String> {
    Ok(pins()?
        .into_iter()
        .find(|p| p.workload == workload && p.seed == seed)
        .map(|p| p.digest))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TeCascade,
    ProbeBias,
    GeneratorMatrix,
    Ablations,
}

pub fn e18_params() -> e18::Params {
    e18::Params {
        glp_n: 300,
        ba_n: 800,
        cities: 20,
        n_pops: 5,
        total_customers: 400,
        ..e18::Params::full()
    }
}

pub fn e19_params() -> e19::Params {
    e19::Params {
        glp_n: 1400,
        ba_n: 1400,
        ..e19::Params::full()
    }
}

pub fn e6_params() -> e6::Params {
    e6::Params {
        n: 120,
        isp_customers: 120,
        transit_stub: (2, 4, 4, 5),
        ..e6::Params::full()
    }
}

pub fn e9_params() -> e9::Params {
    e9::Params {
        bab_n: 60,
        fkp_n: 2000,
        ..e9::Params::full()
    }
}

/// The context every workload runs under: full scale, no snapshot
/// cache.
pub fn ctx(seed: u64, threads: usize) -> RunCtx {
    RunCtx {
        scale: Scale::Full,
        seed,
        threads,
        snapshot_dir: None,
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TeCascade,
        Workload::ProbeBias,
        Workload::GeneratorMatrix,
        Workload::Ablations,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TeCascade => "te-cascade",
            Workload::ProbeBias => "probe-bias",
            Workload::GeneratorMatrix => "generator-matrix",
            Workload::Ablations => "ablations",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario's `Params`, as `Debug` text for the run metadata.
    pub fn params_text(self) -> String {
        match self {
            Workload::TeCascade => format!("{:?}", e18_params()),
            Workload::ProbeBias => format!("{:?}", e19_params()),
            Workload::GeneratorMatrix => format!("{:?}", e6_params()),
            Workload::Ablations => format!("{:?}", e9_params()),
        }
    }

    /// The untraced measurement: the scenario's stable entry point.
    pub fn run_report(self, seed: u64, threads: usize) -> ExpReport {
        let c = ctx(seed, threads);
        match self {
            Workload::TeCascade => e18::run(&e18_params(), c),
            Workload::ProbeBias => e19::run(&e19_params(), c),
            Workload::GeneratorMatrix => e6::run(&e6_params(), c),
            Workload::Ablations => e9::run(&e9_params(), c),
        }
    }

    /// Builds the workload's inputs (topologies, CSR views, demands,
    /// capacities, starting designs) and drops them.
    pub fn setup(self, seed: u64, threads: usize, tr: &mut Tracer) {
        match self {
            Workload::TeCascade => drop(replay::e18::build(&e18_params(), seed, threads, tr)),
            Workload::ProbeBias => drop(replay::e19::build(&e19_params(), seed, tr)),
            Workload::GeneratorMatrix => drop(replay::e6::build(&e6_params(), seed, tr)),
            Workload::Ablations => drop(replay::e9::build(&e9_params(), seed, tr)),
        }
    }

    /// The traced run: inputs and analysis through the layer entry
    /// points. Returns the outputs as `Debug` text, so runs at
    /// different thread counts can be compared bit for bit.
    pub fn traced(self, seed: u64, threads: usize, tr: &mut Tracer) -> String {
        match self {
            Workload::TeCascade => {
                let p = e18_params();
                let cases = replay::e18::build(&p, seed, threads, tr);
                format!("{:?}", replay::e18::analyze(&p, &cases, threads, tr))
            }
            Workload::ProbeBias => {
                let truths = replay::e19::build(&e19_params(), seed, tr);
                format!("{:?}", replay::e19::analyze(&truths, threads, tr))
            }
            Workload::GeneratorMatrix => {
                let graphs = replay::e6::build(&e6_params(), seed, tr);
                format!("{:?}", replay::e6::analyze(&graphs, tr))
            }
            Workload::Ablations => {
                let p = e9_params();
                let inputs = replay::e9::build(&p, seed, tr);
                format!("{:?}", replay::e9::analyze(&p, &inputs, tr))
            }
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The report's JSON (compact) and its digest.
pub fn render(report: &ExpReport) -> (String, u64) {
    let json = report.to_json().compact();
    let digest = fnv1a(json.as_bytes());
    (json, digest)
}
