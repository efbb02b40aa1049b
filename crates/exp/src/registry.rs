//! The scenario registry: E1–E20 as uniform, runnable entries.
//!
//! Each entry is a [`ScenarioSpec`] — id, name, one-line summary, and a
//! `fn(RunCtx) -> ExpReport` that resolves the scale to that scenario's
//! parameter struct and runs it. A sweep runs the entries one at a
//! time, each with every worker thread for its own kernels; every report
//! stays a pure function of `(params, seed)`.

use crate::report::ExpReport;
use crate::scenarios;

/// How big a run should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small fixed sizes: seconds per scenario, used by the
    /// golden-snapshot suite and CI smoke runs.
    Golden,
    /// Paper-sized tables, what `expctl` runs by default.
    Full,
}

impl Scale {
    /// The label recorded in reports and accepted by `expctl --scale`.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Golden => "golden",
            Scale::Full => "full",
        }
    }

    /// Parses an `expctl --scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "golden" => Some(Scale::Golden),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Everything a scenario run needs besides its parameters.
#[derive(Clone, Debug)]
pub struct RunCtx {
    pub scale: Scale,
    /// Base seed; scenarios derive all their RNG streams from it.
    pub seed: u64,
    /// Worker threads for the deterministic parallel kernels. Never
    /// affects results, only wall-clock.
    pub threads: usize,
    /// Unused: no scenario reads or writes files, whatever this holds.
    /// The field remains only because the benchmark package
    /// (`perfbench/src/lib.rs`, `ctx()`) names it in a struct literal;
    /// it goes in the next change to that package.
    pub snapshot_dir: Option<std::path::PathBuf>,
}

/// One registered scenario.
pub struct ScenarioSpec {
    /// Registry id (`"e1"` … `"e20"`), the `--run` argument.
    pub id: &'static str,
    /// Short machine name (`"fkp-regimes"`).
    pub name: &'static str,
    /// One-line summary for `expctl --list`.
    pub summary: &'static str,
    /// Runs the scenario at the context's scale.
    pub run: fn(RunCtx) -> ExpReport,
}

macro_rules! spec {
    ($id:literal, $module:ident, $name:literal, $summary:literal) => {
        ScenarioSpec {
            id: $id,
            name: $name,
            summary: $summary,
            run: |ctx| {
                let params = match ctx.scale {
                    Scale::Golden => scenarios::$module::Params::golden(),
                    Scale::Full => scenarios::$module::Params::full(),
                };
                scenarios::$module::run(&params, ctx)
            },
        }
    };
}

static REGISTRY: [ScenarioSpec; 20] = [
    spec!(
        "e1",
        e1,
        "fkp-regimes",
        "FKP trade-off regimes: star -> hub trees -> distance trees as alpha grows"
    ),
    spec!(
        "e2",
        e2,
        "fkp-ccdf",
        "FKP degree CCDFs: power-law vs exponential by trade-off weight"
    ),
    spec!(
        "e3",
        e3,
        "buyatbulk-degree",
        "MMP buy-at-bulk designs are trees with exponential degree distributions"
    ),
    spec!(
        "e4",
        e4,
        "buyatbulk-cost",
        "buy-at-bulk solution quality vs exact optimum and classic baselines"
    ),
    spec!(
        "e5",
        e5,
        "plr-powerlaw",
        "PLR: optimized designs produce power-law loss tails at minimal expected loss"
    ),
    spec!(
        "e6",
        e6,
        "generator-matrix",
        "generator x metric matrix: degree-matched graphs diverge on other metrics"
    ),
    spec!(
        "e7",
        e7,
        "national-isp",
        "national ISP pipeline: hierarchy, degree caps, cost vs profit formulations"
    ),
    spec!(
        "e8",
        e8,
        "as-vs-router",
        "AS degrees heavy-tailed, router degrees capped, from one generated economy"
    ),
    spec!(
        "e9",
        e9,
        "ablations",
        "ablations: economies of scale, redundancy breaks trees, centrality proxies"
    ),
    spec!(
        "e10",
        e10,
        "robustness",
        "robust yet fragile: random failure vs degree-targeted attack"
    ),
    spec!(
        "e11",
        e11,
        "level2-ring",
        "Level-2 ablation: buy-at-bulk tree vs SONET ring from identical demand"
    ),
    spec!(
        "e12",
        e12,
        "routing-load",
        "routing load on designed vs degree-matched topologies; failure response"
    ),
    spec!(
        "e13",
        e13,
        "policy-inflation",
        "valley-free BGP: policy inflates paths on the generated AS graph"
    ),
    spec!(
        "e14",
        e14,
        "traceroute-bias",
        "traceroute sampling understates redundancy on meshy ground truths"
    ),
    spec!(
        "e15",
        e15,
        "traffic-load",
        "million-flow gravity demand: HOT loads the core, degree models load the hubs"
    ),
    spec!(
        "e16",
        e16,
        "traffic-failure",
        "link cuts redistribute load: mesh absorbs at bounded peak, tree strands"
    ),
    spec!(
        "e17",
        e17,
        "policy-routing",
        "batched valley-free BGP: path inflation and hierarchy-free paths, HOT vs GLP/BA"
    ),
    spec!(
        "e18",
        e18,
        "te-cascade",
        "capacitated TE and flash-crowd cascades: HOT absorbs the surge, hubs collapse"
    ),
    spec!(
        "e19",
        e19,
        "probe-bias",
        "million-probe campaigns: HOT nearly fully observable, meshes hide redundancy"
    ),
    spec!(
        "e20",
        e20,
        "temporal-growth",
        "temporal internet: HOT signatures stay flat under growth, BA/GLP hubs deepen"
    ),
];

/// All registered scenarios, in E-number order.
pub fn registry() -> &'static [ScenarioSpec] {
    &REGISTRY
}

/// Looks a scenario up by id (`"e7"`) or name (`"national-isp"`).
pub fn find(key: &str) -> Option<&'static ScenarioSpec> {
    REGISTRY.iter().find(|s| s.id == key || s.name == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_twenty_in_order() {
        let ids: Vec<&str> = registry().iter().map(|s| s.id).collect();
        let expected: Vec<String> = (1..=20).map(|i| format!("e{}", i)).collect();
        assert_eq!(ids, expected.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    }

    #[test]
    fn scale_parses_exactly_its_labels() {
        for scale in [Scale::Golden, Scale::Full] {
            assert_eq!(Scale::parse(scale.label()), Some(scale));
        }
        for bad in ["small", "Golden", "", "full "] {
            assert_eq!(Scale::parse(bad), None, "{:?}", bad);
        }
    }

    #[test]
    fn find_by_id_and_name() {
        assert_eq!(find("e10").map(|s| s.name), Some("robustness"));
        assert_eq!(find("robustness").map(|s| s.id), Some("e10"));
        assert_eq!(find("e15").map(|s| s.name), Some("traffic-load"));
        assert_eq!(find("traffic-failure").map(|s| s.id), Some("e16"));
        assert_eq!(find("e17").map(|s| s.name), Some("policy-routing"));
        assert_eq!(find("policy-routing").map(|s| s.id), Some("e17"));
        assert_eq!(find("e18").map(|s| s.name), Some("te-cascade"));
        assert_eq!(find("te-cascade").map(|s| s.id), Some("e18"));
        assert_eq!(find("e19").map(|s| s.name), Some("probe-bias"));
        assert_eq!(find("probe-bias").map(|s| s.id), Some("e19"));
        assert_eq!(find("e20").map(|s| s.name), Some("temporal-growth"));
        assert_eq!(find("temporal-growth").map(|s| s.id), Some("e20"));
        assert!(find("e21").is_none());
    }

    #[test]
    fn names_and_ids_are_unique() {
        let mut keys: Vec<&str> = registry().iter().flat_map(|s| [s.id, s.name]).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }
}
