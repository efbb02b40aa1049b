//! Golden-snapshot suite for the scenario engine.
//!
//! Every registered scenario runs at `Scale::Golden` with the canonical
//! seed and its full structured JSON output is diffed against the
//! checked-in snapshot in `tests/golden/<id>.json`. Any behavioral
//! change to an experiment — intended or not — shows up as a diff here.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test exp_golden
//! git diff tests/golden/   # review what actually changed
//! ```

use hot_exp::registry::{self, RunCtx, Scale};
use hot_exp::report::ExpStatus;
use hot_exp::SEED;
use std::path::PathBuf;

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.json", id))
}

fn ctx(threads: usize) -> RunCtx {
    RunCtx {
        scale: Scale::Golden,
        seed: SEED,
        threads,
        snapshot_dir: None,
    }
}

/// Runs one scenario at golden scale and compares (or, with
/// `UPDATE_GOLDEN=1`, rewrites) its snapshot.
fn check(id: &str) {
    let spec = registry::find(id).expect("scenario is registered");
    let report = (spec.run)(ctx(hotgen::graph::parallel::default_threads()));
    assert_eq!(report.scenario, id, "report id must match the registry id");
    assert_eq!(
        report.status,
        ExpStatus::Ok,
        "golden-scale parameters must not be degenerate for {}",
        id
    );
    let json = report.to_json().pretty();
    let path = golden_path(id);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &json).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden snapshot {}; regenerate with UPDATE_GOLDEN=1 \
             cargo test --test exp_golden",
            path.display()
        )
    });
    if expected != json {
        // Point at the first differing line so the failure is readable
        // without a 500-line assert_eq dump.
        let line = expected
            .lines()
            .zip(json.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| expected.lines().count().min(json.lines().count()) + 1);
        panic!(
            "{} diverged from its golden snapshot at line {} \
             (UPDATE_GOLDEN=1 cargo test --test exp_golden to accept):\n\
             expected: {}\n\
             actual:   {}",
            id,
            line,
            expected.lines().nth(line - 1).unwrap_or("<eof>"),
            json.lines().nth(line - 1).unwrap_or("<eof>"),
        );
    }
}

macro_rules! golden {
    ($($name:ident => $id:literal),+ $(,)?) => {
        $(#[test]
        fn $name() {
            check($id);
        })+
    };
}

golden! {
    golden_e1_fkp_regimes => "e1",
    golden_e2_fkp_ccdf => "e2",
    golden_e3_buyatbulk_degree => "e3",
    golden_e4_buyatbulk_cost => "e4",
    golden_e5_plr_powerlaw => "e5",
    golden_e6_generator_matrix => "e6",
    golden_e7_national_isp => "e7",
    golden_e8_as_vs_router => "e8",
    golden_e9_ablations => "e9",
    golden_e10_robustness => "e10",
    golden_e11_level2_ring => "e11",
    golden_e12_routing_load => "e12",
    golden_e13_policy_inflation => "e13",
    golden_e14_traceroute_bias => "e14",
    golden_e15_traffic_load => "e15",
    golden_e16_traffic_failure => "e16",
    golden_e17_policy_routing => "e17",
    golden_e18_te_cascade => "e18",
    golden_e19_probe_bias => "e19",
    golden_e20_temporal_growth => "e20",
}

/// The registry and the golden directory must stay in one-to-one
/// correspondence: a scenario added without a snapshot (or a stale
/// snapshot left behind) fails here.
#[test]
fn golden_directory_matches_registry() {
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        return; // files may legitimately be mid-regeneration
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/golden exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".json"))
        .map(|n| n.trim_end_matches(".json").to_string())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = registry::registry()
        .iter()
        .map(|s| s.id.to_string())
        .collect();
    expected.sort();
    assert_eq!(on_disk, expected);
}

/// Thread count must never leak into the structured output. The full
/// sweep is exercised in CI (`expctl --all --threads 1` vs `8` diffed
/// byte-for-byte); here the scenarios that use the parallel kernels —
/// including E6's metric battery (one job per generator row), the
/// batched traffic engine behind E15/E16, the batched valley-free
/// propagation behind E13 and E17, the capacitated TE/cascade loops
/// behind E18, and the batched probe pipeline behind E19 — run at 1 and
/// 4 workers.
#[test]
fn thread_count_does_not_change_reports() {
    for id in [
        "e1", "e6", "e10", "e12", "e13", "e15", "e16", "e17", "e18", "e19",
    ] {
        let spec = registry::find(id).expect("registered");
        let serial = (spec.run)(ctx(1)).to_json().pretty();
        let parallel = (spec.run)(ctx(4)).to_json().pretty();
        assert_eq!(serial, parallel, "{} output depends on thread count", id);
    }
}

/// Scenarios do no file I/O. E15 and E18, which once cached their
/// designed ISP as a binary snapshot under `RunCtx::snapshot_dir`, emit
/// their golden bytes with that directory set and never create it.
#[test]
fn snapshot_dir_is_never_touched() {
    let dir = std::env::temp_dir().join(format!("hotsnap-unused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for id in ["e15", "e18"] {
        let spec = registry::find(id).expect("registered");
        let report = (spec.run)(RunCtx {
            snapshot_dir: Some(dir.clone()),
            ..ctx(2)
        });
        let golden = std::fs::read_to_string(golden_path(id)).expect("golden file");
        assert_eq!(
            report.to_json().pretty(),
            golden,
            "{} left its golden bytes",
            id
        );
        assert!(!dir.exists(), "{} wrote into {}", id, dir.display());
    }
}

/// Degenerate parameters skip instead of panicking, and the skip is
/// visible in the structured output.
#[test]
fn degenerate_params_skip_cleanly() {
    use hot_exp::scenarios::{e1, e12, e13, e15, e16, e17, e18, e2, e20, e5, e9};
    let report = e15::run(
        &e15::Params {
            glp_n: 3,
            ..e15::Params::golden()
        },
        ctx(1),
    );
    assert!(matches!(report.status, ExpStatus::Skipped { .. }));
    // More POPs than cities (or zero POPs) must skip, not trip the ISP
    // generator's asserts.
    let report = e15::run(
        &e15::Params {
            n_pops: 0,
            ..e15::Params::golden()
        },
        ctx(1),
    );
    assert!(matches!(report.status, ExpStatus::Skipped { .. }));
    let report = e16::run(
        &e16::Params {
            total_customers: 0,
            ..e16::Params::golden()
        },
        ctx(1),
    );
    assert!(matches!(report.status, ExpStatus::Skipped { .. }));
    let report = e16::run(
        &e16::Params {
            cities: 3,
            ..e16::Params::golden() // golden fail_pops = 6 > 3 cities
        },
        ctx(1),
    );
    assert!(matches!(report.status, ExpStatus::Skipped { .. }));
    // A traffic total that is not positive and finite routes nothing or
    // poisons every load, so both traffic scenarios skip with the field
    // named.
    for total in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
        let reports = [
            e15::run(
                &e15::Params {
                    total_traffic: total,
                    ..e15::Params::golden()
                },
                ctx(1),
            ),
            e16::run(
                &e16::Params {
                    total_traffic: total,
                    ..e16::Params::golden()
                },
                ctx(1),
            ),
        ];
        for report in reports {
            match &report.status {
                ExpStatus::Skipped { reason } => {
                    assert!(reason.contains("total_traffic"), "{}", reason)
                }
                other => panic!("{} with total {}: {:?}", report.scenario, total, other),
            }
        }
    }
    // POP counts the geography cannot host (none, or more than the
    // golden presets' cities) must skip E12, E13 and E17 before the ISP
    // generator asserts.
    let mut reports = Vec::new();
    for pops in [0, 100] {
        let mut p12 = e12::Params::golden();
        p12.fail_pops = pops;
        reports.push(e12::run(&p12, ctx(1)));
        let mut p13 = e13::Params::golden();
        p13.max_pops = pops;
        reports.push(e13::run(&p13, ctx(1)));
        let mut p17 = e17::Params::golden();
        p17.max_pops = pops;
        reports.push(e17::run(&p17, ctx(1)));
    }
    let mut p12 = e12::Params::golden();
    p12.n_pops = 100;
    reports.push(e12::run(&p12, ctx(1)));
    for report in reports {
        match &report.status {
            ExpStatus::Skipped { reason } => assert!(reason.contains("pops"), "{}", reason),
            other => panic!("{}: expected skip, got {:?}", report.scenario, other),
        }
    }
    let report = e1::run(
        &e1::Params {
            n: 1,
            alphas: vec![1.0],
            seeds_per_alpha: 1,
        },
        ctx(1),
    );
    match &report.status {
        ExpStatus::Skipped { reason } => assert!(reason.contains("n = 1"), "{}", reason),
        other => panic!("expected skip, got {:?}", other),
    }
    let json = report.to_json().pretty();
    assert!(json.contains("\"status\": \"skipped\""));
    let report = e5::run(
        &e5::Params {
            n_cells: 0,
            resolution: 0,
            samples: 0,
            ccdf_steps: 5,
        },
        ctx(1),
    );
    assert!(matches!(report.status, ExpStatus::Skipped { .. }));
    // Fewer ISPs than the tier-1 clique must skip, not panic inside the
    // internet generator.
    let report = e17::run(
        &e17::Params {
            n_isps: 1,
            ..e17::Params::golden()
        },
        ctx(1),
    );
    assert!(matches!(report.status, ExpStatus::Skipped { .. }));
    // Headroom and threshold values the provisioning and cascade
    // asserts reject, and traffic totals or surge shapes that would
    // route nothing, poison the loads or drop the surge, must skip the
    // capacitated scenario with the field named.
    let with = |corrupt: fn(&mut e18::Params)| {
        let mut p = e18::Params {
            glp_n: 60,
            ba_n: 60,
            ..e18::Params::golden()
        };
        corrupt(&mut p);
        p
    };
    let cases = [
        ("headroom", with(|p| p.headroom = 0.5)),
        ("headroom", with(|p| p.headroom = f64::NAN)),
        ("headroom", with(|p| p.headroom = f64::INFINITY)),
        ("cascade_threshold", with(|p| p.cascade_threshold = 0.0)),
        (
            "cascade_threshold",
            with(|p| p.cascade_threshold = f64::NAN),
        ),
        ("total_traffic", with(|p| p.total_traffic = 0.0)),
        ("total_traffic", with(|p| p.total_traffic = -1.0)),
        ("total_traffic", with(|p| p.total_traffic = f64::NAN)),
        ("total_traffic", with(|p| p.total_traffic = f64::INFINITY)),
        ("surge_traffic", with(|p| p.surge_traffic = -1.0)),
        ("surge_traffic", with(|p| p.surge_traffic = f64::NAN)),
        ("surge_traffic", with(|p| p.surge_traffic = f64::INFINITY)),
        ("surge_exponent", with(|p| p.surge_exponent = f64::NAN)),
        ("surge_exponent", with(|p| p.surge_exponent = f64::INFINITY)),
    ];
    for (field, p) in cases {
        match &e18::run(&p, ctx(1)).status {
            ExpStatus::Skipped { reason } => assert!(reason.contains(field), "{}", reason),
            other => panic!("e18 with a bad {}: {:?}", field, other),
        }
    }
    // The smaller controls themselves run.
    assert_eq!(e18::run(&with(|_| {}), ctx(1)).status, ExpStatus::Ok);
    // FKP trade-off weights that `fkp::grow` rejects must skip E1, E2
    // and E9 before any tree is grown.
    for alpha in [f64::NAN, -1.0, f64::INFINITY] {
        let reports = [
            e1::run(
                &e1::Params {
                    alphas: vec![1.0, alpha],
                    ..e1::Params::golden()
                },
                ctx(1),
            ),
            e2::run(
                &e2::Params {
                    series: vec![(alpha, "hostile".into())],
                    ..e2::Params::golden()
                },
                ctx(1),
            ),
            e9::run(
                &e9::Params {
                    fkp_alphas: vec![alpha],
                    ..e9::Params::golden()
                },
                ctx(1),
            ),
        ];
        for report in reports {
            match &report.status {
                ExpStatus::Skipped { reason } => {
                    assert!(reason.contains("alpha"), "{}: {}", report.scenario, reason)
                }
                other => panic!("{} with alpha {}: {:?}", report.scenario, alpha, other),
            }
        }
    }
    // E20: a degree cap below 2, a zero pivot stride, and trends that
    // `TechTrend::new` rejects must skip before any network is grown.
    let with = |corrupt: fn(&mut e20::Params)| {
        let mut p = e20::Params::golden();
        corrupt(&mut p);
        p
    };
    let cases = [
        ("hot_degree_cap", with(|p| p.hot_degree_cap = 1)),
        ("hot_degree_cap", with(|p| p.hot_degree_cap = 0)),
        ("pivot_stride", with(|p| p.pivot_stride = 0)),
        ("cost_decline", with(|p| p.cost_decline = 0.0)),
        ("cost_decline", with(|p| p.cost_decline = 1.5)),
        ("cost_decline", with(|p| p.cost_decline = f64::NAN)),
        ("demand_growth", with(|p| p.demand_growth = 0.5)),
        ("demand_growth", with(|p| p.demand_growth = f64::NAN)),
        ("demand_growth", with(|p| p.demand_growth = f64::INFINITY)),
    ];
    for (field, p) in cases {
        match &e20::run(&p, ctx(1)).status {
            ExpStatus::Skipped { reason } => assert!(reason.contains(field), "{}", reason),
            other => panic!("e20 with a bad {}: {:?}", field, other),
        }
    }
}

/// The full E20 golden report is byte-identical at 1 and 8 threads
/// (the engine is serial; the analytics run on the fixed-chunk
/// scheduler).
#[test]
fn e20_report_is_byte_identical_across_thread_counts() {
    use hot_exp::scenarios::e20;
    let run = |threads| {
        let ctx = RunCtx {
            scale: Scale::Golden,
            seed: hot_exp::SEED,
            threads,
            snapshot_dir: None,
        };
        e20::run(&e20::Params::golden(), ctx).to_json().pretty()
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(one, eight, "E20 must not depend on thread count");
    assert!(
        one.contains("\"epochs\": 24"),
        "golden preset runs 24 epochs"
    );
}
