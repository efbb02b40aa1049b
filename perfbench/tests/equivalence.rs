//! The traced replays reproduce their scenario's own outputs, so the
//! per-layer numbers describe the work `wall_s` times. Golden-sized
//! parameters keep this to seconds.

use hot_exp::scenarios::{e18, e19, e6, e9};
use hot_exp::SEED;
use perfbench::replay;
use perfbench::trace::Tracer;

const THREADS: usize = 2;

#[test]
fn te_cascade_replay_matches_cascade_rows() {
    let p = e18::Params::golden();
    let mut tr = Tracer::default();
    let cases = replay::e18::build(&p, SEED, THREADS, &mut tr);
    let traced = replay::e18::analyze(&p, &cases, THREADS, &mut tr);
    let own = e18::cascade_rows(&p, &perfbench::ctx(SEED, THREADS));
    assert_eq!(format!("{traced:?}"), format!("{own:?}"));
    // Three topologies; traffic routes each once to provision and once
    // for the baseline.
    assert_eq!(tr.busy["hot_sim.te"].calls, 3);
    assert_eq!(tr.busy["hot_sim.cascade"].calls, 3);
    assert_eq!(tr.busy["hot_sim.traffic"].calls, 6);
}

#[test]
fn probe_bias_replay_matches_probe_rows() {
    let p = e19::Params {
        glp_n: 512,
        ba_n: 512,
        ..e19::Params::golden()
    };
    let mut tr = Tracer::default();
    let truths = replay::e19::build(&p, SEED, &mut tr);
    let traced = replay::e19::analyze(&truths, THREADS, &mut tr);
    let own = e19::probe_rows(&p, &perfbench::ctx(SEED, THREADS));
    assert_eq!(format!("{traced:?}"), format!("{own:?}"));
    assert_eq!(tr.busy["hot_metrics.bias"].calls, 12);
}

#[test]
fn generator_matrix_replay_matches_generator_reports() {
    let p = e6::Params::golden();
    let mut tr = Tracer::default();
    let graphs = replay::e6::build(&p, SEED, &mut tr);
    let traced = replay::e6::analyze(&graphs, &mut tr);
    let own = e6::generator_reports(&p, SEED);
    assert_eq!(traced.len(), own.len());
    for (t, o) in traced.iter().zip(&own) {
        assert_eq!(t.key_values(), o.key_values(), "{}", o.name);
    }
}

#[test]
fn ablations_replay_matches_report_tables() {
    let p = e9::Params::golden();
    let mut tr = Tracer::default();
    let inputs = replay::e9::build(&p, SEED, &mut tr);
    let traced = replay::e9::analyze(&p, &inputs, &mut tr);
    let report = e9::run(&p, perfbench::ctx(SEED, THREADS));
    let own: Vec<_> = report
        .sections
        .iter()
        .map(|s| s.tables[0].rows.clone())
        .collect();
    assert_eq!(traced.to_vec(), own);
    assert_eq!(tr.busy["hot_core.buyatbulk.greedy"].calls, 2 * p.bab_seeds);
}
