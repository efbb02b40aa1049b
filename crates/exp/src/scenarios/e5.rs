//! E5 — Carlson–Doyle PLR: power laws from optimization (paper §3.1).
//!
//! Claim: in the probability-loss-resource model, the *optimized* design
//! produces heavy-tailed (power-law) event sizes while generic designs
//! produce light tails — and the optimized design still has lower
//! expected loss. Power laws as the signature of design, not criticality.

use crate::jsonout::Json;
use crate::registry::RunCtx;
use crate::report::{ExpReport, Section, Table};
use hot_core::plr::{solve, solve_with_rng, Design, PlrConfig, SparkDensity};
use hot_metrics::powerlaw::least_squares;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
pub struct Params {
    /// Grid cells in the PLR instance.
    pub n_cells: usize,
    /// Numerical resolution of the design optimization.
    pub resolution: usize,
    /// Monte-Carlo loss samples per design.
    pub samples: usize,
    /// Log-spaced CCDF thresholds.
    pub ccdf_steps: usize,
}

impl Params {
    pub fn golden() -> Params {
        Params {
            n_cells: 50,
            resolution: 20_000,
            samples: 5_000,
            ccdf_steps: 15,
        }
    }

    pub fn full() -> Params {
        Params {
            n_cells: 200,
            resolution: 200_000,
            samples: 100_000,
            ccdf_steps: 25,
        }
    }
}

/// Continuous CCDF at logarithmically spaced thresholds.
fn ccdf(losses: &[f64], steps: usize) -> Vec<(f64, f64)> {
    if losses.is_empty() || steps == 0 {
        return Vec::new();
    }
    let mut sorted = losses.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = sorted.len() as f64;
    let min = sorted.first().copied().unwrap_or(0.0).max(1e-9);
    let max = sorted.last().copied().unwrap_or(1.0);
    let mut out = Vec::new();
    for i in 0..=steps {
        let x = min * (max / min).powf(i as f64 / steps as f64);
        let above = sorted.partition_point(|&v| v < x);
        out.push((x, (n - above as f64) / n));
    }
    out
}

/// Least-squares fit of `ln P = -slope · ln x + c` over the positive
/// CCDF points, through [`least_squares`]. Returns `(slope magnitude,
/// r²)`, or `None` with fewer than 3 usable points — a straight log-log
/// line (high r²) is the power-law signature the claims tests assert on.
pub fn fit_loglog(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, p)| x > 0.0 && p > 0.0)
        .map(|&(x, p)| (x.ln(), p.ln()))
        .collect();
    if pts.len() < 3 {
        return None;
    }
    least_squares(&pts).map(|fit| (fit.exponent, fit.r_squared))
}

/// One design's loss statistics, in typed form for the claims tests.
#[derive(Clone, Debug)]
pub struct DesignCurve {
    pub name: &'static str,
    /// The objective being optimized.
    pub expected_loss: f64,
    /// p99 / median sampled loss — a cheap tail-heaviness probe.
    pub tail_ratio: f64,
    /// Log-spaced CCDF of sampled losses.
    pub ccdf: Vec<(f64, f64)>,
    /// `(slope, r²)` of the log-log CCDF fit, when defined.
    pub loglog_fit: Option<(f64, f64)>,
}

/// Builds and samples the three designs (hot-optimal, uniform-grid,
/// random-breaks).
pub fn design_curves(p: &Params, seed: u64) -> Vec<DesignCurve> {
    let base = PlrConfig {
        n_cells: p.n_cells,
        density: SparkDensity::Exponential { rate: 25.0 },
        design: Design::HotOptimal,
        resolution: p.resolution,
    };
    let mut design_rng = StdRng::seed_from_u64(seed);
    let designs = [
        ("hot-optimal", solve(&base)),
        (
            "uniform-grid",
            solve(&PlrConfig {
                design: Design::UniformGrid,
                ..base.clone()
            }),
        ),
        (
            "random-breaks",
            solve_with_rng(
                &PlrConfig {
                    design: Design::RandomBreaks,
                    ..base.clone()
                },
                &mut design_rng,
            ),
        ),
    ];
    let mut sample_rng = StdRng::seed_from_u64(seed + 1);
    designs
        .into_iter()
        .map(|(name, sol)| {
            let losses = sol.sample_losses(p.samples, &mut sample_rng);
            let mut sorted = losses.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let tail_ratio = if sorted.is_empty() {
                0.0
            } else {
                let p99 = sorted[(sorted.len() * 99 / 100).min(sorted.len() - 1)];
                let median = sorted[sorted.len() / 2];
                if median > 0.0 {
                    p99 / median
                } else {
                    0.0
                }
            };
            let curve = ccdf(&losses, p.ccdf_steps);
            let fit = fit_loglog(&curve);
            DesignCurve {
                name,
                expected_loss: sol.expected_loss(),
                tail_ratio,
                ccdf: curve,
                loglog_fit: fit,
            }
        })
        .collect()
}

pub fn run(p: &Params, ctx: RunCtx) -> ExpReport {
    let mut report = ExpReport::new(
        "e5",
        "plr-powerlaw",
        "E5: PLR event-size distributions",
        "HOT-optimal firebreak placement -> power-law loss sizes and \
         minimal expected loss; uniform/random placement -> light tails",
        &ctx,
    );
    report.param("n_cells", p.n_cells);
    report.param("resolution", p.resolution);
    report.param("samples", p.samples);
    if p.n_cells < 2 || p.resolution == 0 || p.samples == 0 {
        return report.into_skipped(format!(
            "degenerate parameters: n_cells = {}, resolution = {}, samples = {}",
            p.n_cells, p.resolution, p.samples
        ));
    }
    let curves = design_curves(p, ctx.seed);
    let mut summary = Table::new(&[
        "design",
        "E[loss]",
        "p99/median",
        "loglog_slope",
        "loglog_r2",
    ]);
    for c in &curves {
        summary.push(vec![
            Json::str(c.name),
            Json::Float(c.expected_loss),
            Json::Float(c.tail_ratio),
            Json::opt_float(c.loglog_fit.map(|f| f.0)),
            Json::opt_float(c.loglog_fit.map(|f| f.1)),
        ]);
    }
    report.section(Section::new("expected loss (the objective being optimized)").table(summary));
    for c in &curves {
        let mut t = Table::new(&["loss", "P[L>=loss]"]);
        for &(x, prob) in &c.ccdf {
            if prob > 0.0 {
                t.push(vec![Json::Float(x), Json::Float(prob)]);
            }
        }
        report.section(Section::new(format!("loss CCDF: {}", c.name)).table(t));
    }
    report.section(Section::new("interpretation").note(
        "on log-log axes the hot-optimal CCDF is a straight line spanning \
         decades of loss sizes; uniform-grid collapses to a point mass; \
         random-breaks decays fast. Optimization produces the power law \
         AND the best expected loss.",
    ));
    report
}
