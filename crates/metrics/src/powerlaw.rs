//! Power-law fits for degree data, in the two standard views:
//!
//! - **CCDF fit**: least squares on `log k` vs `log P[D ≥ k]`; for a pure
//!   power law `P[D ≥ k] ∝ k^{−(γ−1)}`, so the returned `exponent` is
//!   `γ − 1` (Faloutsos et al.'s "degree exponent" view);
//! - **rank fit**: least squares on `log rank` vs `log degree` — the
//!   "rank exponent" power law of Faloutsos et al. (SIGCOMM'99).
//!
//! Every fit also reports `r_squared` so callers (and the power-vs-
//! exponential classifier in [`crate::expfit`]) can judge fit quality.

/// A fitted line on transformed axes.
#[derive(Clone, Copy, Debug)]
pub struct Fit {
    /// Magnitude of the fitted slope (exponent).
    pub exponent: f64,
    /// Intercept on the transformed axes.
    pub intercept: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
    /// Number of points fitted.
    pub points: usize,
}

/// Ordinary least squares on `(x, y)` pairs. Returns `None` for fewer than
/// 2 distinct points or degenerate variance.
pub fn least_squares(points: &[(f64, f64)]) -> Option<Fit> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / nf;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / nf;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let syy: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy <= 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(Fit {
        exponent: slope.abs(),
        intercept,
        r_squared,
        points: n,
    })
}

/// CCDF power-law fit of a degree sample. Zero degrees are excluded
/// (log-scale). Returns `None` when fewer than 2 distinct degrees exist.
pub fn fit_ccdf(sample: &[u32]) -> Option<Fit> {
    let ccdf = hot_graph::degree::ccdf_of(sample);
    let pts: Vec<(f64, f64)> = ccdf
        .into_iter()
        .filter(|&(k, p)| k > 0 && p > 0.0)
        .map(|(k, p)| ((k as f64).ln(), p.ln()))
        .collect();
    least_squares(&pts)
}

/// Rank power-law fit: `log degree` against `log rank` (descending
/// degrees, 1-based ranks). Zero degrees excluded.
pub fn fit_rank(sample: &[u32]) -> Option<Fit> {
    let mut degs: Vec<u32> = sample.iter().copied().filter(|&d| d > 0).collect();
    degs.sort_unstable_by(|a, b| b.cmp(a));
    let pts: Vec<(f64, f64)> = degs
        .iter()
        .enumerate()
        .map(|(i, &d)| (((i + 1) as f64).ln(), (d as f64).ln()))
        .collect();
    least_squares(&pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Draws from a discrete power law P(k) ∝ k^-gamma on [1, 10_000].
    fn power_law_sample(gamma: f64, n: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Inverse transform for continuous Pareto, rounded.
                let u: f64 = rng.random_range(0.0f64..1.0);
                let x = (1.0 - u).powf(-1.0 / (gamma - 1.0));
                (x.round() as u32).clamp(1, 10_000)
            })
            .collect()
    }

    #[test]
    fn least_squares_exact_line() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 - 2.0 * i as f64)).collect();
        let fit = least_squares(&pts).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9);
        assert!((fit.intercept - 3.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_degenerate() {
        assert!(least_squares(&[]).is_none());
        assert!(least_squares(&[(1.0, 1.0)]).is_none());
        assert!(least_squares(&[(1.0, 1.0), (1.0, 2.0)]).is_none()); // zero x-variance
    }

    #[test]
    fn ccdf_fit_recovers_exponent() {
        // gamma = 2.5 -> CCDF slope = 1.5.
        let sample = power_law_sample(2.5, 50_000, 1);
        let fit = fit_ccdf(&sample).unwrap();
        assert!(
            (fit.exponent - 1.5).abs() < 0.25,
            "CCDF exponent {} (expected ~1.5)",
            fit.exponent
        );
        assert!(fit.r_squared > 0.95, "r² {}", fit.r_squared);
    }

    #[test]
    fn rank_fit_on_power_law_has_good_r2() {
        let sample = power_law_sample(2.2, 5_000, 3);
        let fit = fit_rank(&sample).unwrap();
        assert!(fit.r_squared > 0.9, "rank fit r² {}", fit.r_squared);
    }

    #[test]
    fn exponential_degrees_fit_power_law_poorly() {
        // Geometric sample: CCDF is exponential in k, not a power law.
        let mut rng = StdRng::seed_from_u64(4);
        let sample: Vec<u32> = (0..50_000)
            .map(|_| {
                let mut k = 1;
                while rng.random_range(0.0..1.0) < 0.6 {
                    k += 1;
                }
                k
            })
            .collect();
        let fit = fit_ccdf(&sample).unwrap();
        // Power-law fits of exponential data leave visible curvature.
        assert!(
            fit.r_squared < 0.97,
            "r² {} suspiciously high",
            fit.r_squared
        );
    }

    #[test]
    fn fits_none_on_constant_sample() {
        let sample = vec![3u32; 100];
        assert!(fit_ccdf(&sample).is_none());
    }
}
