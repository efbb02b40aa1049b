//! Customer demand models for access design.
//!
//! §4's access problem connects "spatially distributed customers" with
//! individual traffic needs to core nodes. Demands are heterogeneous in
//! practice (residential DSL-class vs enterprise trunk-class); we model
//! them with a bounded Pareto so a few customers dominate — the same
//! high-variability regularity HOT predicts for demand itself.

use rand::Rng;

/// One customer's demand (traffic units to be carried to the core).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CustomerDemand(pub f64);

impl CustomerDemand {
    /// The demand value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

/// Bounded Pareto demand on `[min, max]` with tail exponent `alpha`
/// (α ≈ 1.2 gives realistic high variability).
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    pub min: f64,
    pub max: f64,
    pub alpha: f64,
}

impl BoundedPareto {
    /// Draws one demand.
    pub fn sample(&self, rng: &mut impl Rng) -> CustomerDemand {
        let BoundedPareto { min, max, alpha } = *self;
        assert!(
            min > 0.0 && max > min && alpha > 0.0,
            "invalid bounded Pareto"
        );
        // Inverse-CDF sampling of the bounded Pareto.
        let u: f64 = rng.random_range(0.0..1.0);
        let la = min.powf(alpha);
        let ha = max.powf(alpha);
        let x = (-(u * (ha - la) - ha) / (ha * la)).powf(-1.0 / alpha);
        CustomerDemand(x.clamp(min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pareto_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = BoundedPareto {
            min: 1.0,
            max: 100.0,
            alpha: 1.2,
        };
        for _ in 0..5000 {
            let d = m.sample(&mut rng);
            assert!(d.value() >= 1.0 && d.value() <= 100.0);
        }
    }

    #[test]
    fn pareto_is_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = BoundedPareto {
            min: 1.0,
            max: 1000.0,
            alpha: 1.2,
        };
        let mut values: Vec<f64> = (0..20_000).map(|_| m.sample(&mut rng).value()).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = values[values.len() / 2];
        // Heavy tail: mean well above median.
        assert!(mean > 2.0 * median, "mean {} median {}", mean, median);
    }

    #[test]
    #[should_panic(expected = "invalid bounded Pareto")]
    fn bad_pareto_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        BoundedPareto {
            min: 5.0,
            max: 1.0,
            alpha: 1.0,
        }
        .sample(&mut rng);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = BoundedPareto {
            min: 1.0,
            max: 10.0,
            alpha: 1.5,
        };
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| m.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
    }
}
