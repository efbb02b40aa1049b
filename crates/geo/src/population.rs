//! Synthetic population centers — the demand geography.
//!
//! The paper grounds demand in "population centers dispersed over a
//! geographic region" (§2.2) and notes that ignoring economic realities
//! like "most customers reside in the big cities" yields topologies too
//! generic to be useful. Real census data is proprietary-adjacent and
//! unnecessary here (the paper itself uses fictitious-but-realistic
//! parameters); instead we synthesize censuses with the two robust
//! empirical regularities that matter to network design:
//!
//! 1. **Zipf's law for city sizes** — the r-th largest city has population
//!    ∝ 1/r^s with s ≈ 1 (Auerbach/Zipf), so demand is dominated by a few
//!    metros;
//! 2. **Spatial clustering** — customers cluster around metro cores rather
//!    than spreading uniformly.

use crate::bbox::BoundingBox;
use crate::point::Point;
use rand::Rng;

/// A population center.
#[derive(Clone, Debug, PartialEq)]
pub struct City {
    /// Location in the plane.
    pub location: Point,
    /// Population (arbitrary persons unit; only ratios matter downstream).
    pub population: f64,
    /// Zipf rank (1 = largest).
    pub rank: usize,
}

/// A synthetic census: a set of cities inside a region.
#[derive(Clone, Debug)]
pub struct Census {
    /// Cities in rank order (largest first).
    pub cities: Vec<City>,
    /// The region containing every city.
    pub region: BoundingBox,
}

/// Population of the rank-1 city.
const MAX_POPULATION: f64 = 8_000_000.0;
/// Zipf exponent `s` of city sizes (≈ 1.0 empirically).
const ZIPF_EXPONENT: f64 = 1.0;
/// Region the cities are placed in.
const REGION: BoundingBox = BoundingBox::square(1000.0);
/// Metro seeds the cities cluster around.
const METRO_CENTERS: usize = 8;
/// Standard deviation of a city's Gaussian displacement from its metro
/// seed, in region units.
const METRO_SPREAD: f64 = 60.0;

impl Census {
    /// Synthesizes a census of `n_cities` cities using `rng`: Zipf sizes
    /// (the rank-r city has population 8·10⁶ / r) placed in a
    /// 1000 × 1000 square. Eight metro seeds are placed uniformly; every
    /// city is attached to a random seed and displaced by a Gaussian of
    /// standard deviation 60, which models coastal/corridor clustering.
    ///
    /// # Panics
    ///
    /// Panics if `n_cities == 0`.
    pub fn synthesize(n_cities: usize, rng: &mut impl Rng) -> Self {
        assert!(n_cities > 0, "census needs at least one city");
        let seeds: Vec<Point> = (0..METRO_CENTERS)
            .map(|_| REGION.sample_uniform(rng))
            .collect();
        let cities = (0..n_cities)
            .map(|i| {
                let seed = seeds[rng.random_range(0..METRO_CENTERS)];
                // Box–Muller Gaussian displacement.
                let (g1, g2) = gaussian_pair(rng);
                let location = REGION.clamp(Point::new(
                    seed.x + g1 * METRO_SPREAD,
                    seed.y + g2 * METRO_SPREAD,
                ));
                let rank = i + 1;
                City {
                    location,
                    population: MAX_POPULATION / (rank as f64).powf(ZIPF_EXPONENT),
                    rank,
                }
            })
            .collect();
        Census {
            cities,
            region: REGION,
        }
    }

    /// City locations in rank order.
    pub fn locations(&self) -> Vec<Point> {
        self.cities.iter().map(|c| c.location).collect()
    }

    /// The `k` largest cities (by rank).
    pub fn top(&self, k: usize) -> &[City] {
        &self.cities[..k.min(self.cities.len())]
    }
}

/// One pair of independent standard Gaussians via Box–Muller.
fn gaussian_pair(rng: &mut impl Rng) -> (f64, f64) {
    // Avoid ln(0).
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_populations_decay() {
        let mut rng = StdRng::seed_from_u64(1);
        let census = Census::synthesize(50, &mut rng);
        assert_eq!(census.cities.len(), 50);
        for w in census.cities.windows(2) {
            assert!(w[0].population >= w[1].population);
        }
        // Rank-1 over rank-10 ratio should be 10 for s=1.
        let ratio = census.cities[0].population / census.cities[9].population;
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cities_inside_region() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2 {
            let census = Census::synthesize(50, &mut rng);
            for c in &census.cities {
                assert!(census.region.contains(&c.location));
            }
        }
    }

    #[test]
    fn clustered_is_tighter_than_uniform() {
        // Average nearest-neighbor distance is smaller than for as many
        // points drawn uniformly over the same region.
        let mut rng = StdRng::seed_from_u64(3);
        let census = Census::synthesize(50, &mut rng);
        let uniform: Vec<Point> = (0..50)
            .map(|_| census.region.sample_uniform(&mut rng))
            .collect();
        let mean_nn = |pts: &[Point]| {
            let mut total = 0.0;
            for (i, p) in pts.iter().enumerate() {
                let d = pts
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, q)| p.dist(q))
                    .fold(f64::INFINITY, f64::min);
                total += d;
            }
            total / pts.len() as f64
        };
        assert!(mean_nn(&census.locations()) < mean_nn(&uniform));
    }

    #[test]
    fn deterministic_given_seed() {
        let c1 = Census::synthesize(100, &mut StdRng::seed_from_u64(9));
        let c2 = Census::synthesize(100, &mut StdRng::seed_from_u64(9));
        assert_eq!(c1.cities, c2.cities);
    }

    #[test]
    fn top_and_total() {
        let mut rng = StdRng::seed_from_u64(4);
        let census = Census::synthesize(50, &mut rng);
        assert_eq!(census.top(5).len(), 5);
        assert_eq!(census.top(500).len(), 50);
        let total: f64 = census.cities.iter().map(|c| c.population).sum();
        assert!(total > census.cities[0].population);
    }

    #[test]
    #[should_panic(expected = "at least one city")]
    fn zero_cities_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        Census::synthesize(0, &mut rng);
    }
}
