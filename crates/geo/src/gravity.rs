//! Gravity-model traffic matrices.
//!
//! The standard first-order model of inter-city traffic demand: traffic
//! between cities i and j is proportional to `pop_i · pop_j / dist(i,j)^γ`.
//! This realizes the paper's premise that demand follows population and
//! that "most high-bandwidth pipes are found between big cities" (§2.1) —
//! under gravity demand, the largest flows are exactly metro-to-metro.

use crate::population::Census;

/// A symmetric traffic demand matrix between the cities of a census.
#[derive(Clone, Debug)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major symmetric matrix; diagonal is 0.
    demand: Vec<f64>,
}

/// Distance-decay exponent γ of the gravity model (0 = distance-blind,
/// 2 = classic gravity).
const DISTANCE_EXPONENT: f64 = 1.0;
/// Total traffic the matrix is scaled to (sum over unordered pairs).
const TOTAL_TRAFFIC: f64 = 1_000_000.0;
/// Floor on pairwise distance, in region units, so co-located cities do
/// not divide by zero.
const MIN_DISTANCE: f64 = 1.0;

impl TrafficMatrix {
    /// Builds the gravity traffic matrix for `census`, scaled so the
    /// unordered-pair total is 10⁶.
    pub fn gravity(census: &Census) -> Self {
        let n = census.cities.len();
        let mut demand = vec![0.0; n * n];
        let mut total_raw = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                let ci = &census.cities[i];
                let cj = &census.cities[j];
                let d = ci.location.dist(&cj.location).max(MIN_DISTANCE);
                let raw = ci.population * cj.population / d.powf(DISTANCE_EXPONENT);
                demand[i * n + j] = raw;
                demand[j * n + i] = raw;
                total_raw += raw;
            }
        }
        if total_raw > 0.0 {
            let scale = TOTAL_TRAFFIC / total_raw;
            for x in &mut demand {
                *x *= scale;
            }
        }
        TrafficMatrix { n, demand }
    }

    /// Number of cities.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Demand between cities `i` and `j` (symmetric; 0 on the diagonal).
    pub fn demand(&self, i: usize, j: usize) -> f64 {
        self.demand[i * self.n + j]
    }

    /// Total demand over unordered pairs.
    pub fn total(&self) -> f64 {
        let mut t = 0.0;
        for i in 0..self.n {
            for j in i + 1..self.n {
                t += self.demand(i, j);
            }
        }
        t
    }

    /// Total demand incident to city `i` (its row sum).
    pub fn node_demand(&self, i: usize) -> f64 {
        (0..self.n).map(|j| self.demand(i, j)).sum()
    }

    /// Unordered pairs sorted by descending demand.
    pub fn ranked_pairs(&self) -> Vec<(usize, usize, f64)> {
        let mut pairs = Vec::with_capacity(self.n * (self.n.saturating_sub(1)) / 2);
        for i in 0..self.n {
            for j in i + 1..self.n {
                pairs.push((i, j, self.demand(i, j)));
            }
        }
        pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("NaN demand"));
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BoundingBox;
    use crate::point::Point;
    use crate::population::{Census, City};

    /// A fixture census with controlled sizes/locations.
    fn fixture() -> Census {
        let mk = |x: f64, y: f64, pop: f64, rank: usize| City {
            location: Point::new(x, y),
            population: pop,
            rank,
        };
        Census {
            cities: vec![
                mk(0.0, 0.0, 1000.0, 1),
                mk(10.0, 0.0, 500.0, 2),
                mk(0.0, 40.0, 100.0, 3),
            ],
            region: BoundingBox::square(100.0),
        }
    }

    #[test]
    fn gravity_favors_big_close_pairs() {
        let tm = TrafficMatrix::gravity(&fixture());
        // Pair (0,1): big and close; pair (1,2): small and far.
        assert!(tm.demand(0, 1) > tm.demand(0, 2));
        assert!(tm.demand(0, 2) > tm.demand(1, 2));
        let ranked = tm.ranked_pairs();
        assert_eq!((ranked[0].0, ranked[0].1), (0, 1));
    }

    #[test]
    fn symmetric_zero_diagonal() {
        let tm = TrafficMatrix::gravity(&fixture());
        for i in 0..3 {
            assert_eq!(tm.demand(i, i), 0.0);
            for j in 0..3 {
                assert!((tm.demand(i, j) - tm.demand(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn scales_to_total() {
        let tm = TrafficMatrix::gravity(&fixture());
        assert!((tm.total() - TOTAL_TRAFFIC).abs() < 1e-6);
    }

    #[test]
    fn node_demand_is_row_sum() {
        let tm = TrafficMatrix::gravity(&fixture());
        assert_eq!(tm.len(), 3);
        assert!((tm.node_demand(0) - (tm.demand(0, 1) + tm.demand(0, 2))).abs() < 1e-9);
    }

    #[test]
    fn min_distance_floors_colocated() {
        let mut census = fixture();
        census.cities[1].location = census.cities[0].location; // co-located
        let tm = TrafficMatrix::gravity(&census);
        assert!(tm.demand(0, 1).is_finite());
        assert!(tm.demand(0, 1) > 0.0);
    }

    #[test]
    fn degenerate_sizes() {
        let mut census = fixture();
        census.cities.truncate(1);
        let tm1 = TrafficMatrix::gravity(&census);
        assert_eq!(tm1.len(), 1);
        assert_eq!(tm1.total(), 0.0);
        census.cities.clear();
        let tm = TrafficMatrix::gravity(&census);
        assert!(tm.is_empty());
        assert_eq!(tm.total(), 0.0);
    }
}
