//! Planar points and distance metrics.
//!
//! Distances are in abstract "map units"; the economics crate attaches
//! $/unit-length costs, so only ratios matter. Euclidean distance is the
//! default (fiber routes approximately straight lines); Manhattan distance
//! models street-grid metro conduit.

/// A point in the plane.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance (cheaper for nearest-neighbor compares).
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Manhattan (L1) distance, modeling street-grid conduit routing.
    pub fn manhattan_dist(&self, other: &Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Midpoint between `self` and `other`.
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

/// Distance metric selector used by generators that support both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Metric {
    /// Straight-line distance (long-haul fiber).
    #[default]
    Euclidean,
    /// L1 distance (street-grid metro conduit).
    Manhattan,
}

impl Metric {
    /// Distance between two points under this metric.
    pub fn dist(&self, a: &Point, b: &Point) -> f64 {
        match self {
            Metric::Euclidean => a.dist(b),
            Metric::Manhattan => a.manhattan_dist(b),
        }
    }
}

/// Index of the point in `points` nearest to `target` (ties to the lowest
/// index). `None` for an empty slice.
pub fn nearest_index(points: &[Point], target: &Point) -> Option<usize> {
    points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.dist_sq(target)
                .partial_cmp(&b.dist_sq(target))
                .expect("NaN coordinate")
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
        assert!((a.dist_sq(&b) - 25.0).abs() < 1e-12);
        assert!((a.manhattan_dist(&b) - 7.0).abs() < 1e-12);
        assert!((Metric::Euclidean.dist(&a, &b) - 5.0).abs() < 1e-12);
        assert!((Metric::Manhattan.dist(&a, &b) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn midpoint_and_lerp() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.midpoint(&b), Point::new(1.0, 2.0));
    }

    #[test]
    fn nearest_picks_closest_with_tie_to_lowest() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(-2.0, 0.0),
        ];
        assert_eq!(nearest_index(&pts, &Point::new(1.8, 0.0)), Some(1));
        // Equidistant between index 1 and 2 -> lowest index among minima.
        assert_eq!(nearest_index(&pts, &Point::new(0.0, 5.0)), Some(0));
        assert_eq!(nearest_index(&[], &Point::new(0.0, 0.0)), None);
    }

    proptest! {
        /// Euclidean distance satisfies the triangle inequality and symmetry.
        #[test]
        fn triangle_inequality(
            ax in -100.0f64..100.0, ay in -100.0f64..100.0,
            bx in -100.0f64..100.0, by in -100.0f64..100.0,
            cx in -100.0f64..100.0, cy in -100.0f64..100.0,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-9);
            prop_assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-12);
            prop_assert!(a.dist(&b) >= 0.0);
            // Manhattan dominates Euclidean.
            prop_assert!(a.manhattan_dist(&b) + 1e-12 >= a.dist(&b));
        }
    }
}
