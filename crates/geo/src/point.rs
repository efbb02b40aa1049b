//! Planar points and Euclidean distance.
//!
//! Distances are in abstract "map units"; the economics crate attaches
//! $/unit-length costs, so only ratios matter. Distance is Euclidean:
//! fiber routes approximately straight lines.

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
        }
    }
}
