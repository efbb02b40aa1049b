//! Axis-aligned bounding regions: the "geographic region" over which
//! population centers are dispersed.

use crate::point::Point;
use rand::Rng;

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundingBox {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl BoundingBox {
    /// Creates a box; panics if the bounds are inverted.
    pub const fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(min_x <= max_x && min_y <= max_y, "inverted bounding box");
        BoundingBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The unit square `[0,1]²`.
    pub const fn unit() -> Self {
        BoundingBox::new(0.0, 0.0, 1.0, 1.0)
    }

    /// A square of the given side anchored at the origin.
    pub const fn square(side: f64) -> Self {
        BoundingBox::new(0.0, 0.0, side, side)
    }

    /// Width (x extent).
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height (y extent).
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Length of the diagonal — the maximum possible distance inside the
    /// box, used to normalize Waxman-style distance decay.
    pub fn diagonal(&self) -> f64 {
        Point::new(self.min_x, self.min_y).dist(&Point::new(self.max_x, self.max_y))
    }

    /// Whether `p` lies inside (inclusive of edges).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Uniformly random point inside the box.
    pub fn sample_uniform(&self, rng: &mut impl Rng) -> Point {
        Point::new(
            rng.random_range(self.min_x..=self.max_x),
            rng.random_range(self.min_y..=self.max_y),
        )
    }

    /// Clamps `p` into the box.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min_x, self.max_x),
            p.y.clamp(self.min_y, self.max_y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn geometry_accessors() {
        let b = BoundingBox::new(1.0, 2.0, 4.0, 6.0);
        assert_eq!(b.width(), 3.0);
        assert_eq!(b.height(), 4.0);
        assert_eq!(b.center(), Point::new(2.5, 4.0));
        assert!((b.diagonal() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn contains_and_clamp() {
        let b = BoundingBox::unit();
        assert!(b.contains(&Point::new(0.5, 0.5)));
        assert!(b.contains(&Point::new(0.0, 1.0)));
        assert!(!b.contains(&Point::new(1.5, 0.5)));
        assert_eq!(b.clamp(Point::new(2.0, -1.0)), Point::new(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_box_panics() {
        BoundingBox::new(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn sampling_stays_inside() {
        let b = BoundingBox::square(10.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(b.contains(&b.sample_uniform(&mut rng)));
        }
    }
}
