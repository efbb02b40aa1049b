//! FKP growth by the quadratic scan: every arrival evaluates
//! `α · dist + h` at each earlier node in ascending id order and keeps
//! the first strict minimum. `fkp::grow` answers the same argmin on a
//! bucket-grid index; this is the reference it must match bit for bit.

use hotgen::core::fkp::{Centrality, FkpConfig};
use hotgen::geo::bbox::BoundingBox;
use hotgen::geo::point::Point;
use rand::Rng;

/// Positions and parent ids of the tree the scan grows: the root (id 0,
/// its own parent in the returned list) at the unit square's center,
/// then one `sample_uniform` draw per arrival, each attached on arrival.
pub fn grow(config: &FkpConfig, rng: &mut impl Rng) -> (Vec<Point>, Vec<u32>) {
    let region = BoundingBox::unit();
    let mut points = vec![region.center()];
    let mut parents = vec![0u32];
    let mut centrality = vec![0.0f64];
    for _ in 1..config.n {
        let p = region.sample_uniform(rng);
        let mut best_j = 0usize;
        let mut best_val = f64::INFINITY;
        for (j, q) in points.iter().enumerate() {
            let val = config.alpha * p.dist(q)
                + if config.centrality == Centrality::None {
                    0.0
                } else {
                    centrality[j]
                };
            if val < best_val {
                best_val = val;
                best_j = j;
            }
        }
        let h = match config.centrality {
            Centrality::HopsToRoot => centrality[best_j] + 1.0,
            Centrality::TreeDistToRoot => centrality[best_j] + p.dist(&points[best_j]),
            Centrality::None => 0.0,
        };
        centrality.push(h);
        parents.push(best_j as u32);
        points.push(p);
    }
    (points, parents)
}
