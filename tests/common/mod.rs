//! Helpers shared by the integration test binaries: the source-band
//! demand wrapper of the traffic suites, jittered demand masses, and
//! the slow references the
//! library engines are checked against — the `Graph` BFS family and the
//! classic CSR BFS (`traversal`), the `Graph` shortest paths
//! (`shortest_path`), the per-vantage traceroute (`traceroute`), the
//! per-flow traffic and cascade engines (`per_flow`), the two-pass
//! ECMP engine (`ecmp`) and the quadratic FKP growth scan (`fkp_scan`).
//! Each binary uses only part of this module.
#![allow(dead_code, reason = "each test binary uses only part of this module")]

pub mod ecmp;
pub mod fkp_scan;
pub mod per_flow;
pub mod shortest_path;
pub mod traceroute;
pub mod traversal;

use hotgen::sim::demand::OdDemand;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `mass` with each entry scaled by `1 + amp · u`, `u ~ U(-1, 1)` drawn
/// from `seed` in order: irregular non-integer masses for
/// `DemandMatrix::from_masses`.
pub fn jittered(mass: impl IntoIterator<Item = f64>, amp: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    mass.into_iter()
        .map(|m| m * (1.0 + amp * rng.random_range(-1.0..1.0)))
        .collect()
}

/// Restricts any demand to sources below `max_src` (all destinations):
/// the source-band workload the traffic suites route, small enough for
/// debug builds while the paths still traverse the full topology.
pub struct Banded<D> {
    pub inner: D,
    pub max_src: usize,
}

impl<D: OdDemand> OdDemand for Banded<D> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn demand(&self, src: usize, dst: usize) -> f64 {
        if src < self.max_src {
            self.inner.demand(src, dst)
        } else {
            0.0
        }
    }
}
