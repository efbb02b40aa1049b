//! Helpers shared by the integration test binaries: the source-band
//! demand wrapper of the traffic suites, and the `Graph` shortest-path
//! and traceroute references the CSR kernels are checked against. Each
//! binary uses only part of this module.
#![allow(dead_code)]

pub mod shortest_path;
pub mod traceroute;

use hotgen::sim::demand::OdDemand;

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
