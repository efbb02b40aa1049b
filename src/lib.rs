//! # hotgen — an optimization-driven framework for designing and
//! generating realistic Internet topologies
//!
//! A full Rust reproduction of Alderson, Doyle, Govindan & Willinger,
//! *"Toward an Optimization-Driven Framework for Designing and Generating
//! Realistic Internet Topologies"* (HotNets-II, 2003).
//!
//! The thesis: realistic topologies should be the *by-product* of solving
//! the economic/technical optimization problems ISPs face — not the
//! target of statistical curve-fitting. This facade crate re-exports the
//! whole workspace:
//!
//! - [`graph`] — annotated graph substrate (`hot-graph`);
//! - [`geo`] — geography: population centers, traffic matrices (`hot-geo`);
//! - [`econ`] — economics: cable catalogs, cost/profit models (`hot-econ`);
//! - [`core`] — the framework: FKP growth, PLR/HOT, buy-at-bulk access
//!   design, the multi-level ISP generator, peering (`hot-core`);
//! - [`baselines`] — the descriptive generators the paper critiques
//!   (`hot-baselines`);
//! - [`metrics`] — the comparison battery (`hot-metrics`);
//! - [`sim`] — protocols on top: demand models, routing load, link
//!   failures, overload cascades, traceroute-style map inference
//!   (`hot-sim`);
//! - [`bgp`] — the policy-routing subsystem: labeled AS topologies and
//!   batched valley-free (Gao–Rexford) path propagation with
//!   path-inflation and hierarchy-free analytics (`hot-bgp`).
//!
//! ## Quickstart
//!
//! ```
//! use hotgen::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // A census of population centers and its gravity traffic matrix...
//! let census = Census::synthesize(100, &mut rng);
//! let traffic = TrafficMatrix::gravity(&census);
//! // ...drive a cost-based national ISP design.
//! let config = IspConfig { n_pops: 6, total_customers: 150, ..IspConfig::default() };
//! let isp = generate_isp(&census, &traffic, &config, &mut rng);
//! assert!(hotgen::graph::traversal::is_connected(&isp.graph));
//! let report = MetricReport::compute("my-isp", &isp.graph);
//! println!("{}", MetricReport::table(std::slice::from_ref(&report)));
//! ```

pub use hot_baselines as baselines;
pub use hot_core as core;
pub use hot_econ as econ;
pub use hot_geo as geo;
pub use hot_graph as graph;
pub use hot_metrics as metrics;
pub use hot_sim as sim;

/// The policy-routing subsystem (`hot-bgp`): labeled AS topologies and
/// batched valley-free (Gao–Rexford) path propagation.
pub mod bgp {
    pub use hot_bgp::*;

    #[cfg(test)]
    mod tests {
        use super::{AsClass, AsTopology, UNREACHED};

        /// 0 and 1 are tier-1 peers; 0 provides 2, 1 provides 3, 2
        /// provides 4. `peered = false` drops the 0–1 peering.
        fn toy(peered: bool) -> AsTopology {
            let peers: &[(u32, u32)] = if peered { &[(0, 1)] } else { &[] };
            AsTopology::from_relationships(
                5,
                &[(0, 2), (1, 3), (2, 4)],
                peers,
                vec![
                    AsClass::Tier1,
                    AsClass::Tier1,
                    AsClass::Tier2,
                    AsClass::Stub,
                    AsClass::Stub,
                ],
            )
        }

        #[test]
        fn valley_free_basic_paths() {
            let from4 = toy(true).propagate(4);
            // 4 -> 2 -> 0 -> peer 1 -> 3: length 4, valley-free.
            assert_eq!(from4.dist[3], 4);
            assert_eq!(from4.dist[0], 2);
            assert_eq!(from4.dist[4], 0);
        }

        #[test]
        fn valley_blocks_peer_to_peer_transit() {
            // Without the tier-1 peering the stubs' providers are not
            // linked at all: no valley-free route, and no route at all.
            let t = toy(false);
            let from2 = t.propagate(2);
            assert_eq!(
                from2.dist[3], UNREACHED,
                "no valley-free route should exist"
            );
            assert!(!from2.reaches(3));
            assert_eq!(t.shortest(2)[3], UNREACHED);
        }

        #[test]
        fn policy_never_beats_shortest() {
            let t = toy(true);
            for src in 0..t.len() {
                let vf = t.propagate(src);
                let sp = t.shortest(src);
                for (&v, &s) in vf.dist.iter().zip(&sp) {
                    if v != UNREACHED && s != UNREACHED {
                        assert!(v >= s);
                    }
                }
            }
        }

        /// Distance queries for a source outside the topology (including
        /// any source on the empty topology) reach nothing.
        #[test]
        fn out_of_range_source_reaches_nothing() {
            let t = toy(true);
            assert_eq!(t.propagate(99).dist, vec![UNREACHED; t.len()]);
            assert_eq!(t.shortest(99), vec![UNREACHED; t.len()]);
            let empty = AsTopology::from_relationships(0, &[], &[], vec![]);
            assert!(empty.is_empty());
            assert!(empty.propagate(0).dist.is_empty());
            assert!(empty.shortest(0).is_empty());
        }
    }
}

/// The most commonly used items, for `use hotgen::prelude::*`.
pub mod prelude {
    pub use hot_core::buyatbulk::{
        greedy, mmp, problem::Customer, problem::Instance, AccessNetwork,
    };
    pub use hot_core::fkp::{self, Centrality, FkpConfig};
    pub use hot_core::formulation::Formulation;
    pub use hot_core::isp::backbone::BackboneConfig;
    pub use hot_core::isp::generator::{generate as generate_isp, IspConfig};
    pub use hot_core::isp::{IspTopology, LinkKind, RouterRole};
    pub use hot_core::peering::{generate_internet, Internet, InternetConfig};
    pub use hot_core::plr::{self, Design, PlrConfig, SparkDensity};
    pub use hot_econ::cable::{CableCatalog, CableType};
    pub use hot_econ::cost::LinkCost;
    pub use hot_econ::demand::BoundedPareto;
    pub use hot_econ::pricing::RevenueModel;
    pub use hot_geo::bbox::BoundingBox;
    pub use hot_geo::gravity::TrafficMatrix;
    pub use hot_geo::point::Point;
    pub use hot_geo::population::Census;
    pub use hot_graph::{Graph, NodeId};
    pub use hot_metrics::expfit::TailClass;
    pub use hot_metrics::MetricReport;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports() {
        use crate::prelude::*;
        let catalog = CableCatalog::realistic_2003();
        assert_eq!(catalog.len(), 5);
        let p = Point::new(1.0, 2.0);
        assert_eq!(p.x, 1.0);
    }
}
