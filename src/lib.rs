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
pub use hot_bgp as bgp;
pub use hot_core as core;
pub use hot_econ as econ;
pub use hot_geo as geo;
pub use hot_graph as graph;
pub use hot_metrics as metrics;
pub use hot_sim as sim;

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
