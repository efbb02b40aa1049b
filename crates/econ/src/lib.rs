//! # hot-econ — economics substrate
//!
//! §2.1 of the paper: any explanatory topology framework must incorporate
//! the *economic* factors ISPs face. This crate models them:
//!
//! - [`cable`]: buy-at-bulk cable types `{capacity uₖ, fixed cost σₖ,
//!   marginal cost δₖ}` and catalogs satisfying the paper's
//!   economies-of-scale axioms (§4.1);
//! - [`cost`]: the induced concave per-link cost function (least-cost cable
//!   mix for a given flow) and distance-scaled link costs;
//! - [`demand`]: customer demand models for access design;
//! - [`pricing`]: revenue and the profit-based formulation's
//!   marginal-revenue = marginal-cost stopping rule (§2.2);
//! - [`provision`]: per-link capacity provisioning from loads (cable
//!   tiers with headroom) or degrees (the BA/GLP null model), feeding
//!   the capacitated traffic engine.

pub mod cable;
pub mod cost;
pub mod demand;
pub mod pricing;
pub mod provision;
pub mod trend;

pub use cable::{CableCatalog, CableType, CatalogError};
pub use cost::LinkCost;
pub use demand::CustomerDemand;
pub use provision::{headroom_is_valid, proportional_capacities, provision_capacities};
pub use trend::TechTrend;
