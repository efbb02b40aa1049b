//! # hot-geo — geography substrate
//!
//! The paper's demand model (§2.2) is "population centers dispersed over a
//! geographic region": the size, location, and connectivity of an ISP
//! depend on the number and location of its customers. This crate provides
//! that geography:
//!
//! - [`point`]: planar points and Euclidean distance;
//! - [`bbox`]: axis-aligned bounding regions;
//! - [`population`]: synthetic population centers — Zipf-ranked city sizes
//!   placed in metro clusters, the stand-in for census data;
//! - [`gravity`]: gravity-model traffic matrices between population
//!   centers, the demand input to the design formulations.
//!
//! Everything is deterministic given an RNG seed.

pub mod bbox;
pub mod gravity;
pub mod point;
pub mod population;

pub use bbox::BoundingBox;
pub use point::Point;
pub use population::{Census, City};
