//! # hot-bgp — policy routing over generated internets
//!
//! The paper's §2.3 builds peering economics — tier-1 cliques, transit
//! contracts, settlement-free peering — into the multi-ISP generator,
//! and those contracts constrain routing: BGP paths are *valley-free*
//! (Gao–Rexford), not shortest. A route learned from a customer is
//! exported to everyone; a route learned from a peer or provider is
//! exported only to customers. This crate is the subsystem that honors
//! those rules at scale:
//!
//! - [`topology`] — [`AsTopology`]: the AS-level relationship network in
//!   flat CSR form, each AS labeled with an economic [`AsClass`]
//!   (tier-1 / tier-2 / cloud / stub) derived from the generator's own
//!   economics, or inferred by degree for baseline (BA/GLP) graphs. It
//!   also holds the undirected relationship graph as a `hot-graph`
//!   [`CsrGraph`](hot_graph::csr::CsrGraph) ([`AsTopology::csr`]): the
//!   unrestricted hop distances policy is measured against are the
//!   workspace's one CSR BFS on it.
//! - [`propagate`] — the per-source valley-free kernel: a three-phase
//!   BFS over `(as, phase)` states writing a flat [`RouteTable`]
//!   (distances + path-membership flags), allocation-free after its
//!   [`PropagationScratch`] exists and hardened against out-of-range
//!   sources.
//! - [`summary`] — the batched sweep: one propagation and one CSR BFS
//!   per source, fanned over `hot-graph`'s deterministic 64-chunk
//!   scheduler, reduced into the all-integer [`PolicySummary`]
//!   (path-inflation histogram/CCDF vs unrestricted shortest paths,
//!   valley-free hop totals and maxima per shortest length, from which
//!   the inflation ratios are read, and provider-free / tier1-free /
//!   hierarchy-free counts per source class). Bit-identical at any
//!   thread count. It is the crate's only valley-free sweep.
//!
//! Two scenarios in `hot-exp` drive the sweep on the run's threads: E13
//! (`policy-inflation`) reads its four inflation cells from one
//! [`policy_summary_all`] per generated internet, and E17
//! (`policy-routing`) runs it over HOT and degree-based internets.

pub mod propagate;
pub mod summary;
pub mod topology;

pub use propagate::{PropagationScratch, RouteTable, UNREACHED};
pub use summary::{policy_summary, policy_summary_all, ClassPathCounts, PolicySummary};
pub use topology::{AsClass, AsTopology};
