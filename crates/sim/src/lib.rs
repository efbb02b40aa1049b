//! # hot-sim — protocols on top of generated topologies
//!
//! The paper's abstract promises that an explanatory topology framework
//! "should provide a scientific foundation for the investigation of other
//! important problems, such as pricing, peering, or the dynamics of
//! routing protocols", and its introduction leans on Tangmunarunkit et
//! al.'s observation that topology drives protocol *performance*. This
//! crate closes that loop: it runs protocol-level computations on the
//! topologies the workspace generates.
//!
//! | module | what it simulates | paper anchor |
//! |---|---|---|
//! | [`demand`] | gravity/uniform/rank-biased OD demand matrices, per-flow [`demand::Demand`] lists | §2.1 ("pipes between big cities") |
//! | [`traffic`] | batched million-flow link-load simulation, ECMP (plain + weighted) | §1 ("dramatic impact on performance") |
//! | [`te`] | iterative weight-tuning that minimizes max utilization | §2.1 capacity-constrained design |
//! | [`cascade`] | overload cascades: fail past-capacity links, re-route to a fixed point | §3.1 robustness under surges |
//! | [`failure`] | per-flow hop routing of demand lists; single-link failures: re-routing stretch, load redistribution | §1 ("dramatic impact on performance"); §3.1 robustness; §4 fn.7 redundancy |
//! | [`traceroute`] | the inferred map (observed-node/link masks, inferred degrees), strided vantage choice | §1/§3.2 incomplete measured maps |
//! | [`probe`] | the campaign engine: batched million-probe hop or latency forwarding over CSR, bit-identical at any thread count | §1/§3.2 measurement at scale |

pub mod cascade;
pub mod demand;
pub mod evolve;
pub mod failure;
pub mod probe;
pub mod te;
pub mod traceroute;
pub mod traffic;
