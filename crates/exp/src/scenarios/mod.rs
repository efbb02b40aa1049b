//! The twenty scenarios, one module per experiment.
//!
//! Each module exposes a `Params` struct with `golden()` / `full()`
//! constructors (the registry picks one by `RunCtx::scale`) and a
//! `run(&Params, RunCtx) -> ExpReport` entry point; some additionally
//! expose typed intermediate results
//! (e.g. [`e1::regime_rows`], [`e5::design_curves`],
//! [`e15::traffic_rows`], [`e17::policy_rows`],
//! [`e18::cascade_rows`], [`e20::temporal_rows`]) so the paper-claims tests can assert on
//! structured values instead of parsing tables.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod e2;
pub mod e20;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
