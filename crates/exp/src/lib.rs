//! # hot-exp — the scenario engine
//!
//! Every experiment E1–E20 from the reproduction lives here as a
//! registered [`registry::ScenarioSpec`]: a named, seeded, pure function
//! from parameters to a structured [`report::ExpReport`]. One driver —
//! the `expctl` binary — lists, runs, and exports them
//! (`expctl --run e3` prints one scenario's full-scale report).
//!
//! Design rules the whole module tree obeys:
//!
//! - **Purity.** A scenario's report is a pure function of
//!   `(params, seed)`. Thread count only selects how the deterministic
//!   chunk scheduler in `hot_graph::parallel` carves the work, never the
//!   result — `expctl --all --threads 1` and `--threads 8` emit
//!   byte-identical JSON.
//! - **Two scales.** Each scenario ships `Params::golden()` (seconds,
//!   exercised by the golden-snapshot suite on every `cargo test`) and
//!   `Params::full()` (the paper-sized tables `expctl` prints by default).
//! - **No I/O.** Scenarios read and write no files and print nothing:
//!   every input is generated from `(params, seed)` on each run, and
//!   only `expctl` writes reports and its timing table.
//! - **No panics on degenerate input.** Scenarios return a report
//!   marked skipped ([`report::ExpReport::into_skipped`]) instead of
//!   unwrapping on empty graphs or zero-sized parameter sets.

pub mod fixtures;
pub mod jsonout;
pub mod registry;
pub mod report;
pub mod scenarios;

pub use fixtures::{standard_geography, SEED};
pub use jsonout::Json;
pub use registry::{registry, RunCtx, Scale, ScenarioSpec};
pub use report::{ExpReport, ExpStatus, Section, Table};
