//! # hot-bench — the criterion harnesses
//!
//! Micro-benchmarks of the production kernels (`benches/*_benches.rs`).
//! The shared fixtures (seed, standard geography) live in
//! `hot_exp::fixtures` and are re-exported here for the benches.
//!
//! The experiments themselves run through the `hot-exp` scenario
//! registry's driver, e.g. one scenario's full-scale report:
//!
//! ```text
//! cargo run --release -p hot-exp --bin expctl -- --run e3
//! ```
//!
//! or the whole registry (seeds, scales, JSON export):
//!
//! ```text
//! cargo run --release -p hot-exp --bin expctl -- --list
//! ```

pub use hot_exp::fixtures::{standard_geography, SEED};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geography_reexport_is_deterministic() {
        let (c1, t1) = standard_geography(20, SEED);
        let (c2, t2) = standard_geography(20, SEED);
        assert_eq!(c1.cities, c2.cities);
        assert_eq!(t1.demand(0, 1), t2.demand(0, 1));
    }
}
