//! # hot-metrics — the topology comparison suite
//!
//! §1 of the paper: "any particular choice [of metrics] tends to yield a
//! generated topology that matches observations on the chosen metrics but
//! looks very dissimilar on others." Making that claim measurable needs a
//! *battery* of metrics applied uniformly to every generator; this crate
//! is that battery.
//!
//! | module | metric family | provenance |
//! |---|---|---|
//! | [`degree_dist`] | degree summary statistics | Faloutsos et al. '99 |
//! | [`powerlaw`] | rank/CCDF power-law fits | Faloutsos et al. '99 |
//! | [`expfit`] | exponential fit + power-vs-exp classifier | FKP '02 / paper §4.2 |
//! | [`assortativity`] | degree assortativity | Newman '02 |
//! | [`clustering`] | local and mean clustering coefficients | Bu–Towsley '02 \[8\] |
//! | [`paths`] | path lengths, diameter, hop histogram | standard |
//! | [`expansion`] | ball-growth expansion | Tangmunarunkit et al. \[30\] |
//! | [`resilience`] | sampled pairwise min-cuts | Tangmunarunkit et al. \[30\] |
//! | [`distortion`] | spanning-tree distance stretch | Tangmunarunkit et al. \[30\] |
//! | [`spectral`] | spectral radius, algebraic connectivity | Vukadinović et al. \[31\] |
//! | [`hierarchy`] | betweenness concentration (Gini, top-share) | load-based hierarchy |
//! | [`bias`] | observed-vs-true distortion of probe-inferred maps | paper §1/§3.2 measurement bias |
//! | [`robustness`] | failure/attack degradation curves | HOT robust-yet-fragile |
//! | [`utilization`] | link-load summaries, CCDFs, load-share splits | experiment E15 traffic engine |
//! | [`report`] | one-struct-per-graph metric matrix + table rendering | experiment E6 |
//! | [`surrogate`] | degree-preserving rewiring | paper §5 research agenda |
//!
//! Heavy metrics sample deterministically (fixed strides), so reports are
//! reproducible without threading RNGs through every metric.

pub mod assortativity;
pub mod bias;
pub mod clustering;
pub mod degree_dist;
pub mod distortion;
pub mod expansion;
pub mod expfit;
pub mod hierarchy;
pub mod paths;
pub mod powerlaw;
pub mod report;
pub mod resilience;
pub mod robustness;
pub mod rolling;
pub mod spectral;
pub mod surrogate;
pub mod utilization;

pub use report::MetricReport;
