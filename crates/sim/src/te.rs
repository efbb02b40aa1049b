//! Iterative traffic engineering: minimize maximum link utilization by
//! re-weighting ECMP splits.
//!
//! Real ISPs do not route on hop counts alone — they tune IGP weights
//! until no link runs too close to its provisioned capacity. This
//! module is that loop over the batched engine: route under the current
//! weights ([`crate::traffic::link_loads_weighted`]), find the links
//! whose utilization sits near the maximum, multiply their weights by a
//! penalty < 1 (shifting flow onto parallel shortest paths without
//! changing any path length), re-route, and **keep the new weights only
//! if the maximum utilization strictly decreased**. That accept-only-
//! if-better rule makes the utilization trajectory provably monotone
//! non-increasing and guarantees termination: the loop stops at the
//! first non-improving candidate (a fixed point of the penalty map) or
//! after [`TeConfig::max_rounds`] accepted rounds.
//!
//! Everything is a deterministic function of (graph, demand,
//! capacities, config): the engine is bit-identical at any thread
//! count, comparisons are exact, and the dyadic penalty (0.5) keeps
//! every weight an exact power of two.

use crate::demand::OdDemand;
use crate::traffic::{link_loads_weighted, TrafficLoads};
use hot_graph::csr::CsrGraph;

/// Parameters of the TE weight-tuning loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TeConfig {
    /// Maximum number of *accepted* improvement rounds.
    pub max_rounds: usize,
}

impl Default for TeConfig {
    fn default() -> Self {
        TeConfig { max_rounds: 8 }
    }
}

/// Links with utilization ≥ `HOT_FRACTION × current max` are penalized
/// together each round (the argmax link is always included).
const HOT_FRACTION: f64 = 0.9;

/// Multiplicative weight penalty applied to hot links. 0.5 is dyadic,
/// so weights stay exact powers of two.
const PENALTY: f64 = 0.5;

/// Result of [`tune_weights`].
#[derive(Clone, Debug, PartialEq)]
pub struct TeOutcome {
    /// The accepted link weights (all 1.0 when no round improved).
    pub weights: Vec<f64>,
    /// Loads under the accepted weights.
    pub loads: TrafficLoads,
    /// Accepted max-utilization trajectory: entry 0 is the unweighted
    /// baseline, each later entry is strictly below its predecessor.
    pub trajectory: Vec<f64>,
    /// Candidate rounds evaluated (accepted or not).
    pub rounds_tried: usize,
    /// `true` when the loop stopped at a fixed point (a non-improving
    /// candidate, or nothing loaded), `false` when it ran out of
    /// rounds while still improving.
    pub converged: bool,
}

impl TeOutcome {
    /// Baseline (round-0, unit-weight) maximum utilization.
    pub fn initial_max_util(&self) -> f64 {
        self.trajectory[0]
    }

    /// Maximum utilization under the accepted weights.
    pub fn final_max_util(&self) -> f64 {
        *self.trajectory.last().expect("trajectory never empty")
    }
}

/// Maximum of `loads[e] / capacities[e]` (0 when there are no links).
/// Capacities must be positive.
pub fn max_utilization(loads: &[f64], capacities: &[f64]) -> f64 {
    assert_eq!(
        loads.len(),
        capacities.len(),
        "loads/capacities length mismatch"
    );
    loads
        .iter()
        .zip(capacities)
        .map(|(&l, &c)| {
            assert!(c > 0.0, "capacities must be positive");
            l / c
        })
        .fold(0.0, f64::max)
}

/// Runs the TE loop over `demand` on `csr` with the given per-link
/// `capacities`. See the module docs for the algorithm; the returned
/// [`TeOutcome::trajectory`] is monotone (strictly) decreasing after
/// its first entry, and the whole result is bit-identical at any
/// `threads`.
pub fn tune_weights(
    csr: &CsrGraph,
    demand: &dyn OdDemand,
    capacities: &[f64],
    cfg: &TeConfig,
    threads: usize,
) -> TeOutcome {
    assert_eq!(
        capacities.len(),
        csr.edge_count(),
        "one capacity per link required"
    );
    let mut weights = vec![1.0; csr.edge_count()];
    let mut loads = link_loads_weighted(csr, demand, &weights, threads);
    let mut best_max = max_utilization(&loads.link_load, capacities);
    let mut trajectory = vec![best_max];
    let mut rounds_tried = 0;
    let mut converged = false;
    while trajectory.len() <= cfg.max_rounds {
        if best_max <= 0.0 {
            converged = true;
            break;
        }
        let cut = HOT_FRACTION * best_max;
        let mut candidate = weights.clone();
        for (e, w) in candidate.iter_mut().enumerate() {
            if loads.link_load[e] / capacities[e] >= cut {
                *w *= PENALTY;
            }
        }
        rounds_tried += 1;
        let cand_loads = link_loads_weighted(csr, demand, &candidate, threads);
        let cand_max = max_utilization(&cand_loads.link_load, capacities);
        if cand_max < best_max {
            weights = candidate;
            loads = cand_loads;
            best_max = cand_max;
            trajectory.push(best_max);
        } else {
            // Fixed point of the penalty map: re-penalizing the hot set
            // no longer helps.
            converged = true;
            break;
        }
    }
    TeOutcome {
        weights,
        loads,
        trajectory,
        rounds_tried,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::RoutePolicy;
    use hot_graph::graph::Graph;

    /// Explicit dense demand (tests only).
    struct Dense {
        n: usize,
        d: Vec<f64>,
    }

    impl OdDemand for Dense {
        fn node_count(&self) -> usize {
            self.n
        }
        fn demand(&self, src: usize, dst: usize) -> f64 {
            self.d[src * self.n + dst]
        }
    }

    /// Square with a thin path and a fat path: ECMP overloads the thin
    /// side, and the TE loop must shift traffic off it.
    fn unbalanced_square() -> (CsrGraph, Vec<f64>, Dense) {
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        // Edges 0, 2 form the thin path; 1, 3 the fat one.
        let caps = vec![1.0, 10.0, 1.0, 10.0];
        let mut d = vec![0.0; 16];
        d[3] = 2.0; // 0 -> 3
        (csr, caps, Dense { n: 4, d })
    }

    #[test]
    fn te_reduces_max_utilization_monotonically() {
        let (csr, caps, dem) = unbalanced_square();
        let out = tune_weights(&csr, &dem, &caps, &TeConfig::default(), 2);
        // ECMP baseline: 1.0 on every edge, so the thin links sit at
        // utilization 1.0.
        assert_eq!(out.initial_max_util(), 1.0);
        assert!(out.final_max_util() < 1.0, "TE must improve the square");
        for pair in out.trajectory.windows(2) {
            assert!(pair[1] < pair[0], "strictly decreasing trajectory");
        }
        assert!(out.rounds_tried >= out.trajectory.len() - 1);
        // The thin links were de-weighted, the fat ones untouched.
        assert!(out.weights[0] < 1.0 && out.weights[2] < 1.0);
        assert_eq!(out.weights[1], 1.0);
    }

    #[test]
    fn te_is_thread_invariant_bitwise() {
        let (csr, caps, dem) = unbalanced_square();
        let one = tune_weights(&csr, &dem, &caps, &TeConfig::default(), 1);
        for threads in [2, 4, 8] {
            let got = tune_weights(&csr, &dem, &caps, &TeConfig::default(), threads);
            assert_eq!(one, got, "{} threads", threads);
        }
    }

    #[test]
    fn te_idle_network_converges_immediately() {
        let (csr, caps, _) = unbalanced_square();
        let dem = Dense {
            n: 4,
            d: vec![0.0; 16],
        };
        let out = tune_weights(&csr, &dem, &caps, &TeConfig::default(), 1);
        assert!(out.converged);
        assert_eq!(out.rounds_tried, 0);
        assert_eq!(out.trajectory, vec![0.0]);
        assert!(out.weights.iter().all(|&w| w == 1.0));
    }

    #[test]
    fn te_balanced_square_is_already_optimal() {
        // Equal capacities: ECMP already balances the square perfectly,
        // so the first candidate cannot improve and weights stay 1.
        let (csr, _, dem) = unbalanced_square();
        let caps = vec![10.0; 4];
        let out = tune_weights(&csr, &dem, &caps, &TeConfig::default(), 1);
        assert!(out.converged);
        assert_eq!(out.trajectory.len(), 1);
        assert!(out.weights.iter().all(|&w| w == 1.0));
        // And the accepted loads are exactly the unit-weight ECMP run.
        let plain = crate::traffic::link_loads(&csr, &dem, RoutePolicy::Ecmp, 1);
        assert_eq!(out.loads, plain);
    }

    #[test]
    fn max_utilization_basics() {
        assert_eq!(max_utilization(&[], &[]), 0.0);
        assert_eq!(max_utilization(&[5.0, 1.0], &[10.0, 1.0]), 1.0);
    }
}
