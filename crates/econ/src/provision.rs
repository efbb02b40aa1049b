//! Link-capacity provisioning: turning per-link loads (or structural
//! weights like endpoint degree) into per-link capacities, the bridge
//! between the buy-at-bulk cable catalog and the capacitated traffic
//! engine.
//!
//! Two policies cover the HOT-vs-baseline comparison:
//!
//! - [`provision_capacities`] is how a designed (HOT) network buys
//!   bandwidth: each link carries observed load × headroom, rounded up
//!   to whole instances of the cheapest single cable type — so the
//!   capacities land on real technology tiers and utilization never
//!   exceeds `1 / headroom` under the provisioning workload.
//! - [`proportional_capacities`] is the degree-driven null model for
//!   BA/GLP topologies, which have no design loop: capacity is
//!   proportional to a structural weight (typically the sum of endpoint
//!   degrees), globally rescaled so peak utilization under the baseline
//!   workload matches the same `1 / headroom` target. Hubs get big
//!   pipes, but the *pattern* of provisioning ignores the traffic.

use crate::cable::CableCatalog;

/// Whether `headroom` is a planning factor both provisioning policies
/// accept: finite and at least 1 (capacity never below the load it is
/// sized for).
pub fn headroom_is_valid(headroom: f64) -> bool {
    headroom.is_finite() && headroom >= 1.0
}

/// Capacities bought from the catalog to carry `loads` with the given
/// `headroom` factor (≥ 1): each link installs the cheapest
/// whole-instance single-type configuration covering `load × headroom`,
/// so its capacity is a real tier multiple and its utilization at the
/// provisioning load is at most `1 / headroom`. Idle links (load ≤ 0)
/// install one instance of the smallest cable type — a link that exists
/// is physically provisioned even if the forecast misses it.
pub fn provision_capacities(catalog: &CableCatalog, loads: &[f64], headroom: f64) -> Vec<f64> {
    assert!(
        headroom_is_valid(headroom),
        "headroom must be a finite factor >= 1, got {}",
        headroom
    );
    let smallest = catalog
        .types()
        .iter()
        .map(|t| t.capacity)
        .fold(f64::INFINITY, f64::min);
    loads
        .iter()
        .map(|&load| {
            if load <= 0.0 {
                smallest
            } else {
                let (idx, instances, _) = catalog.best_single_type(load * headroom);
                catalog.types()[idx].capacity * instances as f64
            }
        })
        .collect()
}

/// Capacities proportional to `weights` (all > 0), rescaled by one
/// global factor so the peak utilization `max(load / capacity)` under
/// `loads` equals exactly `1 / headroom` — the same planning target
/// [`provision_capacities`] hits, which is what makes the two policies
/// comparable. When every load is zero (nothing to anchor the scale)
/// the weights are returned unscaled.
pub fn proportional_capacities(weights: &[f64], loads: &[f64], headroom: f64) -> Vec<f64> {
    assert_eq!(weights.len(), loads.len(), "weights/loads length mismatch");
    assert!(
        headroom_is_valid(headroom),
        "headroom must be a finite factor >= 1, got {}",
        headroom
    );
    assert!(
        weights.iter().all(|&w| w > 0.0),
        "proportional weights must be positive"
    );
    let peak = weights
        .iter()
        .zip(loads)
        .map(|(&w, &l)| l / w)
        .fold(0.0f64, f64::max);
    if peak <= 0.0 {
        return weights.to_vec();
    }
    let k = headroom * peak;
    weights.iter().map(|&w| w * k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioned_capacity_covers_load_with_headroom() {
        let catalog = CableCatalog::realistic_2003();
        let loads = vec![0.0, 10.0, 100.0, 1234.5, 50_000.0];
        let caps = provision_capacities(&catalog, &loads, 1.25);
        for (&load, &cap) in loads.iter().zip(&caps) {
            assert!(cap >= load * 1.25, "cap {} covers {} * 1.25", cap, load);
            if load > 0.0 {
                assert!(load / cap <= 0.8 + 1e-12, "util target");
            }
            // Every capacity is a whole-instance multiple of some tier.
            let tiered = catalog.types().iter().any(|t| {
                let k = cap / t.capacity;
                k >= 1.0 && (k - k.round()).abs() < 1e-9
            });
            assert!(tiered, "capacity {} is on a tier", cap);
        }
    }

    #[test]
    fn idle_links_get_one_smallest_cable() {
        let catalog = CableCatalog::realistic_2003();
        let caps = provision_capacities(&catalog, &[0.0, -3.0], 2.0);
        assert_eq!(caps, vec![45.0, 45.0]);
    }

    #[test]
    fn proportional_hits_the_utilization_target_exactly_at_peak() {
        let weights = vec![4.0, 10.0, 2.0];
        let loads = vec![8.0, 10.0, 1.0];
        let caps = proportional_capacities(&weights, &loads, 1.25);
        let utils: Vec<f64> = loads.iter().zip(&caps).map(|(&l, &c)| l / c).collect();
        let max = utils.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!((max - 0.8).abs() < 1e-12, "peak util {}", max);
        // Proportionality is preserved.
        assert!((caps[0] / caps[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn proportional_all_idle_returns_weights() {
        let weights = vec![3.0, 7.0];
        assert_eq!(proportional_capacities(&weights, &[0.0, 0.0], 1.5), weights);
    }

    #[test]
    fn headroom_predicate_rejects_non_finite_and_sub_unity() {
        for h in [1.0, 1.25, 1e9] {
            assert!(headroom_is_valid(h), "{}", h);
        }
        for h in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(!headroom_is_valid(h), "{}", h);
        }
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn headroom_below_one_rejected() {
        provision_capacities(&CableCatalog::realistic_2003(), &[1.0], 0.5);
    }
}
