//! Concentrator (facility) location: where to install aggregation
//! equipment in a metro.
//!
//! Uncapacitated facility location: choosing to open concentrators at
//! candidate sites costs `opening_cost` each; every customer is assigned
//! to its nearest open concentrator and pays its distance (scaled by
//! demand — hauling more traffic farther costs more). The greedy
//! algorithm (repeatedly open the site with the best net saving) is the
//! classic O(log n)-approximation; an optional swap local search tightens
//! it. The ISP generator uses this to place distribution hubs; the
//! "installing additional equipment, such as concentrators" cost is
//! exactly the fixed-equipment term the paper's §4 formulation names.

use hot_geo::point::Point;

/// A facility-location instance.
#[derive(Clone, Debug)]
pub struct FacilityInstance {
    /// Candidate concentrator sites.
    pub sites: Vec<Point>,
    /// Customer locations.
    pub customers: Vec<Point>,
    /// Customer demand weights (same length as `customers`).
    pub demands: Vec<f64>,
    /// Cost to open one concentrator.
    pub opening_cost: f64,
}

/// A solution: which sites are open and each customer's assignment.
#[derive(Clone, Debug)]
pub struct FacilitySolution {
    /// Indices of open sites, ascending.
    pub open: Vec<usize>,
    /// For each customer, the open site serving it.
    pub assignment: Vec<usize>,
    /// Total cost (openings + demand-weighted assignment distances).
    pub total_cost: f64,
}

impl FacilityInstance {
    fn assignment_cost(&self, customer: usize, site: usize) -> f64 {
        self.demands[customer] * self.customers[customer].dist(&self.sites[site])
    }

    /// Total cost of serving every customer from its nearest site in
    /// `open`, plus opening costs. Also returns the assignment.
    fn evaluate(&self, open: &[usize]) -> (f64, Vec<usize>) {
        assert!(!open.is_empty(), "at least one concentrator must be open");
        let mut cost = self.opening_cost * open.len() as f64;
        let mut assignment = Vec::with_capacity(self.customers.len());
        for c in 0..self.customers.len() {
            let (best_site, best_cost) = open
                .iter()
                .map(|&s| (s, self.assignment_cost(c, s)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
                .expect("open is non-empty");
            cost += best_cost;
            assignment.push(best_site);
        }
        (cost, assignment)
    }
}

/// Greedy facility location with optional single-swap local search.
///
/// # Panics
///
/// Panics if there are no candidate sites, or array lengths disagree.
pub fn solve(instance: &FacilityInstance, swap_passes: usize) -> FacilitySolution {
    let n_sites = instance.sites.len();
    assert!(n_sites > 0, "need at least one candidate site");
    assert_eq!(
        instance.customers.len(),
        instance.demands.len(),
        "customers/demands mismatch"
    );
    // Greedy: start from the single best site, then add sites while the
    // net saving is positive.
    let first = (0..n_sites)
        .min_by(|&a, &b| {
            instance
                .evaluate(&[a])
                .0
                .partial_cmp(&instance.evaluate(&[b]).0)
                .expect("no NaN")
        })
        .expect("non-empty sites");
    let mut open = vec![first];
    let (mut cost, _) = instance.evaluate(&open);
    loop {
        let mut best: Option<(usize, f64)> = None;
        for s in 0..n_sites {
            if open.contains(&s) {
                continue;
            }
            let mut candidate = open.clone();
            candidate.push(s);
            let (c, _) = instance.evaluate(&candidate);
            if c < cost - 1e-12 && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((s, c));
            }
        }
        let Some((s, c)) = best else { break };
        open.push(s);
        cost = c;
    }
    // Swap local search: try replacing one open site with one closed site.
    for _ in 0..swap_passes {
        let mut improved = false;
        'outer: for oi in 0..open.len() {
            for s in 0..n_sites {
                if open.contains(&s) {
                    continue;
                }
                let mut candidate = open.clone();
                candidate[oi] = s;
                let (c, _) = instance.evaluate(&candidate);
                if c < cost - 1e-12 {
                    open = candidate;
                    cost = c;
                    improved = true;
                    break 'outer;
                }
            }
        }
        if !improved {
            break;
        }
    }
    open.sort_unstable();
    let (total_cost, assignment) = instance.evaluate(&open);
    FacilitySolution {
        open,
        assignment,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two well-separated customer clusters with candidate sites at the
    /// cluster centers and a bad site far away.
    fn two_clusters() -> FacilityInstance {
        let mut customers = Vec::new();
        for i in 0..5 {
            customers.push(Point::new(0.0 + 0.01 * i as f64, 0.0));
            customers.push(Point::new(10.0 + 0.01 * i as f64, 0.0));
        }
        FacilityInstance {
            sites: vec![
                Point::new(0.02, 0.0),
                Point::new(10.02, 0.0),
                Point::new(5.0, 50.0),
            ],
            demands: vec![1.0; customers.len()],
            customers,
            opening_cost: 1.0,
        }
    }

    #[test]
    fn opens_both_cluster_centers() {
        let sol = solve(&two_clusters(), 2);
        assert_eq!(sol.open, vec![0, 1]);
        // Every customer assigned to its own cluster's site.
        for (c, &s) in sol.assignment.iter().enumerate() {
            let expected = if c % 2 == 0 { 0 } else { 1 };
            assert_eq!(s, expected, "customer {}", c);
        }
    }

    #[test]
    fn expensive_openings_collapse_to_one_site() {
        let mut inst = two_clusters();
        inst.opening_cost = 1000.0;
        let sol = solve(&inst, 2);
        assert_eq!(sol.open.len(), 1);
    }

    #[test]
    fn demand_weighting_pulls_assignment() {
        // One heavy customer far from the cheap site: with weights, the
        // solver must open the site near the heavy customer.
        let inst = FacilityInstance {
            sites: vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            customers: vec![Point::new(1.0, 0.0), Point::new(99.0, 0.0)],
            demands: vec![0.001, 1000.0],
            opening_cost: 5.0,
        };
        let sol = solve(&inst, 1);
        assert!(sol.open.contains(&1));
        assert_eq!(sol.assignment[1], 1);
    }

    #[test]
    fn total_cost_is_consistent() {
        let inst = two_clusters();
        let sol = solve(&inst, 1);
        let mut recomputed = inst.opening_cost * sol.open.len() as f64;
        for (c, &s) in sol.assignment.iter().enumerate() {
            recomputed += inst.demands[c] * inst.customers[c].dist(&inst.sites[s]);
        }
        assert!((sol.total_cost - recomputed).abs() < 1e-9);
    }

    #[test]
    fn no_customers_opens_one_site() {
        let inst = FacilityInstance {
            sites: vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            customers: vec![],
            demands: vec![],
            opening_cost: 3.0,
        };
        let sol = solve(&inst, 1);
        assert_eq!(sol.open.len(), 1);
        assert!((sol.total_cost - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one candidate site")]
    fn no_sites_rejected() {
        let inst = FacilityInstance {
            sites: vec![],
            customers: vec![Point::new(0.0, 0.0)],
            demands: vec![1.0],
            opening_cost: 1.0,
        };
        solve(&inst, 0);
    }

    #[test]
    fn greedy_no_worse_than_single_best_site() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let sites: Vec<Point> = (0..8)
                .map(|_| Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)))
                .collect();
            let customers: Vec<Point> = (0..30)
                .map(|_| Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)))
                .collect();
            let inst = FacilityInstance {
                demands: vec![1.0; customers.len()],
                sites,
                customers,
                opening_cost: 2.0,
            };
            let single_best = (0..inst.sites.len())
                .map(|s| inst.evaluate(&[s]).0)
                .fold(f64::INFINITY, f64::min);
            let sol = solve(&inst, 2);
            assert!(sol.total_cost <= single_best + 1e-9);
        }
    }
}
