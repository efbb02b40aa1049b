//! Buy-at-bulk cable types and catalogs.
//!
//! §4.1 of the paper: "each cable type k ∈ {1…K} has an associated capacity
//! uₖ, a fixed overhead (installation) cost σₖ, and a marginal usage cost
//! δₖ. Collectively, the cable types exhibit economies of scale such that
//! for u₁ ≤ … ≤ u_K, one has σ₁ ≤ … ≤ σ_K and δ₁ > … > δ_K."
//!
//! A [`CableCatalog`] enforces those axioms at construction, so every
//! downstream algorithm can rely on them (the MMP approximation's
//! guarantee depends on economies of scale).

use rand::Rng;

/// One cable type: a `{capacity, fixed cost, marginal cost}` triple.
///
/// Costs are per unit length; multiply by link length to get link costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CableType {
    /// Capacity `uₖ` (traffic units).
    pub capacity: f64,
    /// Fixed installation/overhead cost `σₖ` ($ per unit length).
    pub fixed_cost: f64,
    /// Marginal usage cost `δₖ` ($ per traffic unit per unit length).
    pub marginal_cost: f64,
    /// Human-readable name (e.g. "OC-12").
    pub name: &'static str,
}

impl CableType {
    /// Cost per unit length of carrying `flow` on one instance of this
    /// cable (`σₖ + δₖ·flow`). Does not check capacity.
    pub fn cost_for_flow(&self, flow: f64) -> f64 {
        self.fixed_cost + self.marginal_cost * flow
    }

    /// Number of parallel instances needed for `flow`.
    pub fn instances_for(&self, flow: f64) -> usize {
        if flow <= 0.0 {
            0
        } else {
            (flow / self.capacity).ceil() as usize
        }
    }
}

/// Violations of the buy-at-bulk axioms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// The catalog has no cable types.
    Empty,
    /// A capacity, fixed cost, or marginal cost was non-positive or NaN.
    NonPositive { index: usize },
    /// Capacities not non-decreasing at this adjacent pair.
    CapacityOrder { index: usize },
    /// Fixed costs not non-decreasing at this adjacent pair.
    FixedCostOrder { index: usize },
    /// Marginal costs not strictly decreasing at this adjacent pair.
    MarginalCostOrder { index: usize },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Empty => write!(f, "catalog has no cable types"),
            CatalogError::NonPositive { index } => {
                write!(
                    f,
                    "cable {}: capacities and costs must be positive finite",
                    index
                )
            }
            CatalogError::CapacityOrder { index } => {
                write!(
                    f,
                    "cables {}..{}: capacities must be non-decreasing",
                    index,
                    index + 1
                )
            }
            CatalogError::FixedCostOrder { index } => {
                write!(
                    f,
                    "cables {}..{}: fixed costs must be non-decreasing",
                    index,
                    index + 1
                )
            }
            CatalogError::MarginalCostOrder { index } => write!(
                f,
                "cables {}..{}: marginal costs must be strictly decreasing (economies of scale)",
                index,
                index + 1
            ),
        }
    }
}

impl std::error::Error for CatalogError {}

/// An ordered set of cable types satisfying the economies-of-scale axioms.
#[derive(Clone, Debug, PartialEq)]
pub struct CableCatalog {
    types: Vec<CableType>,
}

impl CableCatalog {
    /// Validates the axioms and builds a catalog.
    pub fn new(types: Vec<CableType>) -> Result<Self, CatalogError> {
        if types.is_empty() {
            return Err(CatalogError::Empty);
        }
        for (i, t) in types.iter().enumerate() {
            let ok = |x: f64| x.is_finite() && x > 0.0;
            if !ok(t.capacity) || !ok(t.fixed_cost) || !ok(t.marginal_cost) {
                return Err(CatalogError::NonPositive { index: i });
            }
        }
        for i in 0..types.len() - 1 {
            if types[i].capacity > types[i + 1].capacity {
                return Err(CatalogError::CapacityOrder { index: i });
            }
            if types[i].fixed_cost > types[i + 1].fixed_cost {
                return Err(CatalogError::FixedCostOrder { index: i });
            }
            if types[i].marginal_cost <= types[i + 1].marginal_cost {
                return Err(CatalogError::MarginalCostOrder { index: i });
            }
        }
        Ok(CableCatalog { types })
    }

    /// The "fictitious, yet realistic" default catalog (paper §4.2,
    /// footnote 8): SONET-era tiers with strong economies of scale.
    /// Capacities in Mb/s; costs chosen so that σ grows sub-linearly in
    /// capacity while δ = σ-amortization per Mb/s falls steeply — consistent
    /// with 2003 wholesale transport pricing structure.
    pub fn realistic_2003() -> Self {
        CableCatalog::new(vec![
            CableType {
                capacity: 45.0,
                fixed_cost: 10.0,
                marginal_cost: 1.0,
                name: "DS-3",
            },
            CableType {
                capacity: 155.0,
                fixed_cost: 22.0,
                marginal_cost: 0.38,
                name: "OC-3",
            },
            CableType {
                capacity: 622.0,
                fixed_cost: 55.0,
                marginal_cost: 0.13,
                name: "OC-12",
            },
            CableType {
                capacity: 2488.0,
                fixed_cost: 140.0,
                marginal_cost: 0.045,
                name: "OC-48",
            },
            CableType {
                capacity: 9953.0,
                fixed_cost: 360.0,
                marginal_cost: 0.016,
                name: "OC-192",
            },
        ])
        .expect("built-in catalog satisfies axioms")
    }

    /// A single-cable catalog (no economies of scale to exploit) — the
    /// ablation baseline for experiment E9a.
    pub fn single(capacity: f64, fixed_cost: f64, marginal_cost: f64) -> Self {
        CableCatalog::new(vec![CableType {
            capacity,
            fixed_cost,
            marginal_cost,
            name: "uniform",
        }])
        .expect("single cable always satisfies axioms")
    }

    /// Randomly generated catalog satisfying the axioms (for property
    /// tests): capacities grow by ×\[2,6\], fixed costs by ×[1.2,3], marginal
    /// costs shrink by ×[0.2,0.8].
    pub fn random(k: usize, rng: &mut impl Rng) -> Self {
        assert!(k > 0);
        let mut types = Vec::with_capacity(k);
        let mut capacity = rng.random_range(1.0..10.0);
        let mut fixed = rng.random_range(1.0..10.0);
        let mut marginal = rng.random_range(0.5..2.0);
        for i in 0..k {
            types.push(CableType {
                capacity,
                fixed_cost: fixed,
                marginal_cost: marginal,
                name: CABLE_NAMES[i % CABLE_NAMES.len()],
            });
            capacity *= rng.random_range(2.0..6.0);
            fixed *= rng.random_range(1.2..3.0);
            marginal *= rng.random_range(0.2..0.8);
        }
        CableCatalog::new(types).expect("construction follows the axioms")
    }

    /// The cable types in capacity order.
    pub fn types(&self) -> &[CableType] {
        &self.types
    }

    /// Number of cable types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Catalogs are never empty, but clippy likes the pair.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The largest capacity in the catalog.
    pub fn max_capacity(&self) -> f64 {
        self.types.last().expect("non-empty").capacity
    }

    /// Cheapest way to carry `flow` on a single link of unit length, using
    /// any number of parallel instances of a **single** cable type (the
    /// standard buy-at-bulk single-type assumption; mixing types on one
    /// link is never cheaper than the best single type by more than a
    /// constant and complicates routing).
    ///
    /// Returns `(type index, instances, cost per unit length)`.
    /// A zero (or negative) flow costs nothing and installs nothing.
    pub fn best_single_type(&self, flow: f64) -> (usize, usize, f64) {
        if flow <= 0.0 {
            return (0, 0, 0.0);
        }
        let mut best = None::<(usize, usize, f64)>;
        for (i, t) in self.types.iter().enumerate() {
            let instances = t.instances_for(flow);
            let cost = instances as f64 * t.fixed_cost + t.marginal_cost * flow;
            if best.is_none_or(|(_, _, c)| cost < c) {
                best = Some((i, instances, cost));
            }
        }
        best.expect("non-empty catalog")
    }

    /// The induced installation cost `f(flow)` per unit length (see
    /// [`best_single_type`](Self::best_single_type)). Monotone in flow and
    /// equal to [`envelope_cost`](Self::envelope_cost) whenever one
    /// instance of the chosen type suffices; beyond the largest capacity it
    /// pays an extra fixed cost per additional parallel instance, so it is
    /// only *approximately* subadditive (within one fixed cost).
    pub fn flow_cost(&self, flow: f64) -> f64 {
        self.best_single_type(flow).2
    }

    /// The concave lower envelope `f(x) = min_k (σₖ + δₖ·x)` used in the
    /// buy-at-bulk analyses (Salman et al.; Meyerson et al.): one instance
    /// of each type, capacities treated as ample. As a minimum of affine
    /// functions with positive intercepts it is concave, strictly
    /// increasing, and subadditive — the "economies of scale" the
    /// approximation guarantees rest on. Zero flow costs zero.
    pub fn envelope_cost(&self, flow: f64) -> f64 {
        if flow <= 0.0 {
            return 0.0;
        }
        self.types
            .iter()
            .map(|t| t.cost_for_flow(flow))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Generic names used by `CableCatalog::random`.
const CABLE_NAMES: [&str; 8] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn realistic_catalog_valid() {
        let cat = CableCatalog::realistic_2003();
        assert_eq!(cat.len(), 5);
        assert_eq!(cat.types()[2].name, "OC-12");
        assert!((cat.max_capacity() - 9953.0).abs() < 1e-9);
    }

    #[test]
    fn axiom_violations_rejected() {
        assert_eq!(CableCatalog::new(vec![]).unwrap_err(), CatalogError::Empty);
        let t = |c: f64, f: f64, m: f64| CableType {
            capacity: c,
            fixed_cost: f,
            marginal_cost: m,
            name: "t",
        };
        // Capacity decreasing.
        assert_eq!(
            CableCatalog::new(vec![t(10.0, 1.0, 1.0), t(5.0, 2.0, 0.5)]).unwrap_err(),
            CatalogError::CapacityOrder { index: 0 }
        );
        // Fixed cost decreasing.
        assert_eq!(
            CableCatalog::new(vec![t(10.0, 2.0, 1.0), t(20.0, 1.0, 0.5)]).unwrap_err(),
            CatalogError::FixedCostOrder { index: 0 }
        );
        // Marginal cost not strictly decreasing.
        assert_eq!(
            CableCatalog::new(vec![t(10.0, 1.0, 1.0), t(20.0, 2.0, 1.0)]).unwrap_err(),
            CatalogError::MarginalCostOrder { index: 0 }
        );
        // Non-positive entries.
        assert_eq!(
            CableCatalog::new(vec![t(0.0, 1.0, 1.0)]).unwrap_err(),
            CatalogError::NonPositive { index: 0 }
        );
        assert_eq!(
            CableCatalog::new(vec![t(1.0, f64::NAN, 1.0)]).unwrap_err(),
            CatalogError::NonPositive { index: 0 }
        );
    }

    #[test]
    fn cost_for_flow_and_instances() {
        let t = CableType {
            capacity: 100.0,
            fixed_cost: 10.0,
            marginal_cost: 0.5,
            name: "x",
        };
        assert!((t.cost_for_flow(20.0) - 20.0).abs() < 1e-12);
        assert_eq!(t.instances_for(0.0), 0);
        assert_eq!(t.instances_for(100.0), 1);
        assert_eq!(t.instances_for(100.1), 2);
    }

    #[test]
    fn small_flow_uses_small_cable() {
        let cat = CableCatalog::realistic_2003();
        let (idx, inst, _) = cat.best_single_type(10.0);
        assert_eq!(cat.types()[idx].name, "DS-3");
        assert_eq!(inst, 1);
    }

    #[test]
    fn large_flow_upgrades_cable() {
        let cat = CableCatalog::realistic_2003();
        let (idx, _, _) = cat.best_single_type(5000.0);
        assert_eq!(cat.types()[idx].name, "OC-192");
    }

    #[test]
    fn zero_flow_costs_nothing() {
        let cat = CableCatalog::realistic_2003();
        assert_eq!(cat.flow_cost(0.0), 0.0);
        assert_eq!(cat.best_single_type(-5.0).1, 0);
    }

    #[test]
    fn single_catalog() {
        let cat = CableCatalog::single(10.0, 5.0, 1.0);
        assert_eq!(cat.len(), 1);
        // 25 units -> 3 instances * 5 fixed + 25 marginal = 40.
        assert!((cat.flow_cost(25.0) - 40.0).abs() < 1e-12);
    }

    proptest! {
        /// Random catalogs satisfy the axioms (constructor would panic
        /// otherwise); the installation cost is monotone and within one
        /// fixed cost of subadditive; the analysis envelope is concave,
        /// monotone, and exactly subadditive.
        #[test]
        fn random_catalog_cost_properties(seed in 0u64..500, k in 1usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cat = CableCatalog::random(k, &mut rng);
            let base = cat.types()[0].capacity;
            let max_fixed = cat.types().last().unwrap().fixed_cost;
            let flows: Vec<f64> = (1..20).map(|i| base * i as f64 / 4.0).collect();
            for &f in &flows {
                // Monotone in flow.
                prop_assert!(cat.flow_cost(f) <= cat.flow_cost(f * 1.5) + 1e-9);
                prop_assert!(cat.envelope_cost(f) <= cat.envelope_cost(f * 1.5) + 1e-9);
                // Envelope lower-bounds installation for single-instance flows.
                if f <= cat.max_capacity() {
                    prop_assert!(cat.envelope_cost(f) <= cat.flow_cost(f) + 1e-9);
                }
                for &g in &flows {
                    // Envelope: exactly subadditive.
                    prop_assert!(
                        cat.envelope_cost(f + g) <= cat.envelope_cost(f) + cat.envelope_cost(g) + 1e-9,
                        "envelope subadditivity failed at {} {}", f, g);
                    // Installation: subadditive up to one extra fixed cost.
                    prop_assert!(
                        cat.flow_cost(f + g) <= cat.flow_cost(f) + cat.flow_cost(g) + max_fixed + 1e-9,
                        "approximate subadditivity failed at {} {}", f, g);
                    // Envelope concavity (midpoint form).
                    let mid = cat.envelope_cost((f + g) / 2.0);
                    prop_assert!(mid + 1e-9 >= (cat.envelope_cost(f) + cat.envelope_cost(g)) / 2.0,
                        "envelope concavity failed at {} {}", f, g);
                }
            }
        }

        /// best_single_type really is the arg-min over exhaustive search.
        #[test]
        fn best_type_is_minimum(seed in 0u64..500, flow in 0.1f64..100_000.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cat = CableCatalog::random(4, &mut rng);
            let (_, _, best) = cat.best_single_type(flow);
            for t in cat.types() {
                let c = t.instances_for(flow) as f64 * t.fixed_cost + t.marginal_cost * flow;
                prop_assert!(best <= c + 1e-9);
            }
        }
    }
}
