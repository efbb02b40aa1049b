//! Technology and demand trends driving the temporal engine.
//!
//! The paper's §5 framing: the internet the generators try to imitate is
//! not a draw from a distribution but the running output of providers
//! re-optimizing under *moving* constraints — transport cost per bit
//! falls on a Moore's-law-like curve while aggregate demand compounds.
//! [`TechTrend`] is that pair of exponentials. Scaling every fixed and
//! marginal cost of a [`CableCatalog`](crate::cable::CableCatalog) by
//! one positive factor preserves all three economies-of-scale axioms
//! (the orderings compare costs of the same kind), so a cost evaluated
//! on the base catalog and multiplied by [`TechTrend::cost_factor`] is
//! the epoch's price.

/// Per-epoch multiplicative technology/demand drift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TechTrend {
    /// Cost multiplier per epoch, in `(0, 1]` (1 = static technology).
    pub cost_decline: f64,
    /// Demand multiplier per epoch, `≥ 1` (1 = static demand).
    pub demand_growth: f64,
}

impl TechTrend {
    /// Whether `cost_decline` is a per-epoch cost multiplier
    /// [`Self::new`] accepts: in `(0, 1]` (so not NaN).
    pub fn cost_decline_is_valid(cost_decline: f64) -> bool {
        cost_decline > 0.0 && cost_decline <= 1.0
    }

    /// Whether `demand_growth` is a per-epoch demand multiplier
    /// [`Self::new`] accepts: finite and at least 1.
    pub fn demand_growth_is_valid(demand_growth: f64) -> bool {
        demand_growth >= 1.0 && demand_growth.is_finite()
    }

    /// Validated constructor.
    pub fn new(cost_decline: f64, demand_growth: f64) -> Self {
        assert!(
            Self::cost_decline_is_valid(cost_decline),
            "cost_decline must be in (0, 1], got {}",
            cost_decline
        );
        assert!(
            Self::demand_growth_is_valid(demand_growth),
            "demand_growth must be >= 1, got {}",
            demand_growth
        );
        TechTrend {
            cost_decline,
            demand_growth,
        }
    }

    /// No drift: costs and demand frozen at epoch-0 levels.
    pub fn flat() -> Self {
        TechTrend::new(1.0, 1.0)
    }

    /// The late-90s/early-2000s regime the paper writes against:
    /// transport cost falling ~10% per epoch while demand compounds
    /// ~35% — traffic roughly doubles every two to three epochs.
    pub fn dotcom() -> Self {
        TechTrend::new(0.90, 1.35)
    }

    /// Cost multiplier after `epoch` epochs (`cost_decline ^ epoch`).
    pub fn cost_factor(&self, epoch: u64) -> f64 {
        self.cost_decline.powi(epoch.min(i32::MAX as u64) as i32)
    }

    /// Demand multiplier after `epoch` epochs (`demand_growth ^ epoch`).
    pub fn demand_factor(&self, epoch: u64) -> f64 {
        self.demand_growth.powi(epoch.min(i32::MAX as u64) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_compound() {
        let t = TechTrend::new(0.5, 2.0);
        assert_eq!(t.cost_factor(0), 1.0);
        assert_eq!(t.cost_factor(3), 0.125);
        assert_eq!(t.demand_factor(3), 8.0);
        let flat = TechTrend::flat();
        assert_eq!(flat.cost_factor(100), 1.0);
        assert_eq!(flat.demand_factor(100), 1.0);
    }

    #[test]
    #[should_panic(expected = "cost_decline")]
    fn rising_costs_are_rejected() {
        TechTrend::new(1.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "demand_growth")]
    fn shrinking_demand_is_rejected() {
        TechTrend::new(1.0, 0.9);
    }
}
