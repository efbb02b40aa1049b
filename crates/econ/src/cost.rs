//! Link cost models: distance-scaled cable costs plus fixed site charges.
//!
//! A link's cost in the design formulations is
//! `length × (catalog flow cost)` plus optional per-end equipment charges
//! (router ports / line cards), which is how the technology constraints of
//! §2.1 enter the economics.

use crate::cable::CableCatalog;

/// Cost model for a candidate link.
#[derive(Clone, Debug)]
pub struct LinkCost {
    /// Cable catalog used for the length-proportional part.
    pub catalog: CableCatalog,
    /// Fixed cost per link end (port/line-card charge), independent of
    /// length and flow.
    pub port_cost: f64,
}

impl LinkCost {
    /// A cost model with no port charges.
    pub fn cables_only(catalog: CableCatalog) -> Self {
        LinkCost {
            catalog,
            port_cost: 0.0,
        }
    }

    /// Total cost of a link of `length` carrying `flow`.
    ///
    /// Zero flow means no link is installed: cost 0.
    pub fn cost(&self, length: f64, flow: f64) -> f64 {
        self.price(flow).at(length)
    }

    /// Prices `flow` once (one catalog search), so it can be costed on
    /// links of many lengths; `price(flow).at(length)` is
    /// [`cost`](Self::cost)`(length, flow)`, bit for bit.
    pub fn price(&self, flow: f64) -> FlowPrice {
        FlowPrice {
            per_length: if flow <= 0.0 {
                None
            } else {
                Some(self.catalog.flow_cost(flow))
            },
            port_cost: self.port_cost,
        }
    }

    /// Incremental cost of raising a link's flow from `old_flow` to
    /// `new_flow` (the quantity the greedy/incremental algorithms price).
    pub fn incremental_cost(&self, length: f64, old_flow: f64, new_flow: f64) -> f64 {
        self.cost(length, new_flow) - self.cost(length, old_flow)
    }

    /// The cable choice for a link carrying `flow`:
    /// `(type index, instances)`.
    pub fn cable_choice(&self, flow: f64) -> (usize, usize) {
        let (idx, inst, _) = self.catalog.best_single_type(flow);
        (idx, inst)
    }
}

/// A flow priced under a [`LinkCost`] (see [`LinkCost::price`]).
#[derive(Clone, Copy, Debug)]
pub struct FlowPrice {
    /// Catalog cost per unit length; `None` when the flow installs no
    /// link.
    per_length: Option<f64>,
    port_cost: f64,
}

impl FlowPrice {
    /// Total cost of a link of `length` carrying the priced flow.
    pub fn at(&self, length: f64) -> f64 {
        match self.per_length {
            None => 0.0,
            Some(per_length) => {
                debug_assert!(length >= 0.0, "negative length");
                length * per_length + 2.0 * self.port_cost
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cable::CableCatalog;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model() -> LinkCost {
        LinkCost {
            catalog: CableCatalog::realistic_2003(),
            port_cost: 50.0,
        }
    }

    #[test]
    fn zero_flow_is_free() {
        let m = model();
        assert_eq!(m.cost(100.0, 0.0), 0.0);
    }

    #[test]
    fn cost_scales_with_length() {
        let m = LinkCost::cables_only(CableCatalog::realistic_2003());
        let c1 = m.cost(1.0, 10.0);
        let c2 = m.cost(7.0, 10.0);
        assert!((c2 - 7.0 * c1).abs() < 1e-9);
    }

    #[test]
    fn port_cost_added_once_per_end() {
        let m = model();
        let bare = LinkCost::cables_only(m.catalog.clone());
        assert!((m.cost(3.0, 10.0) - bare.cost(3.0, 10.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_cost_matches_difference() {
        let m = model();
        let inc = m.incremental_cost(5.0, 10.0, 200.0);
        assert!((inc - (m.cost(5.0, 200.0) - m.cost(5.0, 10.0))).abs() < 1e-12);
        // Installing from zero includes the fixed parts.
        let from_zero = m.incremental_cost(5.0, 0.0, 10.0);
        assert!((from_zero - m.cost(5.0, 10.0)).abs() < 1e-12);
    }

    #[test]
    fn priced_flow_costs_any_length() {
        let m = model();
        for flow in [-3.0, 0.0, 10.0, 200.0, 9000.0, 50_000.0] {
            let price = m.price(flow);
            for length in [0.0, 0.25, 3.0, 1e4] {
                let want = if flow <= 0.0 {
                    0.0
                } else {
                    length * m.catalog.flow_cost(flow) + 2.0 * m.port_cost
                };
                assert_eq!(price.at(length).to_bits(), want.to_bits());
                assert_eq!(m.cost(length, flow).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn cable_choice_tracks_flow() {
        let m = model();
        let (small_idx, _) = m.cable_choice(10.0);
        let (big_idx, _) = m.cable_choice(9000.0);
        assert!(big_idx > small_idx);
    }

    proptest! {
        /// As f64 values, a link's cost never falls as its flow grows,
        /// and a priced flow never costs less on a longer link: the
        /// premise of the row cuts in `greedy::improve`. Catalogs are
        /// random (1 to 5 types), the 5-tier one and the flat one, with
        /// port charges in [0, 50]. Flows cover a negative one, both
        /// zeros, subnormals, every breakpoint where a cable type needs
        /// one more instance (1 to 3 times its capacity) one ulp either
        /// side, and random flows; checking each neighbour pair in flow
        /// order covers every `f1 <= f2` by transitivity.
        #[test]
        fn cost_is_nondecreasing_in_flow_and_length(
            seed in 0u64..1_000_000,
            kind in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let catalog = match kind {
                0 => CableCatalog::random(rng.random_range(1..6), &mut rng),
                1 => CableCatalog::realistic_2003(),
                _ => CableCatalog::single(45.0, 10.0, 1.0),
            };
            let model = LinkCost {
                catalog,
                port_cost: rng.random_range(0.0..=50.0),
            };
            let mut flows = vec![
                -1.0,
                -0.0,
                0.0,
                f64::from_bits(1),
                f64::MIN_POSITIVE.next_down(),
                f64::MIN_POSITIVE,
            ];
            for t in model.catalog.types() {
                for k in 1..=3 {
                    let breakpoint = t.capacity * k as f64;
                    flows.extend([breakpoint.next_down(), breakpoint, breakpoint.next_up()]);
                }
            }
            let top = 4.0 * model.catalog.max_capacity();
            flows.extend((0..32).map(|_| rng.random_range(0.0..top)));
            flows.sort_by(f64::total_cmp);
            let lengths = [0.0, f64::from_bits(1), 1e-3, 0.5, 1.0, 7.25, 1e4];
            for length in lengths {
                for pair in flows.windows(2) {
                    let (low, high) = (model.cost(length, pair[0]), model.cost(length, pair[1]));
                    prop_assert!(
                        low <= high,
                        "length {}: cost {} at flow {} above {} at flow {}",
                        length, low, pair[0], high, pair[1]
                    );
                }
            }
            for flow in flows {
                let price = model.price(flow);
                for pair in lengths.windows(2) {
                    let (short, long) = (price.at(pair[0]), price.at(pair[1]));
                    prop_assert!(
                        short <= long,
                        "flow {}: cost {} at length {} above {} at length {}",
                        flow, short, pair[0], long, pair[1]
                    );
                }
            }
        }
    }
}
