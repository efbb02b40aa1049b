//! Bit-exactness of the buy-at-bulk local search against the scan it
//! replaced.
//!
//! `greedy::improve` keeps a gain table of link-cost changes across
//! scans, so a scan re-prices only the entries the last move changed
//! (513 of about 3,400 per scan on E9's inputs), and it tests subtree
//! membership with preorder intervals. It visits each customer's new
//! parents nearest first and stops at a cut derived from the customer's
//! losses and the best move so far, so only about one pair in ten runs
//! the LCA climb. The `reference` module below is the scan it replaced —
//! every pair in (v, u) order, a root walk per subtree test and two fresh
//! link costs per tree edge on both paths to the LCA — kept as the
//! oracle. Both must apply the same moves: the move count, both costs
//! (by `to_bits()`) and every parent agree. Duplicate and collinear
//! customer sites force exact delta ties, where only the same f64
//! operation order and a tie rule that undoes the nearest-first order
//! keep the same first-strict-minimum choice. A negative port charge,
//! which the `LinkCost` struct literal allows, voids the cut's premise
//! that no link costs less as its flow grows; such a search must scan
//! every pair and still agree.

use hotgen::core::buyatbulk::greedy::{improve, mst_route, star, ImproveOutcome};
use hotgen::core::buyatbulk::mmp;
use hotgen::core::buyatbulk::problem::{AccessNetwork, Customer, Instance};
use hotgen::econ::cable::CableCatalog;
use hotgen::econ::cost::LinkCost;
use hotgen::geo::point::Point;
use hotgen::graph::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reparenting search before its cost terms were cached.
mod reference {
    use hotgen::core::buyatbulk::greedy::ImproveOutcome;
    use hotgen::core::buyatbulk::problem::{AccessNetwork, Instance};
    use hotgen::graph::NodeId;

    pub fn improve(instance: &Instance, start: &AccessNetwork, max_moves: usize) -> ImproveOutcome {
        let m = instance.n_customers() + 1;
        let initial_cost = start.total_cost(instance);
        let mut parent = vec![0usize; m];
        for (v, p) in parent.iter_mut().enumerate().skip(1) {
            *p = start
                .tree
                .parent(NodeId(v as u32))
                .expect("non-root")
                .index();
        }
        let mut flow = start.uplink_flows(instance);
        let length = |a: usize, b: usize| instance.node_point(a).dist(&instance.node_point(b));
        let edge_cost = |a: usize, b: usize, x: f64| instance.cost.cost(length(a, b), x);
        let mut moves = 0;
        while moves < max_moves {
            let depth = compute_depths(&parent);
            let mut best: Option<(usize, usize, f64)> = None;
            for v in 1..m {
                let old_p = parent[v];
                let moved_flow = flow[v];
                for u in 0..m {
                    if u == v || u == old_p || in_subtree(&parent, u, v) {
                        continue;
                    }
                    let delta =
                        move_delta(&parent, &flow, &depth, v, old_p, u, moved_flow, &edge_cost);
                    if delta < -1e-9 && best.is_none_or(|(_, _, d)| delta < d) {
                        best = Some((v, u, delta));
                    }
                }
            }
            let Some((v, u, _)) = best else { break };
            let moved = flow[v];
            apply_flow_update(&mut flow, &parent, parent[v], moved, -1.0);
            apply_flow_update(&mut flow, &parent, u, moved, 1.0);
            parent[v] = u;
            moves += 1;
        }
        let solution = AccessNetwork::from_parents(&parent);
        ImproveOutcome {
            final_cost: solution.total_cost(instance),
            solution,
            initial_cost,
            moves,
        }
    }

    /// Depth of every node under the parent array (root = 0 at depth 0).
    pub fn compute_depths(parent: &[usize]) -> Vec<u32> {
        let m = parent.len();
        let mut depth = vec![u32::MAX; m];
        depth[0] = 0;
        for v in 1..m {
            // Walk up until a known depth, then unwind.
            let mut path = vec![v];
            let mut cur = v;
            while depth[cur] == u32::MAX {
                cur = parent[cur];
                path.push(cur);
            }
            let mut d = depth[cur];
            for &w in path.iter().rev().skip(1) {
                d += 1;
                depth[w] = d;
            }
        }
        depth
    }

    /// Whether `u` lies in the subtree rooted at `v` (inclusive).
    pub fn in_subtree(parent: &[usize], mut u: usize, v: usize) -> bool {
        loop {
            if u == v {
                return true;
            }
            if u == 0 {
                return false;
            }
            u = parent[u];
        }
    }

    /// Exact cost delta of reparenting `v` (carrying `moved_flow`) from
    /// `old_p` to `new_p`, pricing every link afresh.
    #[allow(
        clippy::too_many_arguments,
        reason = "the oracle keeps the replaced scan's signature as it was"
    )]
    fn move_delta(
        parent: &[usize],
        flow: &[f64],
        depth: &[u32],
        v: usize,
        old_p: usize,
        new_p: usize,
        moved_flow: f64,
        edge_cost: &impl Fn(usize, usize, f64) -> f64,
    ) -> f64 {
        let mut delta = edge_cost(v, new_p, moved_flow) - edge_cost(v, old_p, moved_flow);
        let (mut a, mut b) = (old_p, new_p);
        while depth[a] > depth[b] {
            let pa = parent[a];
            delta += edge_cost(a, pa, flow[a] - moved_flow) - edge_cost(a, pa, flow[a]);
            a = pa;
        }
        while depth[b] > depth[a] {
            let pb = parent[b];
            delta += edge_cost(b, pb, flow[b] + moved_flow) - edge_cost(b, pb, flow[b]);
            b = pb;
        }
        while a != b {
            let pa = parent[a];
            delta += edge_cost(a, pa, flow[a] - moved_flow) - edge_cost(a, pa, flow[a]);
            a = pa;
            let pb = parent[b];
            delta += edge_cost(b, pb, flow[b] + moved_flow) - edge_cost(b, pb, flow[b]);
            b = pb;
        }
        delta
    }

    fn apply_flow_update(flow: &mut [f64], parent: &[usize], from: usize, amount: f64, sign: f64) {
        let mut cur = from;
        while cur != 0 {
            flow[cur] += sign * amount;
            cur = parent[cur];
        }
    }
}

#[test]
fn subtree_membership() {
    // Chain 0 <- 1 <- 2 <- 3.
    let parent = vec![0, 0, 1, 2];
    assert!(reference::in_subtree(&parent, 3, 1));
    assert!(reference::in_subtree(&parent, 2, 2));
    assert!(!reference::in_subtree(&parent, 1, 3));
    assert!(!reference::in_subtree(&parent, 0, 1));
}

#[test]
fn depths_computed_iteratively() {
    let parent = vec![0, 0, 1, 2, 2];
    assert_eq!(reference::compute_depths(&parent), vec![0, 1, 2, 3, 3]);
}

/// A test instance of `n` customers around a sink at (0.5, 0.5).
///
/// `layout`: 0 scatters them uniformly; 1 stacks them on `1 + n / 4`
/// shared sites; 2 puts them on a 0.05-spaced line through the sink;
/// 3 on a 1/16-spaced horizontal line and 4 on a 1/8 grid, where many
/// links have bit-identical lengths. `tariff`: 0 the 5-tier catalog,
/// 1 the same with port charges, 2 the flat 1-tier catalog, 3 the
/// 5-tier catalog with a negative port charge. `demand`: 0 mixed
/// sizes, 1 all 15 up to a few ulps, 2 all 0.7.
fn instance(n: usize, layout: usize, tariff: usize, demand: usize, rng: &mut StdRng) -> Instance {
    let cost = match tariff {
        0 => LinkCost::cables_only(CableCatalog::realistic_2003()),
        1 => LinkCost {
            catalog: CableCatalog::realistic_2003(),
            port_cost: rng.random_range(0.5..50.0),
        },
        2 => LinkCost::cables_only(CableCatalog::single(45.0, 10.0, 1.0)),
        _ => LinkCost {
            catalog: CableCatalog::realistic_2003(),
            port_cost: rng.random_range(-50.0..-0.5),
        },
    };
    let sites: Vec<Point> = (0..1 + n / 4)
        .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    let customers = (0..n)
        .map(|_| {
            let location = match layout {
                0 => Point::new(
                    0.5 + step(rng, 1 << 20) / 2e6,
                    0.5 + step(rng, 1 << 20) / 2e6,
                ),
                1 => sites[rng.random_range(0..sites.len())],
                2 => {
                    let offset = step(rng, 8) * 0.05;
                    Point::new(0.5 + offset, 0.5 + offset / 2.0)
                }
                3 => Point::new(0.5 + step(rng, 8) / 16.0, 0.5),
                _ => Point::new(0.5 + step(rng, 4) / 8.0, 0.5 + step(rng, 4) / 8.0),
            };
            let demand = match demand {
                0 => [1.0, 15.0, 15.0, 40.0, 0.7][step(rng, 2) as usize + 2],
                1 => 15.0 * (1.0 + (step(rng, 2) + 2.0) * f64::EPSILON),
                _ => 0.7,
            };
            Customer { location, demand }
        })
        .collect();
    Instance::new(Point::new(0.5, 0.5), customers, cost)
}

/// A uniform integer in `-k..=k`, as a float.
fn step(rng: &mut StdRng, k: i32) -> f64 {
    rng.random_range(-k..k + 1) as f64
}

fn parents(out: &ImproveOutcome) -> Vec<usize> {
    (1..out.solution.len())
        .map(|v| out.solution.tree.parent(NodeId(v as u32)).unwrap().index())
        .collect()
}

/// Runs both searches on one generated case and compares them bit for bit.
fn check(
    n: usize,
    (layout, tariff, demand): (usize, usize, usize),
    start_kind: usize,
    max_moves: usize,
    seed: u64,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = instance(n, layout, tariff, demand, &mut rng);
    let start: AccessNetwork = match start_kind {
        0 => star(&inst),
        1 => mst_route(&inst),
        _ => mmp::solve(&inst, &mut rng),
    };
    let got = improve(&inst, &start, max_moves);
    let want = reference::improve(&inst, &start, max_moves);
    let case = format!(
        "n = {}, layout = {}, tariff = {}, demand = {}, start = {}, budget = {}, seed = {}",
        n, layout, tariff, demand, start_kind, max_moves, seed
    );
    prop_assert_eq!(got.moves, want.moves, "moves: {case}");
    prop_assert_eq!(
        got.initial_cost.to_bits(),
        want.initial_cost.to_bits(),
        "{case}"
    );
    prop_assert_eq!(
        got.final_cost.to_bits(),
        want.final_cost.to_bits(),
        "{case}"
    );
    prop_assert_eq!(parents(&got), parents(&want), "parents: {case}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every layout, tariff and start, n up to 80, budgets 0, 1, 3 and
    /// 2000 (a local optimum).
    #[test]
    fn improve_matches_reference_bit_for_bit(
        n in 1usize..81,
        family in (0usize..5, 0usize..3, 0usize..3),
        start_kind in 0usize..3,
        budget in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        check(n, family, start_kind, [0, 1, 3, 2000][budget], seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    /// Small instances searched to a local optimum under the flat
    /// catalog on the line and grid layouts. There a link's cost change
    /// is linear in the moved flow, and equal-length links make many
    /// candidate deltas equal up to rounding, so a change in the f64
    /// order of the climb changes some chosen move: adding a gain before
    /// its paired loss, or summing a path before adding it, each fails
    /// within the first 400 cases.
    #[test]
    fn tied_deltas_keep_the_reference_choice(
        n in 2usize..25,
        family in (2usize..5, 2usize..3, 0usize..2),
        start_kind in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        check(n, family, start_kind, 2000, seed)?;
    }
}

/// Searches under a negative port charge, where the rows run uncut:
/// every layout, start and demand mix, n up to 60, to a local optimum.
#[test]
fn negative_port_charges_match_reference() {
    for seed in 0..30u64 {
        let s = seed as usize;
        let n = 2 + 7 * s % 59;
        check(n, (s % 5, 3, s % 3), s % 3, 2000, seed).unwrap();
    }
}
