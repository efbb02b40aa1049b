//! The Esau–Williams heuristic for the capacitated minimum spanning tree
//! (CMST) problem.
//!
//! Terminals with demands must be connected to a central node; each
//! subtree hanging off the center may carry at most `capacity` demand
//! (line/concentrator limit — a *technology constraint* in the paper's
//! vocabulary). Esau–Williams starts from the star and repeatedly applies
//! the largest positive *trade-off* (saving): reconnect a component's
//! center-link through a neighboring component when that is cheaper and
//! the merged demand fits.
//!
//! The result is the classic access-tree shape: short local runs feeding
//! shared trunks toward the center.

use hot_geo::point::Point;
use hot_graph::unionfind::UnionFind;

/// A CMST instance.
#[derive(Clone, Debug)]
pub struct CmstInstance {
    /// The central node.
    pub center: Point,
    /// Terminal locations.
    pub terminals: Vec<Point>,
    /// Terminal demands (same length as `terminals`).
    pub demands: Vec<f64>,
    /// Maximum demand per subtree hanging off the center.
    pub capacity: f64,
}

/// A CMST solution: for each terminal, its parent (`None` = the center).
#[derive(Clone, Debug)]
pub struct CmstSolution {
    /// Parent of each terminal: `None` means a direct link to the center.
    pub parent: Vec<Option<usize>>,
    /// Total Euclidean length of the tree.
    pub total_length: f64,
}

impl CmstSolution {
    /// Demand carried into the center by each root terminal's subtree.
    pub fn subtree_demands(&self, instance: &CmstInstance) -> Vec<(usize, f64)> {
        let n = self.parent.len();
        // Accumulate demand up to each terminal's root.
        let mut root = vec![usize::MAX; n];
        fn find_root(v: usize, parent: &[Option<usize>], root: &mut [usize]) -> usize {
            if root[v] != usize::MAX {
                return root[v];
            }
            let r = match parent[v] {
                None => v,
                Some(p) => find_root(p, parent, root),
            };
            root[v] = r;
            r
        }
        let mut by_root: Vec<f64> = vec![0.0; n];
        for v in 0..n {
            let r = find_root(v, &self.parent, &mut root);
            by_root[r] += instance.demands[v];
        }
        (0..n)
            .filter(|&v| self.parent[v].is_none())
            .map(|v| (v, by_root[v]))
            .collect()
    }

    /// Undirected degree of each node; index `n` is the center.
    pub fn degree_sequence(&self, _instance: &CmstInstance) -> Vec<usize> {
        let n = self.parent.len();
        let mut deg = vec![0usize; n + 1];
        for (v, p) in self.parent.iter().enumerate() {
            match p {
                None => {
                    deg[v] += 1;
                    deg[n] += 1;
                }
                Some(u) => {
                    deg[v] += 1;
                    deg[*u] += 1;
                }
            }
        }
        deg
    }
}

/// Runs Esau–Williams.
///
/// # Panics
///
/// Panics if arrays disagree in length, any demand is non-positive, or a
/// single terminal's demand exceeds the capacity (then no feasible
/// solution exists).
pub fn solve(instance: &CmstInstance) -> CmstSolution {
    let n = instance.terminals.len();
    assert_eq!(
        n,
        instance.demands.len(),
        "terminals and demands must align"
    );
    for (i, &d) in instance.demands.iter().enumerate() {
        assert!(
            d > 0.0 && d.is_finite(),
            "terminal {} has invalid demand",
            i
        );
        assert!(
            d <= instance.capacity,
            "terminal {} demand {} exceeds subtree capacity {}",
            i,
            d,
            instance.capacity
        );
    }
    let center_dist: Vec<f64> = instance
        .terminals
        .iter()
        .map(|t| t.dist(&instance.center))
        .collect();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut uf = UnionFind::new(n);
    // Demand and center-link length per component root (indexed by the
    // union-find representative).
    let mut comp_demand: Vec<f64> = instance.demands.clone();
    // The length of the component's current link to the center: initially
    // each terminal's own center distance. When components merge, the
    // surviving center link is the absorbing component's.
    let mut comp_center_link: Vec<f64> = center_dist.clone();
    loop {
        // Find the best trade-off: connect component-root link of i's
        // component through terminal j in another component, saving
        // comp_center_link(comp(i)) − dist(i, j), where i must currently
        // be the node whose component connects via i's center link...
        //
        // Standard EW bookkeeping: the saving of joining terminal i to
        // terminal j is t_ij = d(comp_root_link of i's component) − d(i,j).
        // We evaluate all pairs; n is metro-scale (≤ a few hundred).
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            let ci = uf.find(i);
            for j in 0..n {
                if i == j {
                    continue;
                }
                let cj = uf.find(j);
                if ci == cj {
                    continue;
                }
                if comp_demand[ci] + comp_demand[cj] > instance.capacity {
                    continue;
                }
                let saving =
                    comp_center_link[ci] - instance.terminals[i].dist(&instance.terminals[j]);
                if saving > 1e-12 && best.is_none_or(|(_, _, s)| saving > s) {
                    best = Some((i, j, saving));
                }
            }
        }
        let Some((i, j, _)) = best else { break };
        // Reconnect: i's component stops using its center link and instead
        // hangs i under j. Re-root i's component so that i becomes its
        // root-facing node (reverse parent pointers on the path from i to
        // its old component root).
        reroot_component(&mut parent, i);
        parent[i] = Some(j);
        let ci = uf.find(i);
        let cj = uf.find(j);
        let merged_demand = comp_demand[ci] + comp_demand[cj];
        let survivor_link = comp_center_link[cj];
        uf.union(i, j);
        let root = uf.find(i);
        comp_demand[root] = merged_demand;
        comp_center_link[root] = survivor_link;
    }
    // Total length: tree edges plus each component root's center link.
    let mut total = 0.0;
    for v in 0..n {
        total += match parent[v] {
            None => center_dist[v],
            Some(u) => instance.terminals[v].dist(&instance.terminals[u]),
        };
    }
    CmstSolution {
        parent,
        total_length: total,
    }
}

/// Reverses parent pointers so `v` becomes the component's root
/// (the node with `parent == None`).
fn reroot_component(parent: &mut [Option<usize>], v: usize) {
    let mut prev: Option<usize> = None;
    let mut cur = v;
    loop {
        let next = parent[cur];
        parent[cur] = prev;
        match next {
            None => break,
            Some(u) => {
                prev = Some(cur);
                cur = u;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn line_instance(capacity: f64) -> CmstInstance {
        CmstInstance {
            center: Point::new(0.0, 0.0),
            terminals: vec![
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
            ],
            demands: vec![1.0, 1.0, 1.0],
            capacity,
        }
    }

    #[test]
    fn uncapacitated_line_becomes_chain() {
        let sol = solve(&line_instance(100.0));
        assert_eq!(sol.parent[0], None);
        assert_eq!(sol.parent[1], Some(0));
        assert_eq!(sol.parent[2], Some(1));
        assert!((sol.total_length - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tight_capacity_forces_star() {
        let sol = solve(&line_instance(1.0));
        assert!(sol.parent.iter().all(Option::is_none));
        assert!((sol.total_length - 6.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_two_splits_components() {
        let sol = solve(&line_instance(2.0));
        let demands = sol.subtree_demands(&line_instance(2.0));
        for (_, d) in &demands {
            assert!(*d <= 2.0 + 1e-12);
        }
        // All three can't merge; at least two components.
        assert!(demands.len() >= 2);
    }

    #[test]
    fn subtree_demands_sum_to_total() {
        let inst = line_instance(2.0);
        let sol = solve(&inst);
        let total: f64 = sol.subtree_demands(&inst).iter().map(|(_, d)| d).sum();
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn degree_sequence_sums() {
        let inst = line_instance(100.0);
        let sol = solve(&inst);
        let deg = sol.degree_sequence(&inst);
        // Tree on n+1 nodes (with center): edges = n, degree sum = 2n.
        assert_eq!(deg.iter().sum::<usize>(), 2 * inst.terminals.len());
    }

    #[test]
    #[should_panic(expected = "exceeds subtree capacity")]
    fn oversized_terminal_rejected() {
        let mut inst = line_instance(1.0);
        inst.demands[1] = 5.0;
        solve(&inst);
    }

    #[test]
    fn reroot_reverses_chain() {
        // 0 <- 1 <- 2 (0 is root).
        let mut parent = vec![None, Some(0), Some(1)];
        reroot_component(&mut parent, 2);
        assert_eq!(parent, vec![Some(1), Some(2), None]);
    }

    #[test]
    fn ew_no_longer_than_star() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let n = 30;
            let terminals: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
                .collect();
            let inst = CmstInstance {
                center: Point::new(0.0, 0.0),
                demands: vec![1.0; n],
                capacity: 5.0,
                terminals,
            };
            let star_len: f64 = inst.terminals.iter().map(|t| t.dist(&inst.center)).sum();
            let sol = solve(&inst);
            assert!(sol.total_length <= star_len + 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Capacity feasibility and forest structure hold for random inputs.
        #[test]
        fn solution_is_feasible_forest(seed in 0u64..500, n in 1usize..40, cap in 1.0f64..10.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let terminals: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)))
                .collect();
            let demands: Vec<f64> = (0..n).map(|_| rng.random_range(0.1..1.0)).collect();
            let inst = CmstInstance {
                center: Point::new(5.0, 5.0),
                terminals,
                demands,
                capacity: cap,
            };
            let sol = solve(&inst);
            // Every subtree within capacity.
            for (_, d) in sol.subtree_demands(&inst) {
                prop_assert!(d <= cap + 1e-9);
            }
            // Forest: no cycles — walking up from any node reaches None
            // within n steps.
            for mut v in 0..n {
                let mut steps = 0;
                while let Some(p) = sol.parent[v] {
                    v = p;
                    steps += 1;
                    prop_assert!(steps <= n, "cycle detected");
                }
            }
        }
    }
}
