//! Power-Law Random Graph (Aiello–Chung–Lu, STOC'00 — reference \[1\]):
//! a configuration-model graph with a prescribed power-law degree
//! sequence.
//!
//! The purest form of degree-based generation: *start* from the degree
//! distribution (the thing measurement papers report) and wire stubs
//! uniformly at random. Whatever structure the Internet has beyond its
//! degree sequence, PLRG lacks by construction — the cleanest possible
//! foil for the paper's argument.

use hot_graph::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Draws a power-law degree sequence: `P(degree = k) ∝ k^{−gamma}` for
/// `k ∈ [min_degree, max_degree]`, with the total made even (one stub is
/// removed from a max-degree node if needed).
pub fn power_law_degrees(
    n: usize,
    gamma: f64,
    min_degree: usize,
    max_degree: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    assert!(
        min_degree >= 1 && max_degree >= min_degree,
        "bad degree bounds"
    );
    assert!(gamma > 0.0, "gamma must be positive");
    // Inverse-CDF table over the discrete support.
    let weights: Vec<f64> = (min_degree..=max_degree)
        .map(|k| (k as f64).powf(-gamma))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut degrees: Vec<usize> = (0..n)
        .map(|_| {
            let mut pick = rng.random_range(0.0..total);
            for (i, w) in weights.iter().enumerate() {
                pick -= w;
                if pick <= 0.0 {
                    return min_degree + i;
                }
            }
            max_degree
        })
        .collect();
    if degrees.iter().sum::<usize>() % 2 == 1 {
        // Make the stub count even by incrementing (not decrementing, to
        // preserve the min-degree floor) some node.
        let i = rng.random_range(0..n);
        degrees[i] += 1;
    }
    degrees
}

/// Configuration-model wiring of a degree sequence.
///
/// Stubs are shuffled and paired; self-loops and duplicate pairs are
/// discarded (the standard "erased configuration model"), so realized
/// degrees can fall slightly below the prescription — the same pragmatic
/// choice Inet/PLRG implementations make.
///
/// # Panics
///
/// Panics if the degree sum is odd (use [`power_law_degrees`], which
/// guarantees evenness) or a degree exceeds `n − 1`.
pub fn configuration_model(degrees: &[usize], rng: &mut impl Rng) -> Graph<(), ()> {
    let n = degrees.len();
    let stubs_total: usize = degrees.iter().sum();
    assert!(stubs_total.is_multiple_of(2), "degree sum must be even");
    for (i, &d) in degrees.iter().enumerate() {
        assert!(d < n.max(1), "degree of node {} exceeds n-1", i);
    }
    let mut stubs: Vec<u32> = Vec::with_capacity(stubs_total);
    for (i, &d) in degrees.iter().enumerate() {
        for _ in 0..d {
            stubs.push(i as u32);
        }
    }
    stubs.shuffle(rng);
    let mut g = Graph::with_capacity(n, stubs_total / 2);
    for _ in 0..n {
        g.add_node(());
    }
    let mut used = std::collections::HashSet::with_capacity(stubs_total / 2);
    for pair in stubs.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        if a == b {
            continue; // erase self-loop
        }
        let key = (a.min(b), a.max(b));
        if used.insert(key) {
            g.add_edge(NodeId(key.0), NodeId(key.1), ());
        }
    }
    g
}

/// Convenience: PLRG with the given exponent.
pub fn generate(n: usize, gamma: f64, min_degree: usize, rng: &mut impl Rng) -> Graph<(), ()> {
    let max_degree = ((n as f64).sqrt() as usize).max(min_degree + 1);
    let degrees = power_law_degrees(n, gamma, min_degree, max_degree, rng);
    configuration_model(&degrees, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degree_sequence_in_bounds_and_even() {
        let mut rng = StdRng::seed_from_u64(1);
        let degs = power_law_degrees(500, 2.2, 1, 40, &mut rng);
        assert_eq!(degs.len(), 500);
        assert_eq!(degs.iter().sum::<usize>() % 2, 0);
        // One node may exceed max_degree by 1 due to the evenness fix.
        assert!(degs.iter().all(|&d| (1..=41).contains(&d)));
    }

    #[test]
    fn power_law_is_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let degs = power_law_degrees(2000, 2.1, 1, 100, &mut rng);
        let ones = degs.iter().filter(|&&d| d == 1).count();
        let heavy = degs.iter().filter(|&&d| d >= 10).count();
        assert!(ones > 1000, "{} degree-1 nodes", ones);
        assert!(heavy > 10, "{} heavy nodes", heavy);
    }

    #[test]
    fn configuration_model_respects_degrees_approximately() {
        let mut rng = StdRng::seed_from_u64(3);
        let degrees = vec![3, 2, 2, 2, 1, 2];
        let g = configuration_model(&degrees, &mut rng);
        assert_eq!(g.node_count(), 6);
        // Erasure only removes edges, never adds.
        for (v, &want) in degrees.iter().enumerate() {
            assert!(g.degree(NodeId(v as u32)) <= want);
        }
        assert!(g.edge_count() <= 6);
    }

    #[test]
    #[should_panic(expected = "degree sum must be even")]
    fn odd_sum_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        configuration_model(&[1, 1, 1], &mut rng);
    }

    #[test]
    fn generate_end_to_end() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generate(1000, 2.2, 1, &mut rng);
        assert_eq!(g.node_count(), 1000);
        assert!(g.edge_count() > 400);
        let max_deg = g.degree_sequence().into_iter().max().unwrap();
        assert!(max_deg >= 10, "max degree {}", max_deg);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(300, 2.5, 1, &mut StdRng::seed_from_u64(6));
        let b = generate(300, 2.5, 1, &mut StdRng::seed_from_u64(6));
        assert_eq!(a.degree_sequence(), b.degree_sequence());
    }
}
