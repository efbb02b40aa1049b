//! Integration tests for the `hot-bgp` policy-routing subsystem: the
//! batched propagation must agree with the small reference BFS below
//! on generator-built internets, never beat the unrestricted shortest
//! path, stay bit-identical across thread counts, and derive AS classes
//! that match the economics the generator wired.

use hotgen::bgp::{policy_summary, policy_summary_all, AsClass, AsTopology, UNREACHED};
use hotgen::core::isp::generator::IspConfig;
use hotgen::core::peering::{generate_internet, Internet, InternetConfig, Relationship};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// The reference AS-level relationship network: one adjacency `Vec`
/// per AS and relationship, queried by plain queue BFS.
struct AsNetwork {
    /// `providers[a]` = ASes that sell transit *to* `a`.
    providers: Vec<Vec<usize>>,
    /// `customers[a]` = ASes that buy transit *from* `a`.
    customers: Vec<Vec<usize>>,
    /// `peers[a]` = settlement-free peers of `a`.
    peers: Vec<Vec<usize>>,
}

impl AsNetwork {
    /// Duplicate peering links between a pair collapse to one adjacency.
    fn from_internet(net: &Internet) -> AsNetwork {
        let n = net.isps.len();
        let mut providers = vec![Vec::new(); n];
        let mut customers = vec![Vec::new(); n];
        let mut peers = vec![Vec::new(); n];
        for link in &net.peering {
            match link.relationship {
                Relationship::PeerPeer => {
                    peers[link.isp_a].push(link.isp_b);
                    peers[link.isp_b].push(link.isp_a);
                }
                // isp_a provides transit to isp_b.
                Relationship::ProviderCustomer => {
                    customers[link.isp_a].push(link.isp_b);
                    providers[link.isp_b].push(link.isp_a);
                }
            }
        }
        for lists in [&mut providers, &mut customers, &mut peers] {
            for v in lists.iter_mut() {
                v.sort_unstable();
                v.dedup();
            }
        }
        AsNetwork {
            providers,
            customers,
            peers,
        }
    }

    /// Queue BFS over `(as, phase)` states from `(src, 0)`, where
    /// `moves` lists a state's successors; each AS's distance is its
    /// best over its phases.
    fn bfs(
        &self,
        src: usize,
        moves: impl Fn(usize, usize) -> Vec<(usize, usize)>,
    ) -> Vec<Option<u32>> {
        let mut dist = vec![[None::<u32>; 3]; self.providers.len()];
        let mut queue = VecDeque::from([(src, 0)]);
        dist[src][0] = Some(0);
        while let Some((a, phase)) = queue.pop_front() {
            let d = dist[a][phase].map(|d| d + 1);
            for (b, next) in moves(a, phase) {
                if dist[b][next].is_none() {
                    dist[b][next] = d;
                    queue.push_back((b, next));
                }
            }
        }
        dist.into_iter()
            .map(|per_phase| per_phase.into_iter().flatten().min())
            .collect()
    }

    /// Shortest valley-free AS-path lengths: phase 0 climbs providers,
    /// phase 1 has crossed the one allowed peer link, phase 2 descends
    /// customers.
    fn valley_free_distances(&self, src: usize) -> Vec<Option<u32>> {
        self.bfs(src, |a, phase| {
            let mut next: Vec<(usize, usize)> = Vec::new();
            if phase == 0 {
                next.extend(self.providers[a].iter().map(|&p| (p, 0)));
                next.extend(self.peers[a].iter().map(|&p| (p, 1)));
            }
            next.extend(self.customers[a].iter().map(|&c| (c, 2)));
            next
        })
    }

    /// Shortest unrestricted AS-path lengths (policy ignored).
    fn shortest_distances(&self, src: usize) -> Vec<Option<u32>> {
        self.bfs(src, |a, _| {
            [&self.providers[a], &self.customers[a], &self.peers[a]]
                .into_iter()
                .flatten()
                .map(|&b| (b, 0))
                .collect()
        })
    }
}

/// Reference policy-inflation counters over all ordered AS pairs, in
/// `PolicySummary`'s layout: per unrestricted shortest length `s`, the
/// total and the longest valley-free hops of the policy-reachable pairs.
/// `max_ratio` is the largest per-pair `vf / sp`, taken pair by pair.
#[derive(Default)]
struct Inflation {
    bfs_reachable: u64,
    policy_reachable: u64,
    inflated: u64,
    by_shortest: Vec<(u64, u32)>,
    max_ratio: f64,
}

impl Inflation {
    fn of(net: &AsNetwork) -> Inflation {
        let n = net.providers.len();
        let mut out = Inflation {
            max_ratio: 1.0,
            ..Inflation::default()
        };
        for src in 0..n {
            let vf = net.valley_free_distances(src);
            let sp = net.shortest_distances(src);
            for dst in (0..n).filter(|&dst| dst != src) {
                let Some(s) = sp[dst] else { continue };
                out.bfs_reachable += 1;
                let Some(v) = vf[dst] else { continue };
                out.policy_reachable += 1;
                if v > s {
                    out.inflated += 1;
                }
                out.max_ratio = out.max_ratio.max(v as f64 / s as f64);
                let s = s as usize;
                if out.by_shortest.len() <= s {
                    out.by_shortest.resize(s + 1, (0, 0));
                }
                out.by_shortest[s].0 += v as u64;
                out.by_shortest[s].1 = out.by_shortest[s].1.max(v);
            }
        }
        out
    }

    /// E13's four cells in report order: policy reachability, mean
    /// inflation ratio (`(Σₛ totalₛ / s) / policy_reachable`, lengths
    /// ascending), strictly inflated share and max inflation ratio.
    fn cells(&self) -> [f64; 4] {
        let share = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mut ratio_sum = 0.0;
        for (s, &(total, _)) in self.by_shortest.iter().enumerate().skip(1) {
            ratio_sum += total as f64 / s as f64;
        }
        let mean = if self.policy_reachable == 0 {
            1.0
        } else {
            ratio_sum / self.policy_reachable as f64
        };
        [
            share(self.policy_reachable, self.bfs_reachable),
            mean,
            share(self.inflated, self.policy_reachable),
            self.max_ratio,
        ]
    }
}

/// A small generated internet: `n_isps` designed ISPs peered with
/// `tier1` at the top and `transit` upstreams each.
fn internet(cities: usize, n_isps: usize, tier1: usize, transit: usize, seed: u64) -> Internet {
    let (census, traffic) = hot_exp::standard_geography(cities, seed);
    let config = InternetConfig {
        n_isps,
        max_pops: 4,
        tier1_count: tier1,
        transit_per_isp: transit,
        customers_per_pop: 2,
        isp_template: IspConfig::default(),
        ..InternetConfig::default()
    };
    generate_internet(&census, &traffic, &config, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random generated internets the flat batched kernel and the
    /// reference BFS agree exactly — valley-free distances, unrestricted
    /// distances, the vf >= sp property per pair, the summary's
    /// per-shortest-length counters, and E13's four cells to the bit
    /// (the max against the reference's per-pair maximum). Internets
    /// need about 15+ ASes before multihoming inflates any path, hence
    /// the wide `n_isps` range.
    #[test]
    fn propagation_matches_reference_and_never_beats_shortest(
        cities in 4usize..9,
        n_isps in 4usize..32,
        tier1 in 1usize..4,
        transit in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let tier1 = tier1.min(n_isps - 1);
        let net = internet(cities, n_isps, tier1, transit, seed);
        let reference = AsNetwork::from_internet(&net);
        let topo = AsTopology::from_internet(&net);
        prop_assert_eq!(topo.len(), reference.providers.len());
        for src in 0..topo.len() {
            let table = topo.propagate(src);
            let sp = topo.shortest(src);
            let ref_vf = reference.valley_free_distances(src);
            let ref_sp = reference.shortest_distances(src);
            for d in 0..topo.len() {
                // Differential: flat kernel == reference BFS, both faces.
                let vf = (table.dist[d] != UNREACHED).then_some(table.dist[d]);
                prop_assert_eq!(vf, ref_vf[d], "vf src {} dst {}", src, d);
                let sp_d = (sp[d] != UNREACHED).then_some(sp[d]);
                prop_assert_eq!(sp_d, ref_sp[d], "sp src {} dst {}", src, d);
                // Property: policy can only lengthen or deny a route.
                if let Some(vf) = vf {
                    let sp_d = sp_d.expect("vf-reachable implies BFS-reachable");
                    prop_assert!(vf >= sp_d, "src {} dst {}: vf {} < sp {}", src, d, vf, sp_d);
                }
            }
        }
        let (got, want) = (policy_summary_all(&topo, 2), Inflation::of(&reference));
        prop_assert_eq!(got.bfs_reachable, want.bfs_reachable);
        prop_assert_eq!(got.policy_reachable, want.policy_reachable);
        prop_assert_eq!(&got.by_shortest, &want.by_shortest);
        let cells = [
            got.policy_reachability(),
            got.mean_inflation_ratio(),
            got.inflated_fraction(),
            got.max_inflation_ratio(),
        ];
        for (g, w) in cells.into_iter().zip(want.cells()) {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "{} vs {}", g, w);
        }
    }

    /// The batched summary is a pure function of `(topology, sources)`:
    /// byte-identical at 1 vs 8 worker threads on random internets.
    #[test]
    fn batched_summary_identical_at_1_vs_8_threads(
        n_isps in 4usize..14,
        transit in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let net = internet(6, n_isps, 2, transit, seed);
        let topo = AsTopology::from_internet(&net);
        let serial = policy_summary_all(&topo, 1);
        prop_assert_eq!(&policy_summary_all(&topo, 8), &serial);
        // Subsets (including an out-of-range source) too.
        let band: Vec<u32> = (0..topo.len() as u32).step_by(2).chain([9999]).collect();
        let one = policy_summary(&topo, &band, 1);
        prop_assert_eq!(&policy_summary(&topo, &band, 8), &one);
    }
}

/// Class labels recover the economics the generator wired: exactly
/// `tier1_count` provider-less ASes at the top, transit sellers below
/// them, and every class-count total equals the AS count.
#[test]
fn class_labels_match_generator_economics() {
    let net = internet(10, 12, 3, 2, 20030617);
    let topo = AsTopology::from_internet(&net);
    let counts = topo.class_counts();
    assert_eq!(counts[AsClass::Tier1.index()], 3);
    assert_eq!(counts.iter().sum::<usize>(), topo.len());
    for a in 0..topo.len() {
        match topo.class(a) {
            AsClass::Tier1 => assert!(topo.providers(a).is_empty()),
            AsClass::Tier2 => {
                assert!(!topo.providers(a).is_empty());
                assert!(!topo.customers(a).is_empty());
            }
            AsClass::Cloud | AsClass::Stub => {
                assert!(!topo.providers(a).is_empty());
                assert!(topo.customers(a).is_empty());
            }
        }
    }
    // The relationship multigraph collapses to the same simple adjacency
    // the reference builder produces.
    let reference = AsNetwork::from_internet(&net);
    for a in 0..topo.len() {
        let prov: Vec<usize> = topo.providers(a).iter().map(|&x| x as usize).collect();
        let mut want = reference.providers[a].clone();
        want.sort_unstable();
        assert_eq!(prov, want, "providers of {}", a);
    }
}

/// Hardening regression (PR 5 convention): out-of-range sources reach
/// nothing through every public entry point instead of panicking.
#[test]
fn out_of_range_sources_reach_nothing() {
    let net = internet(6, 8, 2, 2, 7);
    let topo = AsTopology::from_internet(&net);
    let table = topo.propagate(topo.len() + 3);
    assert!(table.dist.iter().all(|&d| d == UNREACHED));
    assert!(topo
        .shortest(usize::MAX >> 8)
        .iter()
        .all(|&d| d == UNREACHED));
    let s = policy_summary(&topo, &[topo.len() as u32 + 7], 4);
    assert_eq!(s.policy_reachable, 0);
    assert_eq!(s.pairs, topo.len() as u64);
}
