//! Per-source valley-free path propagation (Gao–Rexford), flat and
//! allocation-free.
//!
//! The export rules — a route learned from a customer is exported to
//! everyone; a route learned from a peer or a provider is exported only
//! to customers — mean every usable AS path from a source climbs
//! customer→provider links, crosses **at most one** peer–peer link, and
//! then descends provider→customer links. Propagation is therefore a
//! BFS over `(as, phase)` states with three monotone phases:
//!
//! - phase 0, *climbing*: may take another provider link, cross a peer
//!   link (→ phase 1), or turn downhill (→ phase 2);
//! - phase 1, *crossed the one allowed peer link*: may only descend;
//! - phase 2, *descending*: provider→customer links only.
//!
//! Everything lives in flat arrays indexed by `3·as + phase` — distances
//! in one `Vec<u32>`, path-membership flags in one `Vec<u8>`, the BFS
//! queue as a `Vec` with a head cursor — so a propagation allocates
//! nothing after its [`PropagationScratch`] exists, and the scratch
//! resets in O(states touched), not O(n). One propagation is a pure
//! function of `(topology, source)`; the batched sweep in
//! [`crate::summary`] fans sources over the deterministic chunk
//! scheduler, so results are bit-identical at any thread count.
//!
//! Alongside the distance, the kernel tracks which *memberships* the
//! chosen (first-discovered, deterministic) path to each state
//! traverses: a direct provider of the source, a tier-1 AS, any
//! hierarchy AS (tier-1 or tier-2) — the ingredients of the
//! provider-free / tier1-free / hierarchy-free counts of
//! `hierarchy-free-study`. Membership is accumulated over every AS on
//! the path *after* the source (destination included), with a single OR
//! per hop.

use crate::topology::{AsTopology, BIT_HIERARCHY, BIT_PROVIDER_OF_SRC, BIT_TIER1};
use hot_graph::csr::BfsScratch;
use hot_graph::graph::NodeId;

/// Distance sentinel: the state/destination was not reached. It is the
/// CSR BFS's sentinel, so unrestricted distances read the same.
pub const UNREACHED: u32 = hot_graph::csr::UNREACHABLE;

/// The flat per-source route table the propagation fills: one best
/// valley-free distance and one path-membership byte per destination AS
/// (structure-of-arrays, no per-path allocations).
#[derive(Clone, Debug, PartialEq)]
pub struct RouteTable {
    /// Best valley-free hop count per destination ([`UNREACHED`] when
    /// policy denies the pair). Entry `src` is 0.
    pub dist: Vec<u32>,
    /// Membership bits of the chosen path per destination (source
    /// excluded, destination included).
    pub flags: Vec<u8>,
}

impl RouteTable {
    /// An all-unreached table for `n` ASes.
    pub fn sized(n: usize) -> RouteTable {
        RouteTable {
            dist: vec![UNREACHED; n],
            flags: vec![0; n],
        }
    }

    /// Whether the table holds a route to `d`.
    pub fn reaches(&self, d: usize) -> bool {
        self.dist[d] != UNREACHED
    }

    /// Whether the chosen path to `d` avoids every direct provider of
    /// the source (vacuously false when unreached).
    pub fn provider_free(&self, d: usize) -> bool {
        self.reaches(d) && self.flags[d] & BIT_PROVIDER_OF_SRC == 0
    }

    /// Whether the chosen path to `d` avoids every tier-1 AS.
    pub fn tier1_free(&self, d: usize) -> bool {
        self.reaches(d) && self.flags[d] & BIT_TIER1 == 0
    }

    /// Whether the chosen path to `d` avoids the whole hierarchy
    /// (tier-1 and tier-2 ASes).
    pub fn hierarchy_free(&self, d: usize) -> bool {
        self.reaches(d) && self.flags[d] & BIT_HIERARCHY == 0
    }
}

/// Reusable per-source scratch: the `(as, phase)` state arrays, the BFS
/// queue, and the per-AS membership bits. O(n) memory, allocated once
/// per worker and reset in O(states touched) between sources.
#[derive(Clone, Debug)]
pub struct PropagationScratch {
    /// Distance per state (`3·as + phase`).
    dist: Vec<u32>,
    /// Membership bits of the chosen path per state.
    flags: Vec<u8>,
    /// BFS queue of state ids; doubles as the touched-state list used
    /// to reset `dist` for the next source.
    queue: Vec<u32>,
    /// Per-AS membership bits: the topology's class bits plus, during a
    /// propagation, [`BIT_PROVIDER_OF_SRC`] on the source's providers.
    node_bits: Vec<u8>,
}

impl PropagationScratch {
    /// Scratch for an `n`-AS topology.
    pub fn sized(n: usize) -> PropagationScratch {
        PropagationScratch {
            dist: vec![UNREACHED; 3 * n],
            flags: vec![0; 3 * n],
            queue: Vec::with_capacity(3 * n),
            node_bits: vec![0; n],
        }
    }

    /// Scratch sized for `topo`, with the class bits pre-loaded.
    pub fn for_topology(topo: &AsTopology) -> PropagationScratch {
        let mut s = PropagationScratch::sized(topo.len());
        for a in 0..topo.len() {
            s.node_bits[a] = topo.class_bits(a);
        }
        s
    }
}

impl AsTopology {
    /// Valley-free propagation from `src` into `table` using `scratch`
    /// (both must be sized for this topology — `scratch` via
    /// [`PropagationScratch::for_topology`]).
    ///
    /// An out-of-range `src` — including any `src` on the empty
    /// topology — reaches nothing: the table comes back all-
    /// [`UNREACHED`] instead of panicking (the PR 5 hardening
    /// convention).
    pub fn propagate_into(
        &self,
        src: usize,
        scratch: &mut PropagationScratch,
        table: &mut RouteTable,
    ) {
        let n = self.len();
        debug_assert_eq!(table.dist.len(), n, "table sized for another topology");
        // Reset only the states the previous propagation touched.
        for &s in &scratch.queue {
            scratch.dist[s as usize] = UNREACHED;
        }
        scratch.queue.clear();
        table.dist.fill(UNREACHED);
        table.flags.fill(0);
        if src >= n {
            return;
        }
        // Mark the source's direct providers for this propagation.
        for &p in self.providers(src) {
            scratch.node_bits[p as usize] |= BIT_PROVIDER_OF_SRC;
        }
        let start = (3 * src) as u32;
        scratch.dist[start as usize] = 0;
        scratch.flags[start as usize] = 0;
        scratch.queue.push(start);
        let mut head = 0;
        while head < scratch.queue.len() {
            let state = scratch.queue[head] as usize;
            head += 1;
            let (a, phase) = (state / 3, state % 3);
            let d = scratch.dist[state];
            let f = scratch.flags[state];
            // One relax per edge: set distance/flags on first discovery.
            macro_rules! relax {
                ($b:expr, $new_phase:expr) => {{
                    let b = $b as usize;
                    let next = 3 * b + $new_phase;
                    if scratch.dist[next] == UNREACHED {
                        scratch.dist[next] = d + 1;
                        scratch.flags[next] = f | scratch.node_bits[b];
                        scratch.queue.push(next as u32);
                    }
                }};
            }
            if phase == 0 {
                for &p in self.providers(a) {
                    relax!(p, 0);
                }
                for &q in self.peers(a) {
                    relax!(q, 1);
                }
            }
            for &c in self.customers(a) {
                relax!(c, 2);
            }
        }
        // Collapse states to per-destination bests: minimum distance,
        // ties broken by BFS discovery order (the queue is deterministic,
        // so so is the winning state at every destination).
        for &s in &scratch.queue {
            let a = s as usize / 3;
            let d = scratch.dist[s as usize];
            if d < table.dist[a] {
                table.dist[a] = d;
                table.flags[a] = scratch.flags[s as usize];
            }
        }
        // Unmark the provider bits for the next source.
        for &p in self.providers(src) {
            scratch.node_bits[p as usize] &= !BIT_PROVIDER_OF_SRC;
        }
    }

    /// One-shot propagation: allocates its own scratch and table.
    pub fn propagate(&self, src: usize) -> RouteTable {
        let mut scratch = PropagationScratch::for_topology(self);
        let mut table = RouteTable::sized(self.len());
        self.propagate_into(src, &mut scratch, &mut table);
        table
    }

    /// Unrestricted shortest hop distances from `src` (policy ignored),
    /// [`UNREACHED`] = disconnected: one BFS on the relationship graph
    /// ([`AsTopology::csr`]). Same hardening: an out-of-range `src`
    /// reaches nothing. Sweeps over many sources reuse one
    /// [`BfsScratch`] with [`hot_graph::csr::CsrGraph::bfs_distances_into`]
    /// instead.
    pub fn shortest(&self, src: usize) -> Vec<u32> {
        if src >= self.len() {
            return vec![UNREACHED; self.len()];
        }
        let mut scratch = BfsScratch::sized(self.len());
        self.csr()
            .bfs_distances_into(NodeId(src as u32), &mut scratch);
        scratch.dist().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::AsClass;

    /// 0,1 tier-1 peers; 0→2, 1→3, 2→4 transit.
    fn toy() -> AsTopology {
        AsTopology::from_relationships(
            5,
            &[(0, 2), (1, 3), (2, 4)],
            &[(0, 1)],
            vec![
                AsClass::Tier1,
                AsClass::Tier1,
                AsClass::Tier2,
                AsClass::Stub,
                AsClass::Stub,
            ],
        )
    }

    #[test]
    fn valley_free_distances_match_hand_computation() {
        let t = toy();
        let from4 = t.propagate(4);
        // 4 -> 2 -> 0 -> peer 1 -> 3: length 4, valley-free.
        assert_eq!(from4.dist, vec![2, 3, 1, 4, 0]);
        let from0 = t.propagate(0);
        // 0 -> 1 (peer), 0 -> 2 -> 4 (down); 0 -> 1 -> 3 (peer then down).
        assert_eq!(from0.dist, vec![0, 1, 1, 2, 2]);
    }

    #[test]
    fn no_valley_through_stubs() {
        // Two stubs under different providers with no peer at the top:
        // no valley-free route between them.
        let t = AsTopology::from_relationships(
            4,
            &[(0, 2), (1, 3)],
            &[],
            vec![AsClass::Tier1, AsClass::Tier1, AsClass::Stub, AsClass::Stub],
        );
        let from2 = t.propagate(2);
        assert_eq!(from2.dist[3], UNREACHED);
        assert!(!from2.reaches(3));
        // Unrestricted shortest also fails here (graph is disconnected).
        assert_eq!(t.shortest(2)[3], UNREACHED);
    }

    #[test]
    fn no_transit_through_customers() {
        // Toy plus a 2–3 peering: 4 -> 2 (up) -> 3 (peer) is one legal
        // peer crossing, while 0 -> 2 (down) -> 3 (peer) is a valley, so
        // 0 reaches 3 via its peer 1 instead.
        let t = AsTopology::from_relationships(
            5,
            &[(0, 2), (1, 3), (2, 4)],
            &[(0, 1), (2, 3)],
            vec![
                AsClass::Tier1,
                AsClass::Tier1,
                AsClass::Tier2,
                AsClass::Stub,
                AsClass::Stub,
            ],
        );
        assert_eq!(t.propagate(0).dist[3], 2);
        assert_eq!(t.propagate(4).dist[3], 2);
    }

    #[test]
    fn one_peer_crossing_only() {
        // Chain of peers: 0 - 1 - 2 (all tier-1). Valley-freedom allows
        // exactly one peer hop, so 0 cannot reach 2.
        let t = AsTopology::from_relationships(3, &[], &[(0, 1), (1, 2)], vec![AsClass::Tier1; 3]);
        let from0 = t.propagate(0);
        assert_eq!(from0.dist[1], 1);
        assert_eq!(from0.dist[2], UNREACHED);
        // Unrestricted BFS crosses both.
        assert_eq!(t.shortest(0)[2], 2);
    }

    #[test]
    fn flags_track_path_memberships() {
        let t = toy();
        let from4 = t.propagate(4);
        // 4's chosen path to 2 is its provider: not provider-free.
        assert!(!from4.provider_free(2));
        // Path to 3 goes 2 -> 0 -> 1 -> 3: crosses both tier-1s and the
        // tier-2 provider.
        assert!(!from4.tier1_free(3));
        assert!(!from4.hierarchy_free(3));
        // 0's path to its direct customer 2 avoids tier-1s entirely
        // (2 itself is tier-2, so not hierarchy-free).
        let from0 = t.propagate(0);
        assert!(from0.tier1_free(2));
        assert!(!from0.hierarchy_free(2));
        assert!(from0.provider_free(2), "tier-1 has no providers");
        // 2 -> 4 is a pure customer path: free of everything.
        let from2 = t.propagate(2);
        assert!(from2.provider_free(4) && from2.tier1_free(4) && from2.hierarchy_free(4));
    }

    #[test]
    fn policy_never_beats_shortest_on_toy() {
        let t = toy();
        for src in 0..t.len() {
            let vf = t.propagate(src);
            let sp = t.shortest(src);
            for (&v, &s) in vf.dist.iter().zip(&sp) {
                if v != UNREACHED {
                    assert!(s != UNREACHED && v >= s);
                }
            }
        }
    }

    /// Regression (hardening convention from PR 5): an out-of-range
    /// source — including any source on the empty topology — reaches
    /// nothing instead of panicking.
    #[test]
    fn out_of_range_source_reaches_nothing() {
        let t = toy();
        assert_eq!(t.propagate(99).dist, vec![UNREACHED; t.len()]);
        assert_eq!(t.shortest(99), vec![UNREACHED; t.len()]);
        let empty = AsTopology::from_relationships(0, &[], &[], vec![]);
        assert!(empty.propagate(0).dist.is_empty());
        assert!(empty.shortest(0).is_empty());
    }

    #[test]
    fn scratch_reuse_is_clean_across_sources() {
        let t = toy();
        let mut scratch = PropagationScratch::for_topology(&t);
        let mut table = RouteTable::sized(t.len());
        // Fresh-scratch references for every source.
        let fresh: Vec<RouteTable> = (0..t.len()).map(|s| t.propagate(s)).collect();
        // One reused scratch, sources interleaved with an out-of-range
        // propagation to stress the reset path.
        for (s, want) in fresh.iter().enumerate() {
            t.propagate_into(s, &mut scratch, &mut table);
            assert_eq!(&table, want, "source {}", s);
            t.propagate_into(1_000, &mut scratch, &mut table);
        }
        // The provider bits were unmarked: a second pass agrees too.
        for (s, want) in fresh.iter().enumerate() {
            t.propagate_into(s, &mut scratch, &mut table);
            assert_eq!(&table, want, "source {} (second pass)", s);
        }
    }
}
