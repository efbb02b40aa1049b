//! Shared fixtures: the canonical seed, the standard geography every
//! ISP-level scenario builds on (moved here from `hot-bench` so the
//! scenario engine does not depend on the bench crate), the
//! customer-demand workload the traffic scenarios route, and the
//! backbone link-cut study E12 and E16 share.

use crate::registry::RunCtx;
use hot_core::isp::backbone::BackboneConfig;
use hot_core::isp::generator::{generate, IspConfig};
use hot_core::isp::{IspTopology, LinkKind, RouterRole};
use hot_geo::gravity::TrafficMatrix;
use hot_geo::point::Point;
use hot_geo::population::Census;
use hot_graph::io::{fnv1a, Snapshot, SNAPSHOT_VERSION};
use hot_sim::demand::{Demand, DemandMatrix};
use hot_sim::failure::{single_link_failures, FailureSummary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;

/// Fixed seed base: every experiment derives its RNGs from this, so all
/// published tables regenerate byte-identically.
pub const SEED: u64 = 20030617; // HotNets-II camera-ready era

/// The standard synthetic geography used by the ISP-level experiments:
/// `n_cities` Zipf cities clustered into metros, plus the gravity traffic
/// matrix.
pub fn standard_geography(n_cities: usize, seed: u64) -> (Census, TrafficMatrix) {
    let census = Census::synthesize(n_cities, &mut StdRng::seed_from_u64(seed));
    let traffic = TrafficMatrix::gravity(&census);
    (census, traffic)
}

/// Demand masses of an ISP's *customers*: 1 on customer routers, 0 on
/// infrastructure, plus every router's location — the inputs of the
/// customer-level demand matrices.
pub fn customer_masses(isp: &IspTopology) -> (Vec<f64>, Vec<Point>) {
    let mass = isp
        .graph
        .node_ids()
        .map(|v| {
            if isp.graph.node_weight(v).role == RouterRole::Customer {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let positions = isp
        .graph
        .node_ids()
        .map(|v| isp.graph.node_weight(v).location)
        .collect();
    (mass, positions)
}

/// The canonical customer workload of the traffic scenarios (E15/E16):
/// gravity demand between the ISP's customers over router geography
/// (γ = 1, unit distance floor), scaled to `total_traffic`.
pub fn customer_gravity_demand(isp: &IspTopology, total_traffic: f64) -> DemandMatrix {
    let (mass, positions) = customer_masses(isp);
    DemandMatrix::from_masses(mass, Some(positions), 1.0, 1.0, total_traffic)
}

/// The backbone link-cut study of E12 and E16, which prices the
/// paper's redundancy requirement (§4, footnote 7): an ISP of `pops`
/// POPs built from `seed`, whose backbone is a tree (`redundancy` off)
/// or a mesh; gravity demand between every pair of its POP routers;
/// and every loaded trunk of the backbone-only subgraph failed in turn.
pub fn backbone_failures(
    census: &Census,
    traffic: &TrafficMatrix,
    pops: usize,
    redundancy: bool,
    seed: u64,
    threads: usize,
) -> FailureSummary {
    let cfg = IspConfig {
        backbone: BackboneConfig {
            redundancy,
            shortcut_pairs: 0,
        },
        n_pops: pops,
        // Backbone-only study: POPs exchange traffic; per-metro
        // customer minimums force a small positive count.
        total_customers: 10,
        ..IspConfig::default()
    };
    let isp = generate(census, traffic, &cfg, &mut StdRng::seed_from_u64(seed));
    let mut demands = Vec::new();
    for (i, &ra) in isp.pop_routers.iter().enumerate() {
        for (j, &rb) in isp.pop_routers.iter().enumerate().skip(i + 1) {
            let amount = traffic.demand(isp.pop_cities[i], isp.pop_cities[j]);
            if amount > 0.0 {
                demands.push(Demand {
                    src: ra,
                    dst: rb,
                    amount,
                });
            }
        }
    }
    // Restrict to the backbone subgraph so failures hit trunks only.
    let keep: Vec<bool> = isp
        .graph
        .edge_ids()
        .map(|e| isp.graph.edge_weight(e).kind == LinkKind::Backbone)
        .collect();
    single_link_failures(&isp.graph.edge_subgraph(&keep), &demands, threads)
}

/// Whether `total_traffic` can scale a traffic scenario's demand:
/// positive and finite. Zero, a negative total or NaN routes no flow
/// at all, and an infinite one turns the loads into infinities and NaN.
/// E15, E16 and E18 skip, with the field named, when it fails.
pub fn total_traffic_is_valid(total_traffic: f64) -> bool {
    total_traffic.is_finite() && total_traffic > 0.0
}

/// A metadata column a cached snapshot must carry: its section (per
/// node or per edge, f64 or u32) and its name.
#[derive(Clone, Copy, Debug)]
pub enum Column {
    NodeF64(&'static str),
    EdgeU32(&'static str),
    EdgeF64(&'static str),
}

impl Column {
    /// Whether `snap` carries this column at its section's length (the
    /// node or the edge count).
    fn carried_by(self, snap: &Snapshot) -> bool {
        fn has<T>(cols: &[(String, Vec<T>)], name: &str, len: usize) -> bool {
            cols.iter()
                .find(|(n, _)| n == name)
                .is_some_and(|(_, col)| col.len() == len)
        }
        let (n, m) = (snap.csr.node_count(), snap.csr.edge_count());
        match self {
            Column::NodeF64(name) => has(&snap.node_f64, name, n),
            Column::EdgeU32(name) => has(&snap.edge_u32, name, m),
            Column::EdgeF64(name) => has(&snap.edge_f64, name, m),
        }
    }
}

/// The column `name` of one snapshot section. Read only columns named
/// to [`cached_snapshot`], which guarantees they are there.
pub(crate) fn column<'a, T>(cols: &'a [(String, Vec<T>)], name: &str) -> &'a [T] {
    &cols
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("snapshot column {:?} was not requested", name))
        .1
}

/// The snapshot-cache file stem of scenario `id`: the id plus the
/// FNV-1a digest of everything the build depends on — the whole
/// `params` (their `Debug` text), the seed, the snapshot format version
/// and the crate version. Changing any of them misses the cache instead
/// of replaying a topology built from other inputs.
pub(crate) fn snapshot_key(id: &str, params: &impl Debug, seed: u64) -> String {
    key_for(
        id,
        params,
        seed,
        SNAPSHOT_VERSION,
        env!("CARGO_PKG_VERSION"),
    )
}

fn key_for(id: &str, params: &impl Debug, seed: u64, format: u32, version: &str) -> String {
    let inputs = format!(
        "{:?}|seed {}|format {}|version {}",
        params, seed, format, version
    );
    format!("{}-{:016x}", id, fnv1a(inputs.as_bytes()))
}

/// Returns scenario `id`'s snapshot from the context's cache
/// (`<dir>/<snapshot_key>.snap`), or builds it with `build` and (when a
/// cache directory is configured) persists it for the next run.
///
/// A cached file is used only when it loads — `Snapshot::load` checks
/// the checksum and every structural invariant — and carries every
/// column in `columns`, the ones the caller will read. Anything else
/// (corrupt, unreadable, or missing a column) is rebuilt and
/// overwritten, never trusted. Warm and cold paths return the same
/// columns bit-for-bit, so cached runs keep the byte-determinism
/// guarantee of everything downstream.
pub fn cached_snapshot(
    ctx: &RunCtx,
    id: &str,
    params: &impl Debug,
    columns: &[Column],
    build: impl FnOnce() -> Snapshot,
) -> Snapshot {
    let Some(dir) = &ctx.snapshot_dir else {
        return build();
    };
    let path = dir.join(format!("{}.snap", snapshot_key(id, params, ctx.seed)));
    if let Ok(snap) = Snapshot::load(&path) {
        if columns.iter().all(|c| c.carried_by(&snap)) {
            return snap;
        }
    }
    let snap = build();
    if std::fs::create_dir_all(dir)
        .map_err(hot_graph::io::SnapshotError::Io)
        .and_then(|_| snap.save(&path))
        .is_err()
    {
        // A read-only or full cache directory degrades to cold builds;
        // it must never fail the experiment itself.
        eprintln!("warning: could not write snapshot {}", path.display());
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field of a scenario's `Params`, the seed, the format
    /// version and the crate version all reach the cache key.
    #[test]
    fn snapshot_key_covers_every_input() {
        use crate::scenarios::{e15, e18};
        let base = snapshot_key("e15", &e15::Params::golden(), SEED);
        type Edit<P> = fn(&mut P);
        let e15_edits: [Edit<e15::Params>; 7] = [
            |p| p.glp_n += 1,
            |p| p.ba_n += 1,
            |p| p.cities += 1,
            |p| p.n_pops += 1,
            |p| p.total_customers += 1,
            |p| p.total_traffic *= 2.0,
            |p| p.ccdf_steps += 1,
        ];
        for (i, edit) in e15_edits.iter().enumerate() {
            let mut p = e15::Params::golden();
            edit(&mut p);
            assert_ne!(snapshot_key("e15", &p, SEED), base, "e15 field {}", i);
        }
        let e18_base = snapshot_key("e18", &e18::Params::golden(), SEED);
        let e18_edits: [Edit<e18::Params>; 12] = [
            |p| p.glp_n += 1,
            |p| p.ba_n += 1,
            |p| p.cities += 1,
            |p| p.n_pops += 1,
            |p| p.total_customers += 1,
            |p| p.total_traffic *= 2.0,
            |p| p.surge_traffic *= 2.0,
            |p| p.surge_exponent += 0.5,
            |p| p.headroom += 0.25,
            |p| p.cascade_threshold += 0.5,
            |p| p.max_te_rounds += 1,
            |p| p.max_cascade_rounds += 1,
        ];
        for (i, edit) in e18_edits.iter().enumerate() {
            let mut p = e18::Params::golden();
            edit(&mut p);
            assert_ne!(snapshot_key("e18", &p, SEED), e18_base, "e18 field {}", i);
        }
        let p = e15::Params::golden();
        let version = env!("CARGO_PKG_VERSION");
        assert_eq!(key_for("e15", &p, SEED, SNAPSHOT_VERSION, version), base);
        assert_ne!(snapshot_key("e15", &p, SEED + 1), base, "seed");
        assert_ne!(snapshot_key("e16", &p, SEED), base, "scenario id");
        assert_ne!(
            key_for("e15", &p, SEED, SNAPSHOT_VERSION + 1, version),
            base,
            "format version"
        );
        assert_ne!(
            key_for("e15", &p, SEED, SNAPSHOT_VERSION, "0.0.0-other"),
            base,
            "crate version"
        );
    }

    #[test]
    fn geography_is_deterministic() {
        let (c1, t1) = standard_geography(20, 1);
        let (c2, t2) = standard_geography(20, 1);
        assert_eq!(c1.cities, c2.cities);
        assert_eq!(t1.demand(0, 1), t2.demand(0, 1));
    }
}
