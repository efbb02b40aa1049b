//! The temporal internet: an epoch-based growth engine.
//!
//! Every scenario E1–E19 builds a one-shot topology, but the paper's
//! §5 thesis is about a *process*: the internet is the running output
//! of providers optimizing under economic and technology constraints
//! that move — demand compounds, transport cost per bit collapses, new
//! ISPs enter, and installed plant is periodically reinforced but never
//! unbuilt. This module simulates that process on an append-only
//! [`Graph`]: each simulated epoch appends arrivals and links and
//! optionally re-optimizes the backbone under the epoch's prices
//! ([`hot_econ::trend::TechTrend`] + [`CableCatalog`] economics).
//! Arrivals read only the epoch's transport-cost factor; re-optimization
//! reads the demand factor too. Per-epoch analytics
//! (`hot_metrics::rolling`) read the graph between steps through one
//! freshly built CSR view.
//!
//! Two families of [`GrowthModel`] are provided:
//!
//! - [`HotGrowth`] — the paper's mechanism. Customers arrive in metro
//!   areas (Zipf-weighted), get a geographic position, and attach to
//!   the feasible router minimizing `α·distance + depth-to-core` (the
//!   FKP tradeoff) subject to a hard per-router degree cap (the
//!   line-card constraint). ISPs enter the largest markets on a
//!   schedule, and re-optimization adds backbone trunks between core
//!   pairs whose projected flow justifies the epoch-priced build cost —
//!   cheaper transport and compounding demand thicken the core mesh
//!   over time while access stays tree-like.
//! - [`DegreeGrowth`] — the BA/GLP controls grown incrementally:
//!   degree-proportional (optionally GLP-shifted) attachment with no
//!   geography, no cap, and no economics. Hubs only deepen.
//!
//! The engine is strictly serial and RNG-driven from one seed: a run
//! is a pure function of `(model, config)`, and thread count only ever
//! affects the analytics computed *on* each epoch's graph (which run
//! on the fixed-chunk scheduler) — so E20 reports are byte-identical at
//! any thread count, like every other scenario.

use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_econ::trend::TechTrend;
use hot_geo::bbox::BoundingBox;
use hot_geo::point::Point;
use hot_graph::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a node is in the evolving network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// Backbone/PoP router (exempt from the access degree cap — a
    /// modular chassis takes more line cards; trunks land here).
    Core,
    /// Access/stub customer router.
    Customer,
}

/// The evolving network: roles on nodes, geometric length on links
/// (1.0 for the geography-free controls).
pub type EvolveGraph = Graph<NodeRole, f64>;

/// Engine-level schedule: how fast and under which trend. The engine
/// is open-ended; callers run as many [`Evolution::step`]s as they
/// need.
#[derive(Clone, Debug)]
pub struct EvolveConfig {
    /// Customer arrivals per epoch (constant — demand growth scales
    /// traffic per customer, not the arrival code path).
    pub arrivals_per_epoch: usize,
    /// Technology/demand drift applied every epoch.
    pub trend: TechTrend,
    /// Re-optimize (ISP entry + backbone reinforcement) every this
    /// many epochs; 0 disables re-optimization entirely.
    pub reopt_interval: u64,
    /// Seed for the engine's single RNG stream.
    pub seed: u64,
}

/// What one epoch did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochDelta {
    /// The simulated epoch just completed (1-based; 0 is the seed).
    pub epoch: u64,
    /// Backbone links added by re-optimization this epoch.
    pub reopt_links: usize,
}

/// A growth mechanism the engine advances epoch by epoch.
pub trait GrowthModel {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;

    /// Seeds the initial network into an empty graph (epoch 0).
    fn init(&mut self, g: &mut EvolveGraph, rng: &mut StdRng);

    /// Adds this epoch's arrivals. `cost_factor` is the trend's cost
    /// multiplier at this epoch.
    fn grow(&mut self, g: &mut EvolveGraph, arrivals: usize, cost_factor: f64, rng: &mut StdRng);

    /// Periodic re-optimization under current economics
    /// (`demand_factor` / `cost_factor` are the trend's multipliers at
    /// this epoch); returns how many links it added. Default: none (the
    /// degree controls never re-optimize — there is no objective to
    /// re-optimize).
    fn reoptimize(
        &mut self,
        _g: &mut EvolveGraph,
        _demand_factor: f64,
        _cost_factor: f64,
        _rng: &mut StdRng,
    ) -> usize {
        0
    }
}

/// Drives a [`GrowthModel`] through epochs over an [`EvolveGraph`].
pub struct Evolution<M> {
    config: EvolveConfig,
    model: M,
    graph: EvolveGraph,
    rng: StdRng,
    epoch: u64,
}

impl<M: GrowthModel> Evolution<M> {
    /// Seeds the model's epoch-0 network.
    pub fn new(mut model: M, config: EvolveConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut graph = Graph::new();
        model.init(&mut graph, &mut rng);
        Evolution {
            config,
            model,
            graph,
            rng,
            epoch: 0,
        }
    }

    /// The network as of the last completed epoch.
    #[inline]
    pub fn graph(&self) -> &EvolveGraph {
        &self.graph
    }

    /// The model's report name.
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    /// Advances one epoch: arrivals, then re-optimization when the
    /// schedule calls for it.
    pub fn step(&mut self) -> EpochDelta {
        self.epoch += 1;
        let demand = self.config.trend.demand_factor(self.epoch);
        let cost = self.config.trend.cost_factor(self.epoch);
        self.model.grow(
            &mut self.graph,
            self.config.arrivals_per_epoch,
            cost,
            &mut self.rng,
        );
        let reopt_links = if self.config.reopt_interval > 0
            && self.epoch.is_multiple_of(self.config.reopt_interval)
        {
            self.model
                .reoptimize(&mut self.graph, demand, cost, &mut self.rng)
        } else {
            0
        };
        EpochDelta {
            epoch: self.epoch,
            reopt_links,
        }
    }
}

// ---------------------------------------------------------------------------
// HOT growth
// ---------------------------------------------------------------------------

/// Parameters of the HOT growth mechanism.
#[derive(Clone, Debug)]
pub struct HotGrowthConfig {
    /// Metro areas customers arrive in (Zipf-weighted market sizes).
    pub cities: usize,
    /// Distance weight in the `α·dist + depth` attachment objective.
    pub alpha: f64,
    /// Per-router access degree cap (the line-card constraint; cores
    /// are exempt for trunks but not for customer attachment).
    pub degree_cap: u32,
}

impl Default for HotGrowthConfig {
    fn default() -> Self {
        HotGrowthConfig {
            cities: 8,
            alpha: 6.0,
            degree_cap: 12,
        }
    }
}

/// Customer scatter radius around a metro center.
const METRO_RADIUS: f64 = 40.0;
/// Traffic units one customer sources at epoch 0 (scaled by the demand
/// trend thereafter).
const DEMAND_PER_CUSTOMER: f64 = 1.0;
/// Backbone trunks re-optimization may add per pass.
const MAX_TRUNKS_PER_REOPT: usize = 2;
/// A customer dual-homes once the trend's cost factor drops below this
/// (cheap transport makes redundancy affordable).
const MULTIHOME_COST_THRESHOLD: f64 = 0.4;

/// Whether `cap` is a per-router access degree cap [`HotGrowth::new`]
/// accepts: at least 2, so a router can take an uplink and a customer.
pub fn degree_cap_is_valid(cap: u32) -> bool {
    cap >= 2
}

/// The paper's mechanism as an incremental process: constrained
/// optimization at the access edge, explicit economics in the core.
pub struct HotGrowth {
    cfg: HotGrowthConfig,
    link_cost: LinkCost,
    /// Metro centers and their (unnormalized Zipf) market weights.
    centers: Vec<Point>,
    weights: Vec<f64>,
    /// Per-node geometry and tree position.
    pos: Vec<Point>,
    depth: Vec<u32>,
    /// Which core's service tree each node hangs off (index into
    /// `cores`).
    root_core: Vec<u32>,
    /// Attachment candidates per city (every node, filtered by the
    /// live degree cap at selection time).
    city_members: Vec<Vec<u32>>,
    /// Backbone routers, in entry order.
    cores: Vec<u32>,
    /// Home city of each core (parallel to `cores`).
    core_city: Vec<u32>,
    /// Customers served under each core's tree.
    served: Vec<u64>,
}

impl HotGrowth {
    pub fn new(cfg: HotGrowthConfig) -> Self {
        assert!(cfg.cities >= 1, "need at least one metro");
        assert!(
            degree_cap_is_valid(cfg.degree_cap),
            "cap must admit a through-path"
        );
        // Trunk economics price links from the 2003 catalog, scaled per
        // epoch by the trend's cost factor.
        let link_cost = LinkCost::cables_only(CableCatalog::realistic_2003());
        HotGrowth {
            cfg,
            link_cost,
            centers: Vec::new(),
            weights: Vec::new(),
            pos: Vec::new(),
            depth: Vec::new(),
            root_core: Vec::new(),
            city_members: Vec::new(),
            cores: Vec::new(),
            core_city: Vec::new(),
            served: Vec::new(),
        }
    }

    /// Zipf-weighted city draw.
    fn pick_city(&self, rng: &mut StdRng) -> usize {
        let total: f64 = self.weights.iter().sum();
        let mut r = rng.random::<f64>() * total;
        for (i, w) in self.weights.iter().enumerate() {
            r -= w;
            if r <= 0.0 {
                return i;
            }
        }
        self.weights.len() - 1
    }

    /// Registers a new node's book-keeping rows.
    fn track(&mut self, v: NodeId, p: Point, depth: u32, root: u32, city: usize) {
        debug_assert_eq!(v.index(), self.pos.len());
        self.pos.push(p);
        self.depth.push(depth);
        self.root_core.push(root);
        self.city_members[city].push(v.0);
    }

    /// Adds a core router at `p` in `city`, wired into the backbone:
    /// one trunk to the nearest existing core, plus (entrants only) a
    /// peering link to the most-served core — the exchange point.
    fn add_core(&mut self, g: &mut EvolveGraph, city: usize, p: Point, peer_up: bool) -> NodeId {
        let v = g.add_node(NodeRole::Core);
        let core_idx = self.cores.len() as u32;
        self.cores.push(v.0);
        self.core_city.push(city as u32);
        self.served.push(0);
        self.track(v, p, 0, core_idx, city);
        if core_idx > 0 {
            let nearest = self.cores[..core_idx as usize]
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let da = self.pos[a as usize].dist(&p);
                    let db = self.pos[b as usize].dist(&p);
                    da.partial_cmp(&db).expect("finite").then(a.cmp(&b))
                })
                .expect("previous cores exist");
            g.add_edge(
                NodeId(nearest),
                v,
                self.pos[nearest as usize].dist(&p).max(1e-9),
            );
            if peer_up {
                let busiest = self.served[..core_idx as usize]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                    .map(|(i, _)| self.cores[i])
                    .expect("previous cores exist");
                if busiest != nearest && g.find_edge(NodeId(busiest), v).is_none() {
                    g.add_edge(
                        NodeId(busiest),
                        v,
                        self.pos[busiest as usize].dist(&p).max(1e-9),
                    );
                }
            }
        }
        v
    }

    /// Best attachment in `city` for a customer at `p`: minimize
    /// `α·dist + depth` over members with spare ports. Returns up to
    /// two distinct choices (primary, runner-up for multihoming).
    fn best_attachments(
        &self,
        g: &EvolveGraph,
        city: usize,
        p: Point,
    ) -> (Option<u32>, Option<u32>) {
        let scale = 1.0 / METRO_RADIUS;
        let mut best: Option<(f64, u32)> = None;
        let mut second: Option<(f64, u32)> = None;
        for &cand in &self.city_members[city] {
            let v = NodeId(cand);
            if (g.degree(v) as u32) >= self.cfg.degree_cap {
                continue;
            }
            let score = self.cfg.alpha * self.pos[cand as usize].dist(&p) * scale
                + self.depth[cand as usize] as f64;
            let entry = (score, cand);
            match best {
                None => best = Some(entry),
                Some(b) if entry.0 < b.0 || (entry.0 == b.0 && entry.1 < b.1) => {
                    second = best;
                    best = Some(entry);
                }
                _ => match second {
                    None => second = Some(entry),
                    Some(s) if entry.0 < s.0 || (entry.0 == s.0 && entry.1 < s.1) => {
                        second = Some(entry)
                    }
                    _ => {}
                },
            }
        }
        (best.map(|(_, v)| v), second.map(|(_, v)| v))
    }
}

impl GrowthModel for HotGrowth {
    fn name(&self) -> &'static str {
        "hot"
    }

    /// Seeds Zipf-weighted metro centers, one core per metro (backbone
    /// tree + a closing ring link when there are ≥ 3 metros).
    fn init(&mut self, g: &mut EvolveGraph, rng: &mut StdRng) {
        let region = BoundingBox::square(1000.0);
        self.city_members = vec![Vec::new(); self.cfg.cities];
        for i in 0..self.cfg.cities {
            self.centers.push(region.sample_uniform(rng));
            self.weights.push(1.0 / (i as f64 + 1.0).powf(0.9));
        }
        for city in 0..self.cfg.cities {
            let p = self.centers[city];
            self.add_core(g, city, p, false);
        }
        if self.cfg.cities >= 3 {
            let first = NodeId(self.cores[0]);
            let last = NodeId(self.cores[self.cfg.cities - 1]);
            let d = self.pos[first.index()]
                .dist(&self.pos[last.index()])
                .max(1e-9);
            if g.find_edge(first, last).is_none() {
                g.add_edge(first, last, d);
            }
        }
    }

    /// One epoch of customer arrivals: Zipf metro draw, scatter in the
    /// metro disc, attach by `α·dist + depth` under the degree cap;
    /// dual-home to the runner-up once transport is cheap enough.
    fn grow(&mut self, g: &mut EvolveGraph, arrivals: usize, cost_factor: f64, rng: &mut StdRng) {
        for _ in 0..arrivals {
            let city = self.pick_city(rng);
            let center = self.centers[city];
            let angle = rng.random::<f64>() * std::f64::consts::TAU;
            let radius = METRO_RADIUS * rng.random::<f64>().sqrt();
            let p = Point {
                x: center.x + radius * angle.cos(),
                y: center.y + radius * angle.sin(),
            };
            let (primary, runner_up) = self.best_attachments(g, city, p);
            let target = NodeId(primary.expect("a metro always has its core"));
            let v = g.add_node(NodeRole::Customer);
            g.add_edge(target, v, self.pos[target.index()].dist(&p).max(1e-9));
            let root = self.root_core[target.index()];
            self.track(v, p, self.depth[target.index()] + 1, root, city);
            self.served[root as usize] += 1;
            if cost_factor < MULTIHOME_COST_THRESHOLD {
                if let Some(alt) = runner_up {
                    let alt = NodeId(alt);
                    if g.find_edge(alt, v).is_none() {
                        g.add_edge(alt, v, self.pos[alt.index()].dist(&p).max(1e-9));
                    }
                }
            }
        }
    }

    /// Periodic re-optimization: an ISP enters the most under-served
    /// big market (competition follows customers), then backbone trunks
    /// are added between the core pairs whose projected gravity flow
    /// justifies the epoch-priced build — buy-at-bulk economics on the
    /// trend-scaled catalog.
    fn reoptimize(
        &mut self,
        g: &mut EvolveGraph,
        demand_factor: f64,
        cost_factor: f64,
        rng: &mut StdRng,
    ) -> usize {
        let edges_before = g.edge_count();
        // (a) ISP/PoP entry: the city with the most customers per
        //     resident core gets a new core near its center.
        let mut pressure: Vec<f64> = vec![0.0; self.cfg.cities];
        let mut cores_in: Vec<u32> = vec![0; self.cfg.cities];
        for (idx, &city) in self.core_city.iter().enumerate() {
            cores_in[city as usize] += 1;
            pressure[city as usize] += self.served[idx] as f64;
        }
        let (entry_city, _) = pressure
            .iter()
            .enumerate()
            .map(|(c, &p)| (c, p / cores_in[c].max(1) as f64))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
            .expect("at least one city");
        let jitter = METRO_RADIUS * 0.25;
        let p = Point {
            x: self.centers[entry_city].x + (rng.random::<f64>() - 0.5) * jitter,
            y: self.centers[entry_city].y + (rng.random::<f64>() - 0.5) * jitter,
        };
        self.add_core(g, entry_city, p, true);
        // (b) Backbone reinforcement: score unconnected core pairs by
        //     projected flow (gravity on served customers, scaled by the
        //     demand trend) against the trunk's epoch-priced build cost
        //     (uniform cost_factor scaling preserves the catalog axioms,
        //     so scaling the evaluated cost is exact).
        let mut candidates: Vec<(f64, u32, u32)> = Vec::new();
        for i in 0..self.cores.len() {
            for j in (i + 1)..self.cores.len() {
                let (a, b) = (self.cores[i], self.cores[j]);
                if g.find_edge(NodeId(a), NodeId(b)).is_some() {
                    continue;
                }
                let flow = self.served[i] as f64
                    * self.served[j] as f64
                    * DEMAND_PER_CUSTOMER
                    * demand_factor
                    / (self.served.iter().sum::<u64>().max(1) as f64);
                if flow <= 0.0 {
                    continue;
                }
                let length = self.pos[a as usize].dist(&self.pos[b as usize]).max(1e-9);
                let build = self.link_cost.cost(length, flow) * cost_factor;
                // Surplus: what the traffic is worth minus the build.
                let surplus = flow * length - build;
                if surplus > 0.0 {
                    candidates.push((surplus, a, b));
                }
            }
        }
        candidates.sort_by(|x, y| {
            y.0.partial_cmp(&x.0)
                .expect("finite")
                .then(x.1.cmp(&y.1))
                .then(x.2.cmp(&y.2))
        });
        for &(_, a, b) in candidates.iter().take(MAX_TRUNKS_PER_REOPT) {
            let d = self.pos[a as usize].dist(&self.pos[b as usize]).max(1e-9);
            g.add_edge(NodeId(a), NodeId(b), d);
        }
        g.edge_count() - edges_before
    }
}

// ---------------------------------------------------------------------------
// Degree-driven controls
// ---------------------------------------------------------------------------

/// BA/GLP-style incremental control: degree-proportional attachment
/// with no geography, no cap, no economics.
pub struct DegreeGrowth {
    name: &'static str,
    /// Links per arriving node.
    m: usize,
    /// GLP degree shift (`0` = pure BA preferential attachment).
    beta: f64,
    /// Probability an arrival event instead densifies: adds `m` links
    /// between existing nodes (GLP's edge events; `0` = pure BA).
    p_edge_only: f64,
}

impl DegreeGrowth {
    /// Pure Barabási–Albert arrivals.
    pub fn ba(m: usize) -> Self {
        assert!(m >= 1);
        DegreeGrowth {
            name: "ba",
            m,
            beta: 0.0,
            p_edge_only: 0.0,
        }
    }

    /// Bu–Towsley GLP arrivals (their fitted constants).
    pub fn glp(m: usize) -> Self {
        assert!(m >= 1);
        DegreeGrowth {
            name: "glp",
            m,
            beta: 0.6447,
            p_edge_only: 0.4695,
        }
    }

    /// Draws a node `∝ max(degree − β, ε)`, excluding `exclude`.
    fn preferential_pick(
        &self,
        g: &EvolveGraph,
        exclude: &[u32],
        rng: &mut StdRng,
    ) -> Option<NodeId> {
        let n = g.node_count();
        let mut total = 0.0;
        for v in 0..n {
            if exclude.contains(&(v as u32)) {
                continue;
            }
            total += (g.degree(NodeId(v as u32)) as f64 - self.beta).max(1e-9);
        }
        if total <= 0.0 {
            return None;
        }
        let mut r = rng.random::<f64>() * total;
        for v in 0..n {
            if exclude.contains(&(v as u32)) {
                continue;
            }
            r -= (g.degree(NodeId(v as u32)) as f64 - self.beta).max(1e-9);
            if r <= 0.0 {
                return Some(NodeId(v as u32));
            }
        }
        (0..n)
            .rev()
            .find(|&v| !exclude.contains(&(v as u32)))
            .map(|v| NodeId(v as u32))
    }
}

impl GrowthModel for DegreeGrowth {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Seeds a clique on `m + 1` nodes (the same seed `ba::generate`
    /// uses).
    fn init(&mut self, g: &mut EvolveGraph, _rng: &mut StdRng) {
        let seed = self.m + 1;
        for _ in 0..seed {
            g.add_node(NodeRole::Core);
        }
        for a in 0..seed {
            for b in (a + 1)..seed {
                g.add_edge(NodeId(a as u32), NodeId(b as u32), 1.0);
            }
        }
    }

    fn grow(&mut self, g: &mut EvolveGraph, arrivals: usize, _cost_factor: f64, rng: &mut StdRng) {
        for _ in 0..arrivals {
            if self.p_edge_only > 0.0 && rng.random::<f64>() < self.p_edge_only {
                // Densification event: m new links between existing
                // nodes (distinct endpoints, no parallels; bounded
                // resampling so termination never depends on luck).
                for _ in 0..self.m {
                    for _ in 0..32 {
                        let Some(a) = self.preferential_pick(g, &[], rng) else {
                            break;
                        };
                        let Some(b) = self.preferential_pick(g, &[a.0], rng) else {
                            break;
                        };
                        if g.find_edge(a, b).is_none() {
                            g.add_edge(a, b, 1.0);
                            break;
                        }
                    }
                }
            } else {
                let mut chosen: Vec<u32> = Vec::with_capacity(self.m);
                for _ in 0..self.m.min(g.node_count()) {
                    if let Some(t) = self.preferential_pick(g, &chosen, rng) {
                        chosen.push(t.0);
                    }
                }
                let v = g.add_node(NodeRole::Customer);
                for &t in &chosen {
                    g.add_edge(NodeId(t), v, 1.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::csr::CsrGraph;
    use hot_graph::unionfind::UnionFind;

    const EPOCHS: u64 = 6;

    fn tiny_config(seed: u64) -> EvolveConfig {
        EvolveConfig {
            arrivals_per_epoch: 10,
            trend: TechTrend::dotcom(),
            reopt_interval: 2,
            seed,
        }
    }

    fn components(g: &EvolveGraph) -> usize {
        let mut uf = UnionFind::new(g.node_count());
        for (_, a, b, _) in g.edges() {
            uf.union(a.index(), b.index());
        }
        uf.set_count()
    }

    #[test]
    fn hot_runs_are_reproducible() {
        let run = |seed| {
            let mut evo = Evolution::new(
                HotGrowth::new(HotGrowthConfig {
                    cities: 4,
                    ..HotGrowthConfig::default()
                }),
                tiny_config(seed),
            );
            let deltas: Vec<_> = (0..EPOCHS)
                .map(|_| {
                    let d = evo.step();
                    (d, evo.graph().node_count(), evo.graph().edge_count())
                })
                .collect();
            (deltas, CsrGraph::from_graph(evo.graph()))
        };
        let (d1, c1) = run(11);
        let (d2, c2) = run(11);
        assert_eq!(d1, d2);
        assert_eq!(c1, c2);
        let (_, c3) = run(12);
        assert_ne!(c1, c3, "seed must matter");
    }

    #[test]
    fn hot_growth_is_connected_and_capped_at_the_access_edge() {
        let cfg = HotGrowthConfig {
            cities: 5,
            degree_cap: 6,
            ..HotGrowthConfig::default()
        };
        let cap = cfg.degree_cap;
        let mut evo = Evolution::new(HotGrowth::new(cfg), tiny_config(7));
        let last = (0..EPOCHS).map(|_| evo.step()).last();
        assert_eq!(last.map(|d| d.epoch), Some(EPOCHS));
        let g = evo.graph();
        assert_eq!(components(g), 1, "arrivals always attach");
        // Customers never exceed the cap; cores may only via trunks /
        // entry peering, which are few.
        for v in 0..g.node_count() {
            let v = NodeId(v as u32);
            if *g.node_weight(v) == NodeRole::Customer {
                assert!(g.degree(v) as u32 <= cap);
            }
        }
        let reopt_epochs = 3u64; // epochs 2, 4, 6
        assert_eq!(
            g.node_count() as u64,
            5 + 6 * 10 + reopt_epochs,
            "5 seed cores, 10 arrivals × 6 epochs, 1 entrant per reopt"
        );
    }

    #[test]
    fn degree_controls_build_hubs() {
        let mut evo = Evolution::new(DegreeGrowth::ba(2), tiny_config(3));
        for _ in 0..EPOCHS {
            evo.step();
        }
        let g = evo.graph();
        assert_eq!(components(g), 1);
        assert_eq!(g.node_count(), 3 + 60, "clique seed + 60 arrivals");
        assert_eq!(g.edge_count(), 3 + 60 * 2);
        let max_deg = (0..g.node_count())
            .map(|v| g.degree(NodeId(v as u32)))
            .max()
            .unwrap();
        assert!(max_deg > 8, "preferential attachment grows hubs");
        // GLP variant stays runnable and multigraph-free.
        let mut glp = Evolution::new(DegreeGrowth::glp(2), tiny_config(3));
        for _ in 0..EPOCHS {
            glp.step();
        }
        let gg = glp.graph();
        for (e, a, b, _) in gg.edges() {
            assert_ne!(a, b);
            let dup = gg
                .edges()
                .filter(|&(e2, x, y, _)| e2 != e && ((x, y) == (a, b) || (x, y) == (b, a)))
                .count();
            assert_eq!(dup, 0, "controls avoid parallel links");
        }
    }
}
