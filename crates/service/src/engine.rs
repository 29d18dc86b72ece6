//! The long-lived serving engine: one graph, per-space resident
//! decomposition state, and the request operations of the protocol.
//!
//! The engine answers the paper's §1/§6 query-driven scenario without
//! global recomputation:
//!
//! * **exact lookups** read the resident κ vectors (O(1));
//! * **budgeted estimates** run [`local_estimate_opts`] on an owned
//!   [`CachedSpace`], returning the Theorem-1 interval
//!   `lower ≤ κ(q) ≤ estimate` plus exploration telemetry;
//! * **region queries** resolve against a lazily-built resident
//!   [`Hierarchy`] (Sarıyüce–Pınar's "keep the nucleus forest as the
//!   index" idea);
//! * **edge batches** splice the CSR, the shared triangle substrate and
//!   every space snapshot ([`hdsd_graph::delta`],
//!   [`hdsd_nucleus::delta`]), then re-peel κ in place on the spliced
//!   snapshot's flat rows ([`PeelEngine::peel_within`]) — no clique
//!   universe is rebuilt or re-enumerated;
//! * **snapshots** serialize graph + κ + hierarchies for fast restart.
//!
//! ## Epoch immutability
//!
//! Since PR 8 the resident state lives in an immutable, `Arc`-shared
//! [`EngineView`]: every read operation is `&self` on the view, and
//! [`Engine::update`] never mutates the current view — it builds the
//! *next* view off to the side (reusing the splice/repair delta
//! machinery plus cheap `Arc` adoption for anything untouched) and swaps
//! the engine's `Arc` over. The serving layer publishes that new view
//! through an [`crate::epoch::EpochCell`], so concurrent readers keep
//! answering from the epoch they pinned — wait-free, bit-stable — while
//! the writer works. The one piece of interior mutability is the
//! hierarchy index's `OnceLock`: a monotonic fill-once cache that lets
//! the *first* region query of an epoch materialize the forest without
//! `&mut` (every later reader of that epoch sees the identical index).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use hdsd_graph::{apply_edge_batch, triangle_delta, CsrGraph, TriangleList, VertexId};
use hdsd_nucleus::hierarchy::NucleusDensity;
use hdsd_nucleus::{
    build_hierarchy, build_hierarchy_within, core_space_delta, local_estimate_opts,
    nucleus34_space_delta, peel, repair_dirty_seed, truss_space_delta, CachedSpace, CancelToken,
    Cancelled, CliqueSpace, CoreSpace, Hierarchy, Nucleus34Space, PeelEngine, QueryEstimate,
    QueryOptions, Snapshot, SpaceSnapshot, TrussSpace,
};
use hdsd_telemetry::{labeled, span, Registry};

/// Which decomposition a request addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpaceSel {
    /// (1,2): k-core over vertices.
    Core,
    /// (2,3): k-truss over edges.
    Truss,
    /// (3,4): nucleus over triangles.
    Nucleus34,
}

impl SpaceSel {
    /// Parses the protocol's space names.
    pub fn parse(name: &str) -> Option<SpaceSel> {
        match name {
            "core" | "12" => Some(SpaceSel::Core),
            "truss" | "23" => Some(SpaceSel::Truss),
            "nucleus34" | "34" => Some(SpaceSel::Nucleus34),
            _ => None,
        }
    }

    /// Protocol name.
    pub fn name(self) -> &'static str {
        match self {
            SpaceSel::Core => "core",
            SpaceSel::Truss => "truss",
            SpaceSel::Nucleus34 => "nucleus34",
        }
    }

    /// The `(r, s)` pair.
    pub fn rs(self) -> (u32, u32) {
        match self {
            SpaceSel::Core => (1, 2),
            SpaceSel::Truss => (2, 3),
            SpaceSel::Nucleus34 => (3, 4),
        }
    }

    /// Whether this space is built over the triangle substrate.
    fn needs_triangles(self) -> bool {
        !matches!(self, SpaceSel::Core)
    }

    fn build_cached(self, graph: &CsrGraph, triangles: Option<&TriangleList>) -> CachedSpace {
        match (self, triangles) {
            (SpaceSel::Core, _) => CachedSpace::build(&CoreSpace::new(graph)),
            (SpaceSel::Truss, Some(tl)) => {
                CachedSpace::build(&TrussSpace::with_triangles(graph, tl))
            }
            (SpaceSel::Truss, None) => CachedSpace::build(&TrussSpace::on_the_fly(graph)),
            (SpaceSel::Nucleus34, Some(tl)) => {
                CachedSpace::build(&Nucleus34Space::with_triangles(graph, tl))
            }
            (SpaceSel::Nucleus34, None) => CachedSpace::build(&Nucleus34Space::on_the_fly(graph)),
        }
    }
}

/// Engine construction options.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Decompositions to keep resident. The (3,4) space costs the most to
    /// build; enable it when the workload asks for it.
    pub spaces: Vec<SpaceSel>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { spaces: vec![SpaceSel::Core, SpaceSel::Truss] }
    }
}

/// Hierarchy plus the clique → node index used by region queries. Both
/// halves are `Arc`'d so a snapshot/checkpoint shares them zero-copy and
/// a repaired forest moves to the next epoch without cloning the nodes.
#[derive(Clone)]
struct HierarchyIndex {
    forest: Arc<Hierarchy>,
    /// For each r-clique, the node whose `own_cliques` contains it
    /// (`u32::MAX` for cliques in no nucleus).
    node_of: Arc<Vec<u32>>,
}

impl HierarchyIndex {
    fn build(space: &CachedSpace, kappa: &[u32]) -> Self {
        Self::from_forest(Arc::new(build_hierarchy(space, kappa)), space.num_cliques())
    }

    /// [`HierarchyIndex::build`] under a cancellation token: the s-clique
    /// scan and union–find passes abort at their chunk boundaries.
    fn build_within(
        space: &CachedSpace,
        kappa: &[u32],
        cancel: &CancelToken,
    ) -> Result<Self, Cancelled> {
        let forest = build_hierarchy_within(space, kappa, cancel)?;
        Ok(Self::from_forest(Arc::new(forest), space.num_cliques()))
    }

    /// Wraps an existing forest (freshly built or repaired) with the
    /// clique → node inverted index.
    fn from_forest(forest: Arc<Hierarchy>, num_cliques: usize) -> Self {
        let node_of = Arc::new(forest.clique_to_node(num_cliques));
        HierarchyIndex { forest, node_of }
    }
}

/// One space's immutable resident state inside an [`EngineView`]: the
/// container snapshot and κ vector are `Arc`'d rows shared across epochs
/// (and into checkpoints), never refreshed in place.
struct SpaceView {
    sel: SpaceSel,
    cached: Arc<CachedSpace>,
    kappa: Arc<Vec<u32>>,
    /// Lazily materialized hierarchy index. `OnceLock` (not `Option`) so
    /// the first region/nuclei query of an epoch can fill it through
    /// `&self` — concurrent readers race benignly (first fill wins, all
    /// see the same index) and the writer checks `get()` at update time
    /// to decide whether the next epoch inherits a repaired forest.
    hierarchy: OnceLock<HierarchyIndex>,
    /// Wall time of the cold space materialization (snapshot build) at
    /// startup; 0 when the state was adopted from a snapshot restore.
    build_us: u64,
    /// Wall time of the cold exact peel at startup; 0 on snapshot restore
    /// (κ is adopted, nothing is peeled).
    peel_us: u64,
}

impl SpaceView {
    fn fresh(sel: SpaceSel, graph: &CsrGraph, triangles: Option<&TriangleList>) -> SpaceView {
        let t_build = Instant::now();
        let cached = {
            span!("space.build");
            sel.build_cached(graph, triangles)
        };
        let build_us = t_build.elapsed().as_micros() as u64;
        // `peel` sees the snapshot's resident flat rows (`as_flat`) and
        // runs the monomorphized flat engine — the cold-start hot path.
        let t_peel = Instant::now();
        let pr = {
            span!("space.peel");
            peel(&cached)
        };
        let peel_us = t_peel.elapsed().as_micros() as u64;
        // The peel's work counters used to be computed and dropped here;
        // flow them into the registry so a running daemon exposes them.
        let reg = Registry::global();
        let lbl = [("space", sel.name())];
        reg.counter(&labeled("peel_containers_scanned_total", &lbl))
            .add(pr.stats.containers_scanned);
        reg.counter(&labeled("peel_dead_containers_total", &lbl)).add(pr.stats.dead_containers);
        reg.counter(&labeled("peel_bucket_moves_total", &lbl)).add(pr.stats.bucket_moves);
        reg.histogram(&labeled("space_build_micros", &lbl)).record(build_us);
        reg.histogram(&labeled("space_peel_micros", &lbl)).record(peel_us);
        SpaceView {
            sel,
            cached: Arc::new(cached),
            kappa: Arc::new(pr.kappa),
            hierarchy: OnceLock::new(),
            build_us,
            peel_us,
        }
    }

    /// The resident hierarchy index, materializing it on first use. Safe
    /// under concurrent readers: `OnceLock` serializes initializers and
    /// every caller sees the same index for the lifetime of this epoch.
    fn ensure_hierarchy(&self) -> &HierarchyIndex {
        self.hierarchy.get_or_init(|| HierarchyIndex::build(&self.cached, &self.kappa))
    }

    /// [`SpaceView::ensure_hierarchy`] under a cancellation token. The
    /// cancellable build runs *outside* the `OnceLock` initializer (an
    /// initializer cannot fail), so two racing cold builds may both do the
    /// work and one result is discarded — the same benign race the
    /// fill-once cache already tolerates between readers. A cancelled
    /// build leaves the lock empty: the next query simply retries.
    fn ensure_hierarchy_under(&self, cancel: &CancelToken) -> Result<&HierarchyIndex, Cancelled> {
        if let Some(hi) = self.hierarchy.get() {
            return Ok(hi);
        }
        let built = HierarchyIndex::build_within(&self.cached, &self.kappa, cancel)?;
        Ok(self.hierarchy.get_or_init(|| built))
    }
}

/// Summary of one nucleus (a hierarchy node).
#[derive(Clone, Debug)]
pub struct NucleusSummary {
    /// Node id in the resident hierarchy.
    pub node: u32,
    /// Threshold k of the nucleus.
    pub k: u32,
    /// Total r-cliques inside (own + descendants).
    pub size: usize,
}

/// A materialized dense region around a query clique.
#[derive(Clone, Debug)]
pub struct RegionReport {
    /// Hierarchy node id.
    pub node: u32,
    /// Threshold k (equals κ of the query clique).
    pub k: u32,
    /// r-cliques in the region.
    pub size: usize,
    /// The region's vertex set.
    pub vertices: Vec<VertexId>,
    /// Density summary of the induced subgraph.
    pub density: NucleusDensity,
}

/// Telemetry of one space's incremental hierarchy repair.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyRepairReport {
    /// Wall time of the repair (detach + bounded union–find + graft).
    pub repair_us: u64,
    /// Maximal untouched subtrees grafted back without reconstruction.
    pub preserved_subtrees: usize,
    /// Old forest nodes reused verbatim.
    pub preserved_nodes: usize,
    /// Nodes rebuilt by the bounded union–find pass.
    pub rebuilt_nodes: usize,
    /// r-cliques in the dirty set after closure.
    pub dirty_cliques: usize,
    /// s-cliques re-enumerated (a cold rebuild scans all of them).
    pub scanned_scliques: usize,
    /// True when the repair bailed out to a cold rebuild (no preservable
    /// subtree — typical for the core space's broad shallow forest).
    pub full_rebuild: bool,
}

/// Telemetry of one space's κ refresh.
#[derive(Clone, Debug)]
pub struct SpaceRefresh {
    /// Space name.
    pub space: &'static str,
    /// r-cliques peeled by the refresh (the whole spliced space).
    pub processed: u64,
    /// Wall time of the space snapshot splice (container-cache patch).
    pub splice_us: u64,
    /// Wall time of the κ stage: the re-peel of the spliced snapshot.
    pub refresh_us: u64,
    /// Incremental hierarchy repair telemetry, when a forest was resident
    /// (`None` when the space had no hierarchy built yet — nothing to
    /// repair, and nothing is invalidated either).
    pub hierarchy_repair: Option<HierarchyRepairReport>,
}

/// Result of applying one edge batch.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Edges actually inserted (after dedup).
    pub inserted: u32,
    /// Edges actually removed.
    pub removed: u32,
    /// Wall time of the shared substrate delta (CSR splice + triangle
    /// maintenance) before any space refresh.
    pub graph_delta_us: u64,
    /// Per-space refresh telemetry.
    pub spaces: Vec<SpaceRefresh>,
    /// Total wall time spent repairing resident hierarchies (all spaces);
    /// 0 when no forest was resident. Before PR 4 this cost was paid as a
    /// full rebuild by the next `region`/`nuclei` query instead.
    pub hierarchy_repair_us: u64,
    /// Wall time of the whole update (substrate delta + all refreshes).
    pub wall_us: u64,
}

/// Point-in-time statistics of one resident space.
#[derive(Clone, Debug)]
pub struct SpaceStats {
    /// Space name (`core` / `truss` / `nucleus34`).
    pub space: String,
    /// r-clique count.
    pub cliques: usize,
    /// Maximum κ.
    pub max_kappa: u32,
    /// Whether a hierarchy forest is resident.
    pub hierarchy_resident: bool,
    /// Cold-start snapshot materialization time (0 on snapshot restore).
    pub build_us: u64,
    /// Cold-start exact peel time (0 on snapshot restore — κ is adopted).
    pub peel_us: u64,
}

/// Point-in-time engine statistics.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Vertices in the current graph.
    pub vertices: usize,
    /// Edges in the current graph.
    pub edges: usize,
    /// Edge batches applied since construction/restore.
    pub updates_applied: u64,
    /// Per-space statistics, including the cold-start cost split.
    pub spaces: Vec<SpaceStats>,
}

/// One immutable epoch of resident serving state: the graph, the shared
/// triangle substrate, and every configured space's containers, κ vector
/// and (lazily filled) hierarchy index.
///
/// Views are published through an [`crate::epoch::EpochCell`] and shared
/// by `Arc` across reader threads; **nothing in a view is ever mutated
/// after publication** (the hierarchy `OnceLock` fills once, monotonic).
/// Every query method is therefore `&self` and safe to call from any
/// number of threads concurrently.
pub struct EngineView {
    graph: Arc<CsrGraph>,
    /// Maintained triangle substrate, resident whenever a triangle-based
    /// space is configured. Shared by the truss and (3,4) states and
    /// spliced (not rebuilt) on every update.
    triangles: Option<Arc<TriangleList>>,
    spaces: Vec<SpaceView>,
    updates_applied: u64,
}

impl EngineView {
    /// The graph of this epoch.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Configured spaces.
    pub fn spaces(&self) -> Vec<SpaceSel> {
        self.spaces.iter().map(|s| s.sel).collect()
    }

    fn state(&self, sel: SpaceSel) -> Result<&SpaceView, String> {
        self.spaces
            .iter()
            .find(|s| s.sel == sel)
            .ok_or_else(|| format!("space {:?} not resident (enable it at startup)", sel.name()))
    }

    /// Exact κ of r-clique `id` (a resident-vector read).
    pub fn kappa_of(&self, sel: SpaceSel, id: usize) -> Result<u32, String> {
        let st = self.state(sel)?;
        st.kappa.get(id).copied().ok_or_else(|| format!("clique id {id} out of range"))
    }

    /// Number of r-cliques in a space.
    pub fn num_cliques(&self, sel: SpaceSel) -> Result<usize, String> {
        Ok(self.state(sel)?.cached.num_cliques())
    }

    /// The full resident κ vector of a space.
    pub fn kappa_vector(&self, sel: SpaceSel) -> Result<&[u32], String> {
        Ok(&self.state(sel)?.kappa)
    }

    /// The vertices of r-clique `id`.
    pub fn clique_vertices(&self, sel: SpaceSel, id: usize) -> Result<Vec<VertexId>, String> {
        let st = self.state(sel)?;
        if id >= st.cached.num_cliques() {
            return Err(format!("clique id {id} out of range"));
        }
        Ok(st.cached.clique_vertices(id).to_vec())
    }

    /// Resolves an r-clique by its vertex set (vertex for core, endpoint
    /// pair for truss, triangle for (3,4)). Truss and (3,4) lookups go
    /// straight to the resident substrate — no identity index to build or
    /// invalidate.
    pub fn resolve(&self, sel: SpaceSel, vertices: &[VertexId]) -> Result<usize, String> {
        let expect_r = sel.rs().0 as usize;
        if vertices.len() != expect_r {
            return Err(format!(
                "space {:?} addresses {expect_r}-cliques, got {} vertices",
                sel.name(),
                vertices.len()
            ));
        }
        match sel {
            SpaceSel::Core => {
                let v = vertices[0] as usize;
                if v < self.state(sel)?.cached.num_cliques() {
                    Ok(v)
                } else {
                    Err(format!("vertex {v} out of range"))
                }
            }
            SpaceSel::Truss => {
                self.state(sel)?;
                self.graph
                    .edge_id(vertices[0], vertices[1])
                    .map(|e| e as usize)
                    .ok_or_else(|| format!("edge ({}, {}) not in graph", vertices[0], vertices[1]))
            }
            SpaceSel::Nucleus34 => {
                self.state(sel)?;
                let mut sorted = vertices.to_vec();
                sorted.sort_unstable();
                let tl =
                    self.triangles.as_ref().expect("triangle substrate resident with (3,4) space");
                tl.triangle_id(&self.graph, sorted[0], sorted[1], sorted[2])
                    .map(|t| t as usize)
                    .ok_or_else(|| format!("triangle {sorted:?} not in graph"))
            }
        }
    }

    /// Budgeted local estimate with the Theorem-1 bound interval.
    pub fn estimate(
        &self,
        sel: SpaceSel,
        id: usize,
        opts: &QueryOptions,
    ) -> Result<QueryEstimate, String> {
        let st = self.state(sel)?;
        if id >= st.cached.num_cliques() {
            return Err(format!("clique id {id} out of range"));
        }
        Ok(local_estimate_opts(st.cached.as_ref(), id, opts))
    }

    /// The resident hierarchy forest of a space, building it if absent.
    /// The crash-recovery harness uses this to compare a recovered
    /// engine's forests against an uninterrupted reference.
    pub fn hierarchy_of(&self, sel: SpaceSel) -> Result<&Hierarchy, String> {
        let st = self.state(sel)?;
        Ok(&st.ensure_hierarchy().forest)
    }

    /// Whether the space's hierarchy index is already materialized in
    /// this epoch. Exact region answers are a tree walk when it is; when
    /// it is not, the first region query pays the full build — the cost
    /// the brownout controller avoids under load.
    pub fn hierarchy_resident(&self, sel: SpaceSel) -> Result<bool, String> {
        Ok(self.state(sel)?.hierarchy.get().is_some())
    }

    /// The maximal k-(r,s) nuclei at threshold `k`, largest first.
    pub fn nuclei_at(&self, sel: SpaceSel, k: u32) -> Result<Vec<NucleusSummary>, String> {
        self.nuclei_at_within(sel, k, None)
    }

    /// [`EngineView::nuclei_at`] under an optional wall-clock deadline:
    /// the request fails (instead of blocking the daemon) when the
    /// deadline passes before or during hierarchy materialization.
    pub fn nuclei_at_within(
        &self,
        sel: SpaceSel,
        k: u32,
        deadline: Option<Instant>,
    ) -> Result<Vec<NucleusSummary>, String> {
        self.nuclei_at_under(sel, k, &CancelToken::with_deadline(deadline))
    }

    /// [`EngineView::nuclei_at`] under a full cancellation token: beyond
    /// the deadline, a raised flag (client disconnect, load shed) aborts
    /// the hierarchy build mid-materialization at its chunk boundaries.
    pub fn nuclei_at_under(
        &self,
        sel: SpaceSel,
        k: u32,
        cancel: &CancelToken,
    ) -> Result<Vec<NucleusSummary>, String> {
        if cancel.is_armed() {
            cancel.check("before hierarchy lookup")?;
        }
        let st = self.state(sel)?;
        if st.cached.num_cliques() == 0 {
            // An empty space has an empty forest; answer without
            // materializing (and keeping resident) a trivial index.
            return Ok(Vec::new());
        }
        let hi = st.ensure_hierarchy_under(cancel)?;
        if cancel.is_armed() {
            cancel.check("after hierarchy materialization")?;
        }
        let mut out: Vec<NucleusSummary> = hi
            .forest
            .nuclei_at(k)
            .into_iter()
            .map(|node| NucleusSummary { node, k, size: hi.forest.nodes[node as usize].size })
            .collect();
        out.sort_by_key(|n| std::cmp::Reverse(n.size));
        Ok(out)
    }

    /// The densest region containing r-clique `id`: the maximal nucleus in
    /// which it first participates (its own node in the hierarchy).
    pub fn region_of(&self, sel: SpaceSel, id: usize) -> Result<RegionReport, String> {
        self.region_of_within(sel, id, None)
    }

    /// [`EngineView::region_of`] under an optional wall-clock deadline.
    pub fn region_of_within(
        &self,
        sel: SpaceSel,
        id: usize,
        deadline: Option<Instant>,
    ) -> Result<RegionReport, String> {
        self.region_of_under(sel, id, &CancelToken::with_deadline(deadline))
    }

    /// [`EngineView::region_of`] under a full cancellation token.
    pub fn region_of_under(
        &self,
        sel: SpaceSel,
        id: usize,
        cancel: &CancelToken,
    ) -> Result<RegionReport, String> {
        if cancel.is_armed() {
            cancel.check("before hierarchy lookup")?;
        }
        let st = self.state(sel)?;
        if st.cached.num_cliques() == 0 {
            // No cliques to address: stable error, no trivial index built.
            return Err(format!("clique id {id} out of range"));
        }
        if id >= st.cached.num_cliques() {
            return Err(format!("clique id {id} out of range"));
        }
        let hi = st.ensure_hierarchy_under(cancel)?;
        if cancel.is_armed() {
            cancel.check("after hierarchy materialization")?;
        }
        let node = hi.node_of[id];
        if node == u32::MAX {
            return Err(format!("clique {id} participates in no s-clique (no nucleus)"));
        }
        Ok(self.materialize_node(st, node))
    }

    /// A materialized hierarchy node by id (used by the `nuclei` op's
    /// drill-down).
    pub fn node_region(&self, sel: SpaceSel, node: u32) -> Result<RegionReport, String> {
        self.node_region_within(sel, node, None)
    }

    /// [`EngineView::node_region`] under an optional wall-clock deadline.
    pub fn node_region_within(
        &self,
        sel: SpaceSel,
        node: u32,
        deadline: Option<Instant>,
    ) -> Result<RegionReport, String> {
        self.node_region_under(sel, node, &CancelToken::with_deadline(deadline))
    }

    /// [`EngineView::node_region`] under a full cancellation token.
    pub fn node_region_under(
        &self,
        sel: SpaceSel,
        node: u32,
        cancel: &CancelToken,
    ) -> Result<RegionReport, String> {
        if cancel.is_armed() {
            cancel.check("before hierarchy lookup")?;
        }
        let st = self.state(sel)?;
        if st.cached.num_cliques() == 0 {
            return Err(format!("hierarchy node {node} out of range"));
        }
        let hi = st.ensure_hierarchy_under(cancel)?;
        if cancel.is_armed() {
            cancel.check("after hierarchy materialization")?;
        }
        if node as usize >= hi.forest.len() {
            return Err(format!("hierarchy node {node} out of range"));
        }
        Ok(self.materialize_node(st, node))
    }

    fn materialize_node(&self, st: &SpaceView, node: u32) -> RegionReport {
        let hi = st.hierarchy.get().expect("materialize_node follows ensure_hierarchy");
        let vertices = hi.forest.member_vertices(node, st.cached.as_ref());
        let density = hi.forest.node_density(node, st.cached.as_ref(), &self.graph);
        RegionReport {
            node,
            k: hi.forest.nodes[node as usize].k,
            size: hi.forest.nodes[node as usize].size,
            vertices,
            density,
        }
    }

    /// Serializes this epoch (building any missing hierarchy so the
    /// snapshot restores with the full serving index — forest plus its
    /// clique → node lookup — resident, no reconstruction on restart).
    ///
    /// Zero-copy: the snapshot **shares** the view's graph, κ vectors and
    /// forests by `Arc` instead of cloning them — a checkpoint of a
    /// multi-gigabyte engine allocates a handful of pointers.
    pub fn to_snapshot(&self) -> Snapshot {
        let spaces = self
            .spaces
            .iter()
            .map(|st| {
                let hi = st.ensure_hierarchy();
                SpaceSnapshot {
                    rs: st.sel.rs(),
                    kappa: Arc::clone(&st.kappa),
                    hierarchy: Some(Arc::clone(&hi.forest)),
                    node_of: Some(Arc::clone(&hi.node_of)),
                }
            })
            .collect();
        Snapshot { graph: Arc::clone(&self.graph), spaces }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            vertices: self.graph.num_vertices(),
            edges: self.graph.num_edges(),
            updates_applied: self.updates_applied,
            spaces: self
                .spaces
                .iter()
                .map(|st| SpaceStats {
                    space: st.sel.name().to_string(),
                    cliques: st.cached.num_cliques(),
                    max_kappa: st.kappa.iter().copied().max().unwrap_or(0),
                    hierarchy_resident: st.hierarchy.get().is_some(),
                    build_us: st.build_us,
                    peel_us: st.peel_us,
                })
                .collect(),
        }
    }

    /// Publishes point-in-time graph size gauges to the global registry.
    fn publish_gauges(&self) {
        let reg = Registry::global();
        reg.gauge("graph_vertices").set(self.graph.num_vertices() as u64);
        reg.gauge("graph_edges").set(self.graph.num_edges() as u64);
    }
}

/// The long-lived query-serving engine: the single writer lane's handle
/// on the current [`EngineView`] plus the refresh configuration.
///
/// Reads delegate to the current view (and are `&self`); [`Engine::update`]
/// builds an entirely new view and swaps the engine's `Arc` — callers
/// holding an `Arc<EngineView>` from [`Engine::view`] keep reading the
/// epoch they hold.
///
/// # Examples
///
/// ```
/// use hdsd_service::{Engine, EngineConfig, SpaceSel};
///
/// // A triangle: every vertex sits in a 2-core.
/// let g = hdsd_graph::graph_from_edges([(0, 1), (0, 2), (1, 2)]);
/// let mut engine = Engine::new(g, &EngineConfig::default());
/// assert_eq!(engine.kappa_of(SpaceSel::Core, 0), Ok(2));
///
/// // Updates build the next epoch; the old view is unchanged.
/// let old = engine.view();
/// engine.update(&[(0, 3), (1, 3), (2, 3)], &[]); // close the K4
/// assert_eq!(old.kappa_of(SpaceSel::Core, 0), Ok(2));
/// assert_eq!(engine.kappa_of(SpaceSel::Core, 0), Ok(3));
/// ```
pub struct Engine {
    view: Arc<EngineView>,
}

impl Engine {
    /// Builds the engine with a full decomposition of every configured
    /// space. The triangle substrate is enumerated once and shared.
    pub fn new(graph: CsrGraph, cfg: &EngineConfig) -> Engine {
        let triangles = cfg
            .spaces
            .iter()
            .any(|s| s.needs_triangles())
            .then(|| Arc::new(TriangleList::build(&graph)));
        let spaces = cfg
            .spaces
            .iter()
            .map(|&sel| SpaceView::fresh(sel, &graph, triangles.as_deref()))
            .collect();
        let view = EngineView { graph: Arc::new(graph), triangles, spaces, updates_applied: 0 };
        view.publish_gauges();
        Engine { view: Arc::new(view) }
    }

    /// The current view (epoch) as a shareable handle. The serving layer
    /// publishes this through an [`crate::epoch::EpochCell`] after every
    /// update; tests and benches read it directly.
    pub fn view(&self) -> Arc<EngineView> {
        Arc::clone(&self.view)
    }

    /// The current graph.
    pub fn graph(&self) -> &CsrGraph {
        self.view.graph()
    }

    /// Configured spaces.
    pub fn spaces(&self) -> Vec<SpaceSel> {
        self.view.spaces()
    }

    /// Exact κ of r-clique `id` (a resident-vector read).
    pub fn kappa_of(&self, sel: SpaceSel, id: usize) -> Result<u32, String> {
        self.view.kappa_of(sel, id)
    }

    /// Number of r-cliques in a space.
    pub fn num_cliques(&self, sel: SpaceSel) -> Result<usize, String> {
        self.view.num_cliques(sel)
    }

    /// The full resident κ vector of a space.
    pub fn kappa_vector(&self, sel: SpaceSel) -> Result<&[u32], String> {
        self.view.kappa_vector(sel)
    }

    /// The vertices of r-clique `id`.
    pub fn clique_vertices(&self, sel: SpaceSel, id: usize) -> Result<Vec<VertexId>, String> {
        self.view.clique_vertices(sel, id)
    }

    /// Resolves an r-clique by its vertex set. See [`EngineView::resolve`].
    pub fn resolve(&self, sel: SpaceSel, vertices: &[VertexId]) -> Result<usize, String> {
        self.view.resolve(sel, vertices)
    }

    /// Budgeted local estimate with the Theorem-1 bound interval.
    pub fn estimate(
        &self,
        sel: SpaceSel,
        id: usize,
        opts: &QueryOptions,
    ) -> Result<QueryEstimate, String> {
        self.view.estimate(sel, id, opts)
    }

    /// The resident hierarchy forest of a space, building it if absent.
    pub fn hierarchy_of(&self, sel: SpaceSel) -> Result<&Hierarchy, String> {
        self.view.hierarchy_of(sel)
    }

    /// The maximal k-(r,s) nuclei at threshold `k`, largest first.
    pub fn nuclei_at(&self, sel: SpaceSel, k: u32) -> Result<Vec<NucleusSummary>, String> {
        self.view.nuclei_at(sel, k)
    }

    /// [`Engine::nuclei_at`] under an optional wall-clock deadline.
    pub fn nuclei_at_within(
        &self,
        sel: SpaceSel,
        k: u32,
        deadline: Option<Instant>,
    ) -> Result<Vec<NucleusSummary>, String> {
        self.view.nuclei_at_within(sel, k, deadline)
    }

    /// The densest region containing r-clique `id`.
    pub fn region_of(&self, sel: SpaceSel, id: usize) -> Result<RegionReport, String> {
        self.view.region_of(sel, id)
    }

    /// [`Engine::region_of`] under an optional wall-clock deadline.
    pub fn region_of_within(
        &self,
        sel: SpaceSel,
        id: usize,
        deadline: Option<Instant>,
    ) -> Result<RegionReport, String> {
        self.view.region_of_within(sel, id, deadline)
    }

    /// A materialized hierarchy node by id.
    pub fn node_region(&self, sel: SpaceSel, node: u32) -> Result<RegionReport, String> {
        self.view.node_region(sel, node)
    }

    /// [`Engine::node_region`] under an optional wall-clock deadline.
    pub fn node_region_within(
        &self,
        sel: SpaceSel,
        node: u32,
        deadline: Option<Instant>,
    ) -> Result<RegionReport, String> {
        self.view.node_region_within(sel, node, deadline)
    }

    /// Applies an edge batch by building the **next epoch off to the
    /// side**: the CSR, the triangle substrate, and every resident space
    /// snapshot are spliced into fresh values, κ is re-peeled in place on
    /// each spliced snapshot's flat rows, and resident hierarchies are
    /// **repaired** ([`Hierarchy::repair`]) instead of invalidated. The
    /// current view is never touched — readers holding it keep answering
    /// bit-identically — and on return `self.view` is the new epoch, ready
    /// to publish.
    ///
    /// This is a deliberately read-optimized trade: forest maintenance
    /// (including the cold build the repair degrades to when nothing is
    /// preservable, `full_rebuild` — routine for the core space's shallow
    /// forest) is paid here, at update time, keeping every subsequent
    /// region query rebuild-free. Update-heavy workloads that never touch
    /// `region`/`nuclei` simply never make a hierarchy resident and pay
    /// none of it. The splices scale with the perturbation; the re-peel is
    /// linear in the space.
    ///
    /// A region query racing the update may fill the *old* epoch's
    /// hierarchy `OnceLock` after this writer checked it; the new epoch
    /// then simply starts without that forest resident and the next
    /// region query rebuilds it lazily — stale-read tolerance, never a
    /// torn forest.
    pub fn update(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> UpdateReport {
        self.update_within(insert, remove, &CancelToken::none())
            .expect("an unarmed token never cancels")
    }

    /// [`Engine::update`] under a cancellation token, threaded into every
    /// space's κ re-peel (it trips as `peel drain`). Because the next epoch
    /// is built entirely off to the side, a mid-update trip is trivially
    /// sound: the partial next view is dropped, `self.view` still points
    /// at the old epoch, and readers never observe anything in between.
    ///
    /// Durability note: callers that append to a WAL **before** applying
    /// must only pass tokens that cannot trip here (or re-apply on
    /// restart) — an update cancelled after its WAL append would replay on
    /// recovery. The protocol layer therefore checks deadlines before the
    /// WAL append and hands this method an unarmed token for durable ops.
    pub fn update_within(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
        cancel: &CancelToken,
    ) -> Result<UpdateReport, Cancelled> {
        if cancel.is_armed() {
            cancel.check("before update")?;
        }
        let start = Instant::now();
        let old = &self.view;
        let (new_graph, ed, td) = {
            span!("update.graph_delta");
            let (new_graph, ed) = apply_edge_batch(&old.graph, insert, remove);
            let td = old.triangles.as_deref().map(|tl| triangle_delta(tl, &new_graph, &ed));
            (new_graph, ed, td)
        };
        let graph_delta_us = start.elapsed().as_micros() as u64;

        let mut reports = Vec::with_capacity(old.spaces.len());
        let mut new_spaces = Vec::with_capacity(old.spaces.len());
        let mut hierarchy_repair_us = 0u64;
        for st in old.spaces.iter() {
            let t_splice = Instant::now();
            let splice_span = hdsd_telemetry::trace::Span::enter("update.splice");
            let sd = match st.sel {
                SpaceSel::Core => core_space_delta(&new_graph, old.graph.num_vertices()),
                SpaceSel::Truss => truss_space_delta(
                    &st.cached,
                    old.triangles.as_deref().unwrap(),
                    &new_graph,
                    &ed,
                    td.as_ref().unwrap(),
                ),
                SpaceSel::Nucleus34 => nucleus34_space_delta(
                    &st.cached,
                    &old.graph,
                    old.triangles.as_deref().unwrap(),
                    &new_graph,
                    &ed,
                    td.as_ref().unwrap(),
                ),
            };
            drop(splice_span);
            let splice_us = t_splice.elapsed().as_micros() as u64;
            let t_refresh = Instant::now();
            let kappa = {
                span!("update.refresh");
                PeelEngine::new()
                    .peel_within(sd.cached.flat(), cancel)
                    .map_err(|p| p.cancelled)?
                    .kappa
            };
            let refresh_us = t_refresh.elapsed().as_micros() as u64;
            // The next epoch inherits a repaired forest iff this epoch has
            // one resident at this instant (see the race note above).
            let mut next_hierarchy = None;
            let hierarchy_repair = st.hierarchy.get().map(|hi| {
                let t_repair = Instant::now();
                span!("update.repair");
                let mut batch_ends = ed.inserted_endpoints(&new_graph);
                batch_ends.extend(ed.removed_endpoints(&old.graph));
                let dirty =
                    repair_dirty_seed(&sd.cached, &sd.new_to_old, &st.kappa, &kappa, &batch_ends);
                let (forest, stats) =
                    hi.forest.repair(&sd.cached, &kappa, &sd.new_to_old, st.kappa.len(), &dirty);
                next_hierarchy =
                    Some(HierarchyIndex::from_forest(Arc::new(forest), sd.cached.num_cliques()));
                let repair_us = t_repair.elapsed().as_micros() as u64;
                hierarchy_repair_us += repair_us;
                HierarchyRepairReport {
                    repair_us,
                    preserved_subtrees: stats.preserved_subtrees,
                    preserved_nodes: stats.preserved_nodes,
                    rebuilt_nodes: stats.rebuilt_nodes,
                    dirty_cliques: stats.dirty_cliques,
                    scanned_scliques: stats.scanned_scliques,
                    full_rebuild: stats.full_rebuild,
                }
            });
            let processed = kappa.len() as u64;
            let reg = Registry::global();
            let lbl = [("space", st.sel.name())];
            reg.counter(&labeled("refresh_processed_total", &lbl)).add(processed);
            reg.histogram(&labeled("update_splice_micros", &lbl)).record(splice_us);
            reg.histogram(&labeled("update_refresh_micros", &lbl)).record(refresh_us);
            if let Some(hr) = &hierarchy_repair {
                reg.histogram(&labeled("hierarchy_repair_micros", &lbl)).record(hr.repair_us);
                reg.counter(&labeled("repair_preserved_nodes_total", &lbl))
                    .add(hr.preserved_nodes as u64);
                reg.counter(&labeled("repair_rebuilt_nodes_total", &lbl))
                    .add(hr.rebuilt_nodes as u64);
                reg.counter(&labeled("repair_full_rebuilds_total", &lbl))
                    .add(hr.full_rebuild as u64);
            }
            reports.push(SpaceRefresh {
                space: st.sel.name(),
                processed,
                splice_us,
                refresh_us,
                hierarchy_repair,
            });
            let hierarchy = OnceLock::new();
            if let Some(hi) = next_hierarchy {
                let _ = hierarchy.set(hi);
            }
            new_spaces.push(SpaceView {
                sel: st.sel,
                cached: Arc::new(sd.cached),
                kappa: Arc::new(kappa),
                hierarchy,
                build_us: st.build_us,
                peel_us: st.peel_us,
            });
        }
        let triangles = match td {
            Some(td) => Some(Arc::new(td.list)),
            None => old.triangles.clone(),
        };
        let next = EngineView {
            graph: Arc::new(new_graph),
            triangles,
            spaces: new_spaces,
            updates_applied: old.updates_applied + 1,
        };
        let wall_us = start.elapsed().as_micros() as u64;
        let reg = Registry::global();
        reg.counter("updates_applied_total").inc();
        reg.histogram("update_wall_micros").record(wall_us);
        reg.histogram("update_graph_delta_micros").record(graph_delta_us);
        next.publish_gauges();
        self.view = Arc::new(next);
        Ok(UpdateReport {
            inserted: ed.inserted(),
            removed: ed.removed(),
            graph_delta_us,
            spaces: reports,
            hierarchy_repair_us,
            wall_us,
        })
    }

    /// Serializes the current epoch zero-copy. See
    /// [`EngineView::to_snapshot`].
    pub fn to_snapshot(&self) -> Snapshot {
        self.view.to_snapshot()
    }

    /// Restores an engine from a snapshot: spaces are re-materialized from
    /// the graph (cheap relative to decomposing), κ and hierarchies are
    /// adopted as-is — `Arc`-shared with the snapshot, not copied — after
    /// a length check.
    pub fn from_snapshot(snap: Snapshot) -> Result<Engine, String> {
        let needs_tri = snap.spaces.iter().any(|sp| sp.rs != (1, 2));
        let triangles = needs_tri.then(|| Arc::new(TriangleList::build(&snap.graph)));
        let mut spaces = Vec::with_capacity(snap.spaces.len());
        for sp in snap.spaces {
            let sel = match sp.rs {
                (1, 2) => SpaceSel::Core,
                (2, 3) => SpaceSel::Truss,
                (3, 4) => SpaceSel::Nucleus34,
                other => return Err(format!("snapshot contains unknown space {other:?}")),
            };
            let t_build = Instant::now();
            let cached = sel.build_cached(&snap.graph, triangles.as_deref());
            let build_us = t_build.elapsed().as_micros() as u64;
            if cached.num_cliques() != sp.kappa.len() {
                return Err(format!(
                    "snapshot κ length {} does not match rebuilt {} space ({} cliques)",
                    sp.kappa.len(),
                    sel.name(),
                    cached.num_cliques()
                ));
            }
            // v3 snapshots carry the clique → node index (validated by the
            // reader); adopt it directly and fall back to the derivation
            // scan only when absent.
            let index = match (sp.hierarchy, sp.node_of) {
                (Some(forest), Some(node_of)) => Some(HierarchyIndex { forest, node_of }),
                (Some(forest), None) => Some(HierarchyIndex::from_forest(forest, sp.kappa.len())),
                (None, _) => None,
            };
            let hierarchy = OnceLock::new();
            if let Some(hi) = index {
                let _ = hierarchy.set(hi);
            }
            // κ is adopted, nothing is peeled: that is the point of
            // restoring from a snapshot, and peel_us = 0 records it.
            spaces.push(SpaceView {
                sel,
                cached: Arc::new(cached),
                kappa: sp.kappa,
                hierarchy,
                build_us,
                peel_us: 0,
            });
        }
        let view = EngineView { graph: snap.graph, triangles, spaces, updates_applied: 0 };
        view.publish_gauges();
        Ok(Engine { view: Arc::new(view) })
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> EngineStats {
        self.view.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsd_graph::graph_from_edges;

    fn demo_graph() -> CsrGraph {
        // Two K4s sharing the edge (2,3), plus a tail 5-6.
        graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5),
            (5, 6),
        ])
    }

    fn full_config() -> EngineConfig {
        EngineConfig { spaces: vec![SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] }
    }

    #[test]
    fn lookups_match_peeling_across_spaces() {
        let g = hdsd_datasets::holme_kim(120, 4, 0.5, 3);
        let engine = Engine::new(g.clone(), &full_config());
        assert_eq!(engine.kappa_of(SpaceSel::Core, 5).unwrap(), peel(&CoreSpace::new(&g)).kappa[5]);
        let kt = peel(&TrussSpace::precomputed(&g)).kappa;
        for e in [0usize, 17, 80] {
            assert_eq!(engine.kappa_of(SpaceSel::Truss, e).unwrap(), kt[e]);
        }
        // Vertex-addressed resolution agrees with id-addressed lookups.
        let (u, v) = g.edges()[17];
        let id = engine.resolve(SpaceSel::Truss, &[u, v]).unwrap();
        assert_eq!(id, 17);
        assert!(engine.kappa_of(SpaceSel::Truss, 1 << 20).is_err());
        assert!(engine.resolve(SpaceSel::Truss, &[0]).is_err());
    }

    #[test]
    fn estimates_bracket_exact_kappa() {
        let g = hdsd_datasets::holme_kim(150, 5, 0.5, 11);
        let engine = Engine::new(g.clone(), &EngineConfig::default());
        let exact = peel(&CoreSpace::new(&g)).kappa;
        for q in [0usize, 40, 90] {
            let est = engine
                .estimate(
                    SpaceSel::Core,
                    q,
                    &QueryOptions {
                        iterations: 3,
                        budget: Some(500),
                        lower_bound: true,
                        deadline: None,
                    },
                )
                .unwrap();
            assert!(est.lower <= exact[q] && exact[q] <= est.estimate, "vertex {q}");
        }
    }

    #[test]
    fn region_and_nuclei_come_from_the_resident_hierarchy() {
        let engine = Engine::new(demo_graph(), &full_config());
        // Vertex 6 has κ=1; its densest region is the whole 1-core.
        let r = engine.region_of(SpaceSel::Core, 6).unwrap();
        assert_eq!(r.k, 1);
        assert_eq!(r.vertices.len(), 7);
        // Vertex 0's region: the 3-core spanning both K4s.
        let r0 = engine.region_of(SpaceSel::Core, 0).unwrap();
        assert_eq!(r0.k, 3);
        assert_eq!(r0.vertices, vec![0, 1, 2, 3, 4, 5]);
        // Truss: the K4s share edge (2,3), so triangle connectivity fuses
        // them into a single 2-truss spanning all six clique vertices.
        let e01 = engine.graph().edge_id(0, 1).unwrap() as usize;
        let rt = engine.region_of(SpaceSel::Truss, e01).unwrap();
        assert_eq!(rt.k, 2);
        assert_eq!(rt.vertices, vec![0, 1, 2, 3, 4, 5]);
        let nuclei = engine.nuclei_at(SpaceSel::Truss, 2).unwrap();
        assert_eq!(nuclei.len(), 1);
        let drill = engine.node_region(SpaceSel::Truss, nuclei[0].node).unwrap();
        assert_eq!(drill.vertices.len(), 6);
        // The (3,4) nuclei do NOT merge across the shared edge (the
        // paper's Figure-3 point): two 1-(3,4) nuclei.
        let n34 = engine.nuclei_at(SpaceSel::Nucleus34, 1).unwrap();
        assert_eq!(n34.len(), 2);
    }

    #[test]
    fn updates_keep_every_space_exact() {
        let g = hdsd_datasets::holme_kim(80, 4, 0.6, 17);
        let mut engine = Engine::new(g, &full_config());
        for round in 0..3u32 {
            let rm: Vec<(u32, u32)> = engine
                .graph()
                .edges()
                .iter()
                .copied()
                .skip(round as usize * 2)
                .step_by(37)
                .take(3)
                .collect();
            let ins: Vec<(u32, u32)> =
                (0..3).map(|i| (round * 5 + i, (round * 9 + 2 * i + 33) % 80)).collect();
            let report = engine.update(&ins, &rm);
            assert_eq!(report.spaces.len(), 3);
            let g2 = engine.graph().clone();
            assert_eq!(
                *engine.view().state(SpaceSel::Core).unwrap().kappa,
                peel(&CoreSpace::new(&g2)).kappa
            );
            assert_eq!(
                *engine.view().state(SpaceSel::Truss).unwrap().kappa,
                peel(&TrussSpace::precomputed(&g2)).kappa
            );
            assert_eq!(
                *engine.view().state(SpaceSel::Nucleus34).unwrap().kappa,
                peel(&Nucleus34Space::precomputed(&g2)).kappa
            );
            // Region queries still work against the refreshed state.
            let _ = engine.region_of(SpaceSel::Core, 0).unwrap();
        }
        assert_eq!(engine.stats().updates_applied, 3);
    }

    #[test]
    fn updates_repair_resident_hierarchies_instead_of_invalidating() {
        let g = hdsd_datasets::holme_kim(90, 4, 0.5, 41);
        let mut engine = Engine::new(g, &full_config());
        // Make every hierarchy resident, then update: the forests must
        // stay resident (repaired, not dropped) and match cold rebuilds.
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            let _ = engine.nuclei_at(sel, 1).unwrap();
        }
        for round in 0..3u32 {
            let rm: Vec<(u32, u32)> = engine
                .graph()
                .edges()
                .iter()
                .copied()
                .skip(round as usize)
                .step_by(31)
                .take(3)
                .collect();
            let ins: Vec<(u32, u32)> =
                (0..3).map(|i| (round * 7 + i, (round * 13 + 3 * i + 40) % 90)).collect();
            let report = engine.update(&ins, &rm);
            for s in &report.spaces {
                assert!(
                    s.hierarchy_repair.is_some(),
                    "{}: resident hierarchy was not repaired",
                    s.space
                );
            }
            for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
                let view = engine.view();
                let st = view.state(sel).unwrap();
                let hi = st.hierarchy.get().expect("hierarchy must stay resident");
                hdsd_nucleus::assert_forest_eq(
                    &hi.forest,
                    &build_hierarchy(st.cached.as_ref(), &st.kappa),
                );
                // The inverted index matches the repaired forest.
                assert_eq!(*hi.node_of, hi.forest.clique_to_node(st.cached.num_cliques()));
            }
        }
        assert!(engine.stats().spaces.iter().all(|s| s.hierarchy_resident));
    }

    #[test]
    fn updates_skip_repair_when_no_hierarchy_is_resident() {
        let g = hdsd_datasets::holme_kim(60, 4, 0.5, 8);
        let mut engine = Engine::new(g, &full_config());
        let report = engine.update(&[(0, 30)], &[]);
        assert_eq!(report.hierarchy_repair_us, 0);
        assert!(report.spaces.iter().all(|s| s.hierarchy_repair.is_none()));
        // Lazily built afterwards, the hierarchy serves the updated graph.
        let r = engine.region_of(SpaceSel::Core, 0).unwrap();
        assert!(r.k >= 1);
    }

    #[test]
    fn empty_graph_queries_return_stable_responses() {
        let g = hdsd_graph::graph_from_edges([]);
        let engine = Engine::new(g, &full_config());
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            assert!(engine.nuclei_at(sel, 1).unwrap().is_empty());
            assert!(engine.region_of(sel, 0).unwrap_err().contains("out of range"));
            assert!(engine.node_region(sel, 0).unwrap_err().contains("out of range"));
        }
        // The early returns never materialized a trivial index.
        assert!(engine.stats().spaces.iter().all(|s| !s.hierarchy_resident));
    }

    #[test]
    fn snapshot_restore_adopts_the_persisted_clique_index() {
        let g = hdsd_datasets::holme_kim(70, 4, 0.5, 51);
        let engine = Engine::new(g, &full_config());
        let _ = engine.region_of(SpaceSel::Truss, 0).unwrap();
        let snap = engine.to_snapshot();
        for sp in &snap.spaces {
            let node_of = sp.node_of.as_deref().expect("v3 snapshots carry the index");
            assert_eq!(node_of, &sp.hierarchy.as_ref().unwrap().clique_to_node(sp.kappa.len()));
        }
        let back = Engine::from_snapshot(snap).unwrap();
        let (ev, bv) = (engine.view(), back.view());
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            let (a, b) = (ev.state(sel).unwrap(), bv.state(sel).unwrap());
            assert_eq!(
                a.hierarchy.get().unwrap().node_of,
                b.hierarchy.get().unwrap().node_of,
                "{}",
                sel.name()
            );
        }
    }

    #[test]
    fn stats_split_cold_start_into_build_and_peel() {
        // Large enough that every space's build and peel cross the 1 µs
        // timer resolution.
        let g = hdsd_datasets::holme_kim(1500, 6, 0.5, 29);
        let engine = Engine::new(g, &full_config());
        let fresh = engine.stats();
        assert!(fresh.spaces.iter().all(|s| s.build_us > 0), "{fresh:?}");
        assert!(fresh.spaces.iter().all(|s| s.peel_us > 0), "{fresh:?}");
        // A restored engine re-materializes spaces (build_us measured) but
        // adopts κ — the whole point of snapshots — so peel_us is 0.
        let snap = engine.to_snapshot();
        let back = Engine::from_snapshot(snap).unwrap();
        let restored = back.stats();
        assert!(restored.spaces.iter().all(|s| s.build_us > 0), "{restored:?}");
        assert!(restored.spaces.iter().all(|s| s.peel_us == 0), "{restored:?}");
    }

    #[test]
    fn snapshot_restore_preserves_answers() {
        let g = hdsd_datasets::holme_kim(100, 4, 0.5, 23);
        let mut engine = Engine::new(g, &full_config());
        engine.update(&[(0, 50), (1, 51)], &[]);
        let _ = engine.region_of(SpaceSel::Core, 0).unwrap();
        let snap = engine.to_snapshot();
        let mut back = Engine::from_snapshot(snap).unwrap();
        assert_eq!(back.graph().edges(), engine.graph().edges());
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            assert_eq!(
                back.view().state(sel).unwrap().kappa,
                engine.view().state(sel).unwrap().kappa,
                "{}",
                sel.name()
            );
            // Hierarchies were serialized resident.
            assert!(back.view().state(sel).unwrap().hierarchy.get().is_some());
        }
        // And the restored engine keeps serving + updating.
        let r = back.region_of(SpaceSel::Core, 0).unwrap();
        assert_eq!(r.vertices, engine.region_of(SpaceSel::Core, 0).unwrap().vertices);
        back.update(&[(2, 60)], &[]);
        let g2 = back.graph().clone();
        assert_eq!(
            *back.view().state(SpaceSel::Core).unwrap().kappa,
            peel(&CoreSpace::new(&g2)).kappa
        );
    }

    #[test]
    fn old_views_survive_updates_bit_identically() {
        let g = hdsd_datasets::holme_kim(80, 4, 0.5, 13);
        let mut engine = Engine::new(g, &full_config());
        let old = engine.view();
        let old_kappa: Vec<u32> = old.kappa_vector(SpaceSel::Truss).unwrap().to_vec();
        let old_edges = old.graph().num_edges();
        engine.update(&[(0, 40), (1, 41)], &[]);
        engine.update(&[(2, 42)], &[]);
        // The pinned view still answers from its own epoch.
        assert_eq!(old.kappa_vector(SpaceSel::Truss).unwrap(), &old_kappa[..]);
        assert_eq!(old.graph().num_edges(), old_edges);
        assert_eq!(old.stats().updates_applied, 0);
        assert_eq!(engine.stats().updates_applied, 2);
        assert_ne!(engine.graph().num_edges(), old_edges);
    }
}
