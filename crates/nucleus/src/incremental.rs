//! Exact maintenance of κ indices under edge updates — generic over the
//! clique space.
//!
//! An edge batch is applied by **splicing** the graph, the kind's clique
//! substrate and the resident [`CachedSpace`] snapshot
//! ([`hdsd_graph::apply_edge_batch`] plus [`SpaceKind::apply_delta`]), so
//! an update never re-enumerates the clique universe. κ is then recomputed
//! by a plain **re-peel** of the spliced snapshot's resident flat rows.
//!
//! The paper's asynchronous iteration could instead be resumed from the
//! stale κ — it converges from any pointwise upper bound
//! ([`crate::asynchronous::and_resume`]) — but its certification sweep
//! recomputes every clique at least once, and on the service bench such a
//! warm refresh lost to a peel of the same spliced rows in every space.
//! The local algorithms keep their place where the paper argues they win:
//! query-driven, budgeted estimates ([`crate::query`]).

use std::marker::PhantomData;

use hdsd_graph::{CsrDelta, CsrGraph, TriangleList, VertexId};

use crate::delta::SpaceDelta;
use crate::peel::PeelEngine;
use crate::space::{CachedSpace, CliqueSpace, CoreSpace, Nucleus34Space, TrussSpace};

/// A family of clique spaces constructible from any graph — the hook that
/// lets [`Incremental`] (and the `hdsd-service` engine) rebuild its space
/// after every batch without being tied to one decomposition.
///
/// Beyond the cold build, a kind describes how to *maintain* itself across
/// an edge batch: it owns a [`SpaceKind::Substrate`] (e.g. the triangle
/// list) and splices its [`CachedSpace`] through
/// [`SpaceKind::apply_delta`], so updates never re-enumerate the clique
/// universe.
pub trait SpaceKind: 'static {
    /// The space this kind builds.
    type Space<'g>: CliqueSpace;
    /// Clique substrate kept resident across updates (`()` for the core
    /// space, the maintained [`TriangleList`] for truss and (3,4)).
    type Substrate: Send + Sync + 'static;
    /// Short name for telemetry ("core", "truss", "nucleus34").
    const NAME: &'static str;
    /// Builds the space over `graph`.
    fn build(graph: &CsrGraph) -> Self::Space<'_>;
    /// Builds the substrate for a fresh graph (cold enumeration).
    fn init_substrate(graph: &CsrGraph) -> Self::Substrate;
    /// Materializes the owned snapshot from a graph plus its substrate.
    fn build_cached(graph: &CsrGraph, substrate: &Self::Substrate) -> CachedSpace;
    /// Splices `old_cached` across the batch `ed` (which turned
    /// `old_graph` into `new_graph`), updating the substrate in place and
    /// returning the new snapshot with its clique-id remap.
    fn apply_delta(
        substrate: &mut Self::Substrate,
        old_cached: &CachedSpace,
        old_graph: &CsrGraph,
        new_graph: &CsrGraph,
        ed: &CsrDelta,
    ) -> SpaceDelta;
}

/// The (1,2) k-core kind: r-cliques are vertices, ids are stable.
pub enum CoreKind {}

impl SpaceKind for CoreKind {
    type Space<'g> = CoreSpace<'g>;
    type Substrate = ();
    const NAME: &'static str = "core";
    fn build(graph: &CsrGraph) -> CoreSpace<'_> {
        CoreSpace::new(graph)
    }
    fn init_substrate(_graph: &CsrGraph) -> Self::Substrate {}
    fn build_cached(graph: &CsrGraph, _substrate: &Self::Substrate) -> CachedSpace {
        CachedSpace::build(&CoreSpace::new(graph))
    }
    fn apply_delta(
        _substrate: &mut Self::Substrate,
        _old_cached: &CachedSpace,
        old_graph: &CsrGraph,
        new_graph: &CsrGraph,
        _ed: &CsrDelta,
    ) -> SpaceDelta {
        crate::delta::core_space_delta(new_graph, old_graph.num_vertices())
    }
}

/// The (2,3) k-truss kind: r-cliques are edges, keyed by endpoints.
pub enum TrussKind {}

impl SpaceKind for TrussKind {
    type Space<'g> = TrussSpace<'g>;
    type Substrate = TriangleList;
    const NAME: &'static str = "truss";
    fn build(graph: &CsrGraph) -> TrussSpace<'_> {
        TrussSpace::on_the_fly(graph)
    }
    fn init_substrate(graph: &CsrGraph) -> TriangleList {
        TriangleList::build(graph)
    }
    fn build_cached(graph: &CsrGraph, substrate: &TriangleList) -> CachedSpace {
        CachedSpace::build(&TrussSpace::with_triangles(graph, substrate))
    }
    fn apply_delta(
        substrate: &mut TriangleList,
        old_cached: &CachedSpace,
        _old_graph: &CsrGraph,
        new_graph: &CsrGraph,
        ed: &CsrDelta,
    ) -> SpaceDelta {
        let td = hdsd_graph::triangle_delta(substrate, new_graph, ed);
        let out = crate::delta::truss_space_delta(old_cached, substrate, new_graph, ed, &td);
        *substrate = td.list;
        out
    }
}

/// The (3,4) nucleus kind: r-cliques are triangles, keyed by vertex triple.
pub enum Nucleus34Kind {}

impl SpaceKind for Nucleus34Kind {
    type Space<'g> = Nucleus34Space<'g>;
    type Substrate = TriangleList;
    const NAME: &'static str = "nucleus34";
    fn build(graph: &CsrGraph) -> Nucleus34Space<'_> {
        Nucleus34Space::on_the_fly(graph)
    }
    fn init_substrate(graph: &CsrGraph) -> TriangleList {
        TriangleList::build(graph)
    }
    fn build_cached(graph: &CsrGraph, substrate: &TriangleList) -> CachedSpace {
        CachedSpace::build(&Nucleus34Space::with_triangles(graph, substrate))
    }
    fn apply_delta(
        substrate: &mut TriangleList,
        old_cached: &CachedSpace,
        old_graph: &CsrGraph,
        new_graph: &CsrGraph,
        ed: &CsrDelta,
    ) -> SpaceDelta {
        let td = hdsd_graph::triangle_delta(substrate, new_graph, ed);
        let out = crate::delta::nucleus34_space_delta(
            old_cached, old_graph, substrate, new_graph, ed, &td,
        );
        *substrate = td.list;
        out
    }
}

/// Dynamically maintained decomposition of one space kind.
///
/// Owns the graph, the kind's clique substrate, and the space snapshot;
/// [`Incremental::insert_edges`] and [`Incremental::remove_edges`] apply a
/// batch by **splicing** all three ([`hdsd_graph::apply_edge_batch`] plus
/// [`SpaceKind::apply_delta`]) and re-peel the spliced snapshot — no graph
/// rebuild and no global triangle/K4 recount.
/// `Incremental<CoreKind>` is the historical [`IncrementalCore`];
/// `Incremental<TrussKind>` and `Incremental<Nucleus34Kind>` maintain
/// truss and (3,4)-nucleus indices the same way.
pub struct Incremental<K: SpaceKind> {
    graph: CsrGraph,
    substrate: K::Substrate,
    cached: CachedSpace,
    kappa: Vec<u32>,
    _kind: PhantomData<K>,
}

/// Dynamically maintained core decomposition (the original API).
pub type IncrementalCore = Incremental<CoreKind>;

impl<K: SpaceKind> Incremental<K> {
    /// Builds the initial decomposition (a full peel).
    pub fn new(graph: CsrGraph) -> Self {
        let substrate = K::init_substrate(&graph);
        let cached = K::build_cached(&graph, &substrate);
        let kappa = peel_kappa(&cached);
        Incremental { graph, substrate, cached, kappa, _kind: PhantomData }
    }

    /// Current graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Current exact κ indices (ids follow the current graph's space).
    pub fn kappa(&self) -> &[u32] {
        &self.kappa
    }

    /// The resident space snapshot the κ ids refer to.
    pub fn cached(&self) -> &CachedSpace {
        &self.cached
    }

    /// Inserts a batch of edges (duplicates and self-loops ignored) and
    /// re-peels κ.
    pub fn insert_edges(&mut self, edges: &[(VertexId, VertexId)]) -> BatchOutcome {
        self.update_edges(edges, &[])
    }

    /// Removes a batch of edges (absent edges ignored) and re-peels κ.
    pub fn remove_edges(&mut self, edges: &[(VertexId, VertexId)]) -> BatchOutcome {
        self.update_edges(&[], edges)
    }

    /// Applies a mixed batch in one splice + one re-peel, returning the
    /// clique-id remap and the pre-batch κ.
    pub fn update_edges(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> BatchOutcome {
        let (new_graph, ed) = hdsd_graph::apply_edge_batch(&self.graph, insert, remove);
        let sd = K::apply_delta(&mut self.substrate, &self.cached, &self.graph, &new_graph, &ed);
        let kappa = peel_kappa(&sd.cached);
        self.graph = new_graph;
        self.cached = sd.cached;
        BatchOutcome {
            new_to_old: sd.new_to_old,
            old_kappa: std::mem::replace(&mut self.kappa, kappa),
        }
    }
}

/// Exact κ of a snapshot, peeled in place on its flat rows.
fn peel_kappa(cached: &CachedSpace) -> Vec<u32> {
    PeelEngine::new().peel(cached.flat()).kappa
}

/// What one [`Incremental::update_edges`] batch did to the clique ids and
/// their κ.
pub struct BatchOutcome {
    /// New clique id → old clique id ([`hdsd_graph::NO_ID`] for created).
    pub new_to_old: Vec<u32>,
    /// κ of the pre-batch space, indexed by old clique id.
    pub old_kappa: Vec<u32>,
}

impl Incremental<CoreKind> {
    /// Current exact core numbers (alias of [`Incremental::kappa`] kept for
    /// the original `IncrementalCore` API).
    pub fn core_numbers(&self) -> &[u32] {
        &self.kappa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::core_numbers;
    use crate::peel::peel;

    fn check_exact(inc: &IncrementalCore) {
        assert_eq!(inc.core_numbers(), core_numbers(inc.graph()).as_slice());
    }

    fn check_exact_kind<K: SpaceKind>(inc: &Incremental<K>) {
        let space = K::build(inc.graph());
        assert_eq!(inc.kappa(), peel(&space).kappa.as_slice(), "{} diverged", K::NAME);
    }

    #[test]
    fn insertions_match_from_scratch() {
        let g = hdsd_datasets::erdos_renyi_gnm(100, 300, 7);
        let mut inc = IncrementalCore::new(g);
        check_exact(&inc);
        inc.insert_edges(&[(0, 50), (1, 51), (2, 52)]);
        check_exact(&inc);
        // growing the vertex set on the fly
        inc.insert_edges(&[(99, 120), (120, 121)]);
        assert_eq!(inc.graph().num_vertices(), 122);
        check_exact(&inc);
    }

    #[test]
    fn deletions_match_from_scratch() {
        let g = hdsd_datasets::holme_kim(120, 4, 0.5, 3);
        let mut inc = IncrementalCore::new(g);
        let some_edges: Vec<(u32, u32)> = inc.graph().edges().iter().copied().step_by(17).collect();
        inc.remove_edges(&some_edges);
        check_exact(&inc);
        // removing a non-existent edge is a no-op
        let before = inc.graph().num_edges();
        inc.remove_edges(&[(0, 0), (119, 118)]);
        assert!(inc.graph().num_edges() <= before);
        check_exact(&inc);
    }

    #[test]
    fn interleaved_updates_stay_exact() {
        let g = hdsd_datasets::erdos_renyi_gnm(60, 150, 11);
        let mut inc = IncrementalCore::new(g);
        for round in 0..5u32 {
            inc.insert_edges(&[(round, 59 - round), (round * 2, round * 2 + 30)]);
            check_exact(&inc);
            let e = inc.graph().edges()[round as usize * 3];
            inc.remove_edges(&[e]);
            check_exact(&inc);
        }
    }

    #[test]
    fn truss_mixed_batches_stay_exact() {
        let g = hdsd_datasets::holme_kim(150, 5, 0.6, 5);
        let mut inc: Incremental<TrussKind> = Incremental::new(g);
        check_exact_kind(&inc);
        for round in 0..4u32 {
            let victims: Vec<(u32, u32)> = inc
                .graph()
                .edges()
                .iter()
                .copied()
                .skip(round as usize)
                .step_by(41)
                .take(5)
                .collect();
            let fresh: Vec<(u32, u32)> =
                (0..5).map(|i| (round * 7 + i, (round * 11 + 3 * i + 40) % 150)).collect();
            inc.update_edges(&fresh, &victims);
            check_exact_kind(&inc);
        }
    }

    #[test]
    fn nucleus34_mixed_batches_stay_exact() {
        let g = hdsd_datasets::planted_partition(&[14, 14, 14], 0.7, 0.05, 9);
        let mut inc: Incremental<Nucleus34Kind> = Incremental::new(g);
        check_exact_kind(&inc);
        for round in 0..3u32 {
            let victims: Vec<(u32, u32)> = inc
                .graph()
                .edges()
                .iter()
                .copied()
                .skip(round as usize)
                .step_by(29)
                .take(4)
                .collect();
            let fresh: Vec<(u32, u32)> =
                (0..4).map(|i| (round * 3 + i, (round * 5 + 2 * i + 20) % 42)).collect();
            inc.update_edges(&fresh, &victims);
            check_exact_kind(&inc);
        }
    }

    #[test]
    fn empty_batches_are_noops() {
        let g = hdsd_datasets::erdos_renyi_gnm(30, 60, 1);
        let mut inc = IncrementalCore::new(g);
        let before = inc.core_numbers().to_vec();
        inc.insert_edges(&[]);
        inc.remove_edges(&[]);
        assert_eq!(inc.core_numbers(), before.as_slice());
    }
}
