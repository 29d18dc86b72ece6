//! The peeling baseline (the paper's Algorithm 1).
//!
//! [`peel`] is the exact, sequential, bucket-queue algorithm — the
//! generalization of Batagelj–Zaveršnik `O(|E|)` k-core peeling to any
//! (r, s) space. It is the ground truth every local algorithm is verified
//! against, and the baseline every benchmark compares with.
//!
//! Two engines serve it:
//!
//! * [`peel_flat`] / [`PeelEngine`] — the **flat engine**: the bucket queue
//!   runs directly over [`FlatContainers`] CSR slices. Degree bins, the
//!   position permutation (`u32`, half the cache traffic of the old
//!   `usize` arrays) and every container row are contiguous; the inner
//!   loop is monomorphized per container arity (`group == 2` — the truss
//!   space — unrolls to a two-others fast path), and dead containers are
//!   skipped by a members-already-peeled check on the flat row with no
//!   closure dispatch anywhere.
//! * [`peel_walk`] — the original container-walk form, kept as the
//!   ablation reference and the fallback for spaces with no cache.
//!
//! [`peel`] dispatches: a space that already owns flat rows
//! ([`CliqueSpace::as_flat`], e.g. the engine-resident
//! [`CachedSpace`](crate::space::CachedSpace)) is peeled flat in place; a
//! space that prefers a cache gets one when it fits the default byte
//! budget (the same [`FlatContainers::build_within`] gate the sweep
//! drivers use); everything else walks.

use crate::cancel::{CancelToken, Cancelled};
use crate::convergence::DEFAULT_CONTAINER_CACHE_BUDGET;
use crate::space::{CliqueSpace, FlatContainers};

/// Items processed between cancellation checks in the sequential bucket
/// queue — the "one chunk" the mid-peel overshoot bound is stated in.
pub const PEEL_CANCEL_CHUNK: usize = 1024;

/// A peel aborted by a tripped [`CancelToken`]: the trip itself plus how
/// many items had already been peeled, so tests can pin the overshoot to
/// at most one [`PEEL_CANCEL_CHUNK`] past the trip point.
#[derive(Clone, Debug)]
pub struct PeelCancelled {
    /// Why and where the token tripped.
    pub cancelled: Cancelled,
    /// Items fully peeled before the abort.
    pub processed: usize,
}

impl From<PeelCancelled> for String {
    fn from(p: PeelCancelled) -> String {
        p.cancelled.message()
    }
}

/// Deterministic work counters of one peeling run.
///
/// Exact and identical between the walk and flat engines (same algorithm,
/// same visit order) — the CI bench gate pins them as a drift check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeelStats {
    /// s-clique containers visited (Σ d_S over peeled r-cliques).
    pub containers_scanned: u64,
    /// Containers skipped because a member was already peeled.
    pub dead_containers: u64,
    /// Bucket-queue moves (one per successful degree decrement).
    pub bucket_moves: u64,
}

/// Output of a peeling run.
#[derive(Clone, Debug)]
pub struct PeelResult {
    /// Exact κ index per r-clique.
    pub kappa: Vec<u32>,
    /// r-clique ids in processing (non-decreasing κ) order.
    pub order: Vec<u32>,
    /// Maximum κ.
    pub max_kappa: u32,
    /// Deterministic work counters of the run.
    pub stats: PeelStats,
}

impl PeelResult {
    fn empty() -> PeelResult {
        PeelResult {
            kappa: Vec::new(),
            order: Vec::new(),
            max_kappa: 0,
            stats: PeelStats::default(),
        }
    }
}

/// Exact sequential peeling over any clique space (Algorithm 1).
///
/// Dispatches to the fastest engine for the space: a resident flat cache
/// ([`CliqueSpace::as_flat`]) is peeled in place, a space that prefers a
/// cache within [`DEFAULT_CONTAINER_CACHE_BUDGET`] gets one built for the
/// run, and everything else falls back to [`peel_walk`]. All three paths
/// produce bit-identical results (κ, order, max κ — property-tested).
pub fn peel<S: CliqueSpace>(space: &S) -> PeelResult {
    if let Some(flat) = space.as_flat() {
        return peel_flat(flat);
    }
    if let Some(flat) = FlatContainers::build_within(space, DEFAULT_CONTAINER_CACHE_BUDGET) {
        return peel_flat(&flat);
    }
    peel_walk(space)
}

/// Exact sequential peeling over a flat container cache (the hot engine;
/// see [`PeelEngine`] for the reusable-buffer form).
pub fn peel_flat(flat: &FlatContainers) -> PeelResult {
    hdsd_telemetry::span!("peel.flat");
    PeelEngine::new().peel(flat)
}

/// Reusable flat peeling engine: owns the bucket-queue scratch (degree
/// bins, position permutation) so repeated peels — engine startup over
/// several spaces, property harnesses, benches — pay one warm allocation
/// instead of five fresh arrays per run.
///
/// The inner loop is monomorphized per container arity: `group == 1`
/// (core), `2` (truss — the two-others fast path), `3` ((3,4) nucleus),
/// with a dynamic-width fallback for generic spaces.
#[derive(Default)]
pub struct PeelEngine {
    /// Current S-degrees (mutated by peeling).
    deg: Vec<u32>,
    /// First unprocessed position of each degree bucket.
    bucket_start: Vec<usize>,
    /// Position of each r-clique in the processing permutation.
    pos_of: Vec<u32>,
    /// The permutation itself (positions sorted by current degree).
    item_at: Vec<u32>,
    /// Bucket-fill cursor used during initialization.
    cursor: Vec<usize>,
}

impl PeelEngine {
    /// An engine with empty scratch (buffers grow on first use).
    pub fn new() -> PeelEngine {
        PeelEngine::default()
    }

    /// Peels `flat` exactly, reusing this engine's scratch buffers.
    pub fn peel(&mut self, flat: &FlatContainers) -> PeelResult {
        self.peel_within(flat, &CancelToken::none()).expect("an unarmed token never cancels")
    }

    /// [`Self::peel`] with a cancellation check every
    /// [`PEEL_CANCEL_CHUNK`] peeled items.
    pub fn peel_within(
        &mut self,
        flat: &FlatContainers,
        cancel: &CancelToken,
    ) -> Result<PeelResult, PeelCancelled> {
        match flat.group() {
            1 => self.run::<1>(flat, cancel),
            2 => self.run::<2>(flat, cancel),
            3 => self.run::<3>(flat, cancel),
            _ => self.run::<0>(flat, cancel), // 0 = dynamic width
        }
    }

    /// The bucket-queue peel with the container arity monomorphized
    /// (`G == 0` reads the width at runtime — the generic-space fallback).
    fn run<const G: usize>(
        &mut self,
        flat: &FlatContainers,
        cancel: &CancelToken,
    ) -> Result<PeelResult, PeelCancelled> {
        let n = flat.num_cliques();
        if n == 0 {
            return Ok(PeelResult::empty());
        }
        let armed = cancel.is_armed();
        debug_assert!(G == 0 || flat.group() == G, "arity dispatch mismatch");
        let group = if G > 0 { G } else { flat.group().max(1) };
        let mut stats = PeelStats::default();

        // τ₀ straight off the CSR offsets; degree bins by counting sort.
        self.deg.clear();
        self.deg.extend((0..n).map(|i| flat.degree(i)));
        let max_deg = self.deg.iter().copied().max().unwrap_or(0) as usize;
        self.bucket_start.clear();
        self.bucket_start.resize(max_deg + 2, 0);
        for &d in &self.deg {
            self.bucket_start[d as usize + 1] += 1;
        }
        for i in 0..=max_deg {
            self.bucket_start[i + 1] += self.bucket_start[i];
        }
        self.pos_of.clear();
        self.pos_of.resize(n, 0);
        self.item_at.clear();
        self.item_at.resize(n, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.bucket_start);
        for v in 0..n {
            let p = self.cursor[self.deg[v] as usize];
            self.pos_of[v] = p as u32;
            self.item_at[p] = v as u32;
            self.cursor[self.deg[v] as usize] = p + 1;
        }

        let mut kappa = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        let mut max_kappa = 0u32;

        for i in 0..n {
            if armed && i % PEEL_CANCEL_CHUNK == 0 {
                if let Err(c) = cancel.check("peel drain") {
                    return Err(PeelCancelled { cancelled: c, processed: i });
                }
            }
            let v = self.item_at[i] as usize;
            let kv = self.deg[v];
            kappa[v] = kv;
            max_kappa = max_kappa.max(kv);
            order.push(v as u32);

            let row = flat.containers(v);
            stats.containers_scanned += (row.len() / group) as u64;
            for c in row.chunks_exact(group) {
                // Dead-container skip on the flat row: positions are
                // processed in order and alive items always sit past the
                // cursor, so `pos ≤ i` ⇔ the member is peeled and the
                // s-clique is gone.
                if c.iter().any(|&o| self.pos_of[o as usize] as usize <= i) {
                    stats.dead_containers += 1;
                    continue;
                }
                for &o in c {
                    let o = o as usize;
                    let d = self.deg[o];
                    if d > kv {
                        // Move o to the front of its bucket, then decrement.
                        let front = self.bucket_start[d as usize].max(i + 1);
                        let po = self.pos_of[o] as usize;
                        if po != front {
                            let other = self.item_at[front];
                            self.item_at[po] = other;
                            self.item_at[front] = o as u32;
                            self.pos_of[other as usize] = po as u32;
                            self.pos_of[o] = front as u32;
                        }
                        self.bucket_start[d as usize] = front + 1;
                        self.deg[o] = d - 1;
                        stats.bucket_moves += 1;
                    }
                }
            }
        }

        Ok(PeelResult { kappa, order, max_kappa, stats })
    }
}

/// Exact sequential peeling through the space's container walk — the
/// pre-flat form, kept as the ablation reference (`BENCH_peel.json`'s
/// "walk" rows) and the fallback for spaces with no cache. Bit-identical
/// to [`peel_flat`] on the same space.
pub fn peel_walk<S: CliqueSpace>(space: &S) -> PeelResult {
    hdsd_telemetry::span!("peel.walk");
    let n = space.num_cliques();
    if n == 0 {
        return PeelResult::empty();
    }
    let mut deg = space.initial_degrees();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
    let mut stats = PeelStats::default();

    // Bucket queue over degree values (positions sorted by current degree).
    let mut bucket_start = vec![0usize; max_deg + 2];
    for &d in &deg {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 0..=max_deg {
        bucket_start[i + 1] += bucket_start[i];
    }
    let mut pos_of = vec![0usize; n];
    let mut item_at = vec![0usize; n];
    {
        let mut cursor = bucket_start.clone();
        for (v, &d) in deg.iter().enumerate() {
            pos_of[v] = cursor[d as usize];
            item_at[cursor[d as usize]] = v;
            cursor[d as usize] += 1;
        }
    }

    let mut processed = vec![false; n];
    let mut kappa = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut max_kappa = 0u32;

    for i in 0..n {
        let v = item_at[i];
        processed[v] = true;
        let kv = deg[v];
        kappa[v] = kv;
        max_kappa = max_kappa.max(kv);
        order.push(v as u32);

        space.for_each_container(v, |others| {
            stats.containers_scanned += 1;
            // Algorithm 1: if any r-clique of this s-clique was already
            // processed, the s-clique is gone; skip.
            if others.iter().any(|&o| processed[o]) {
                stats.dead_containers += 1;
                return;
            }
            for &o in others {
                if deg[o] > kv {
                    // Move o to the front of its bucket, then decrement.
                    let d = deg[o] as usize;
                    let front = bucket_start[d].max(i + 1);
                    let po = pos_of[o];
                    if po != front {
                        let other_item = item_at[front];
                        item_at.swap(po, front);
                        pos_of[other_item] = po;
                        pos_of[o] = front;
                    }
                    bucket_start[d] = front + 1;
                    deg[o] -= 1;
                    stats.bucket_moves += 1;
                }
            }
        });
    }

    PeelResult { kappa, order, max_kappa, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{CachedSpace, CoreSpace, GenericSpace, Nucleus34Space, TrussSpace};
    use hdsd_graph::graph_from_edges;

    fn complete(n: u32) -> hdsd_graph::CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        graph_from_edges(edges)
    }

    /// The paper's Figure 2a graph: three nested cores.
    /// A triangle-rich 3-core (clique-ish), a 2-core ring, a 1-core tail.
    fn paper_core_graph() -> hdsd_graph::CsrGraph {
        // 3-core: K4 on {0,1,2,3}; 2-core: cycle {4,5,6} attached to 0;
        // 1-core: path 7-8 hanging off 4.
        graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4
            (4, 5),
            (5, 6),
            (6, 4),
            (0, 4), // triangle + bridge
            (4, 7),
            (7, 8), // tail
        ])
    }

    #[test]
    fn core_peeling_on_nested_graph() {
        let g = paper_core_graph();
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        assert_eq!(&r.kappa[0..4], &[3, 3, 3, 3]);
        assert_eq!(&r.kappa[4..7], &[2, 2, 2]);
        assert_eq!(&r.kappa[7..9], &[1, 1]);
        assert_eq!(r.max_kappa, 3);
    }

    #[test]
    fn order_is_nondecreasing_kappa() {
        let g = paper_core_graph();
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        let ks: Vec<u32> = r.order.iter().map(|&i| r.kappa[i as usize]).collect();
        assert!(ks.windows(2).all(|w| w[0] <= w[1]), "order {ks:?}");
    }

    #[test]
    fn truss_peeling_on_complete_graphs() {
        for n in 3..8u32 {
            let g = complete(n);
            let sp = TrussSpace::precomputed(&g);
            let r = peel(&sp);
            // Every edge of K_n is in exactly n−2 triangles and the whole
            // graph is the maximal truss: κ3 = n−2 everywhere.
            assert!(r.kappa.iter().all(|&k| k == n - 2), "K{n}: {:?}", r.kappa);
        }
    }

    #[test]
    fn nucleus34_peeling_on_complete_graphs() {
        for n in 4..8u32 {
            let g = complete(n);
            let sp = Nucleus34Space::precomputed(&g);
            let r = peel(&sp);
            // Every triangle of K_n is in n−3 4-cliques.
            assert!(r.kappa.iter().all(|&k| k == n - 3), "K{n}: {:?}", r.kappa);
        }
    }

    #[test]
    fn truss_peeling_matches_paper_figure3() {
        // Paper Figure 3a: K4 on {a,b,c,d} plus K4 on {c,d,e,f} sharing the
        // edge cd, plus pendant structure g,h. Truss numbers: edges inside
        // each K4 get 2; with the h vertex attached to e,f with one triangle
        // those edges get 1; pendant edges 0.
        // We reproduce the left graph: a=0,b=1,c=2,d=3,e=4,f=5,g=6,h=7.
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4 abcd
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5), // K4 cdef (via cd)
            (4, 6), // pendant g on e
            (4, 7),
            (5, 7), // h triangle with e,f
        ]);
        let sp = TrussSpace::precomputed(&g);
        let r = peel(&sp);
        let k_of = |u: u32, v: u32| r.kappa[g.edge_id(u, v).unwrap() as usize];
        // Edges of K4 abcd are each in 2 triangles within the K4.
        assert_eq!(k_of(0, 1), 2);
        assert_eq!(k_of(2, 3), 2);
        assert_eq!(k_of(4, 5), 2);
        // Pendant edge (4,6): no triangles.
        assert_eq!(k_of(4, 6), 0);
        // h's edges (4,7),(5,7): one triangle {4,5,7}.
        assert_eq!(k_of(4, 7), 1);
        assert_eq!(k_of(5, 7), 1);
    }

    #[test]
    fn generic_matches_specialized_spaces() {
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 2),
            (1, 3),
            (0, 4),
            (1, 4),
        ]);
        // (1,2)
        let gen12 = GenericSpace::new(&g, 1, 2);
        let core = CoreSpace::new(&g);
        assert_eq!(peel(&gen12).kappa, peel(&core).kappa);
        // (2,3): generic edge ids are lexicographic like CSR edge ids.
        let gen23 = GenericSpace::new(&g, 2, 3);
        let truss = TrussSpace::precomputed(&g);
        let a = peel(&gen23).kappa;
        let b = peel(&truss).kappa;
        // Generic r-cliques for r=2 enumerate in the same (u,v) lexicographic
        // order as CSR edge ids, so results align index-by-index.
        assert_eq!(a, b);
    }

    /// The flat engine is bit-identical to the walk on every space —
    /// κ, order, max κ, and the deterministic work counters.
    #[test]
    fn flat_engine_is_bit_identical_to_walk() {
        let g = hdsd_datasets::holme_kim(120, 4, 0.5, 3);
        let truss = TrussSpace::precomputed(&g);
        let nuc = Nucleus34Space::precomputed(&g);
        let gen13 = GenericSpace::new(&g, 1, 3);
        // group = binom(4,2) − 1 = 5: beyond every monomorphized arity, so
        // this hits the width-at-runtime fallback (`run::<0>`).
        let gen24 = GenericSpace::new(&g, 2, 4);
        let core = CoreSpace::new(&g);

        let mut engine = PeelEngine::new();
        for (walk, flat) in [
            (peel_walk(&truss), FlatContainers::build(&truss)),
            (peel_walk(&nuc), FlatContainers::build(&nuc)),
            (peel_walk(&gen13), FlatContainers::build(&gen13)),
            (peel_walk(&gen24), FlatContainers::build(&gen24)),
            (peel_walk(&core), FlatContainers::build(&core)),
        ] {
            // Both the one-shot form and the engine (scratch reused across
            // differently-sized spaces) must agree with the walk.
            for r in [peel_flat(&flat), engine.peel(&flat)] {
                assert_eq!(r.kappa, walk.kappa);
                assert_eq!(r.order, walk.order);
                assert_eq!(r.max_kappa, walk.max_kappa);
                assert_eq!(r.stats, walk.stats);
            }
        }
    }

    #[test]
    fn peel_dispatch_uses_the_resident_flat_rows() {
        let g = paper_core_graph();
        let truss = TrussSpace::precomputed(&g);
        let cached = CachedSpace::build(&truss);
        // CachedSpace advertises its rows; peel must take the flat path and
        // agree with every other engine.
        assert!(cached.as_flat().is_some());
        let via_cached = peel(&cached);
        let via_space = peel(&truss);
        let via_walk = peel_walk(&truss);
        assert_eq!(via_cached.kappa, via_walk.kappa);
        assert_eq!(via_space.kappa, via_walk.kappa);
        assert_eq!(via_cached.order, via_walk.order);
        assert_eq!(via_cached.stats, via_walk.stats);
    }

    #[test]
    fn stats_count_real_work() {
        let g = paper_core_graph();
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        // Every container incidence is visited exactly once: Σ d_S = 2|E|.
        assert_eq!(r.stats.containers_scanned, 2 * g.num_edges() as u64);
        assert!(r.stats.dead_containers > 0);
        assert!(r.stats.bucket_moves > 0);
        // Dead + decremented-or-at-floor partition the incidences.
        assert!(r.stats.dead_containers < r.stats.containers_scanned);
    }

    #[test]
    fn empty_space() {
        let g = graph_from_edges([]);
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        assert!(r.kappa.is_empty());
        assert_eq!(r.max_kappa, 0);
        assert_eq!(r.stats, PeelStats::default());
        let flat = FlatContainers::build(&sp);
        assert!(peel_flat(&flat).kappa.is_empty());
    }

    #[test]
    fn isolated_vertices_get_zero() {
        let g = hdsd_graph::GraphBuilder::new().with_num_vertices(5).edges([(0, 1)]).build();
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        assert_eq!(r.kappa, vec![1, 1, 0, 0, 0]);
        assert_eq!(peel_flat(&FlatContainers::build(&sp)).kappa, r.kappa);
    }

    #[test]
    fn sequential_cancel_overshoot_is_exactly_one_chunk() {
        // 3000 items, checks at i = 0, 1024, 2048: a token tripping on its
        // third check stops with exactly (3-1)·PEEL_CANCEL_CHUNK processed.
        let g = hdsd_datasets::holme_kim(3000, 4, 0.5, 7);
        let sp = CoreSpace::new(&g);
        let flat = FlatContainers::build(&sp);
        let err = PeelEngine::new()
            .peel_within(&flat, &CancelToken::tripping_after_checks(3))
            .unwrap_err();
        assert_eq!(err.processed, 2 * PEEL_CANCEL_CHUNK);
        assert_eq!(err.cancelled.stage, "peel drain");
        // An expired deadline trips on the very first check: zero processed,
        // and the wire message keeps the pinned shape.
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let err = PeelEngine::new()
            .peel_within(&flat, &CancelToken::with_deadline(Some(past)))
            .unwrap_err();
        assert_eq!(err.processed, 0);
        assert_eq!(String::from(err), "deadline exceeded (peel drain)");
        // A generous token changes nothing about the result.
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let ok = PeelEngine::new()
            .peel_within(&flat, &CancelToken::with_deadline(Some(far)))
            .expect("generous deadline");
        assert_eq!(ok.kappa, peel(&sp).kappa);
    }
}
