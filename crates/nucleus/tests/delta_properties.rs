//! Property tests for the incremental update path: on random Holme–Kim
//! graphs with random mixed insert/remove batches, the delta-maintained
//! structures must be **structurally identical** to from-scratch builds at
//! every layer (CSR, triangle list, container caches), and the
//! spliced-then-re-peeled κ must stay bit-identical to a cold peel for
//! all three spaces. Case counts are proptest-driven, so the nightly
//! `slow-props` job's `PROPTEST_CASES` override deepens this suite too.

use std::collections::HashSet;

use hdsd_graph::{
    apply_edge_batch, triangle_delta, CsrGraph, GraphBuilder, TriangleList, VertexId, NO_ID,
};
use hdsd_nucleus::{
    core_space_delta, nucleus34_space_delta, peel, truss_space_delta, CachedSpace, CliqueSpace,
    CoreKind, CoreSpace, Incremental, Nucleus34Kind, Nucleus34Space, SpaceKind, TrussKind,
    TrussSpace,
};

use proptest::prelude::*;
use proptest::splitmix64 as splitmix;

type Batch = Vec<(VertexId, VertexId)>;

/// A random mixed batch: inserts may duplicate, touch new vertices, repeat
/// existing edges, or contain self-loops; removes mix present and absent
/// edges. All the no-op noise the public API must tolerate.
fn random_batch(g: &CsrGraph, rng: &mut u64) -> (Batch, Batch) {
    let n = g.num_vertices() as u64;
    let m = g.num_edges() as u64;
    let mut ins = Vec::new();
    for _ in 0..(splitmix(rng) % 6 + 1) {
        let u = (splitmix(rng) % (n + 4)) as u32;
        let v = (splitmix(rng) % (n + 4)) as u32;
        ins.push((u, v));
        if splitmix(rng).is_multiple_of(4) {
            ins.push((v, u)); // duplicate, reversed
        }
    }
    if splitmix(rng).is_multiple_of(3) {
        ins.push((7, 7)); // self-loop
        if m > 0 {
            ins.push(g.edges()[(splitmix(rng) % m) as usize]); // already present
        }
    }
    let mut rm = Vec::new();
    if m > 0 {
        for _ in 0..(splitmix(rng) % 5 + 1) {
            rm.push(g.edges()[(splitmix(rng) % m) as usize]);
        }
    }
    rm.push(((splitmix(rng) % (n + 8)) as u32, (splitmix(rng) % (n + 8)) as u32)); // likely absent
    (ins, rm)
}

/// The from-scratch reference for a batch: the surviving edges plus the
/// inserts through `GraphBuilder` (vertex set grown to cover every insert),
/// and the number of edges actually inserted.
fn rebuild_from_scratch(
    g: &CsrGraph,
    ins: &[(VertexId, VertexId)],
    rm: &[(VertexId, VertexId)],
) -> (CsrGraph, u32) {
    let drop: HashSet<(VertexId, VertexId)> =
        rm.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    let n = ins.iter().map(|&(u, v)| u.max(v) as usize + 1).fold(g.num_vertices(), usize::max);
    let mut b = GraphBuilder::with_capacity(g.num_edges() + ins.len()).with_num_vertices(n);
    let mut kept = 0usize;
    for &(u, v) in g.edges().iter().filter(|e| !drop.contains(e)) {
        b.add_edge(u, v);
        kept += 1;
    }
    for &(u, v) in ins {
        b.add_edge(u, v);
    }
    let rebuilt = b.build();
    let inserted = (rebuilt.num_edges() - kept) as u32;
    (rebuilt, inserted)
}

fn assert_same_graph(a: &CsrGraph, b: &CsrGraph, ctx: &str) {
    assert_eq!(a.num_vertices(), b.num_vertices(), "{ctx}: vertex count");
    assert_eq!(a.edges(), b.edges(), "{ctx}: edge list");
    for v in a.vertices() {
        assert_eq!(a.neighbors(v), b.neighbors(v), "{ctx}: neighbors of {v}");
        assert_eq!(a.neighbor_edge_ids(v), b.neighbor_edge_ids(v), "{ctx}: edge ids of {v}");
    }
}

fn assert_same_triangles(a: &TriangleList, b: &TriangleList, m: usize, ctx: &str) {
    assert_eq!(a.tri_verts, b.tri_verts, "{ctx}: triangle vertices");
    assert_eq!(a.tri_edges, b.tri_edges, "{ctx}: triangle edges");
    for e in 0..m as u32 {
        assert_eq!(a.triangles_of_edge(e), b.triangles_of_edge(e), "{ctx}: incidence of {e}");
        assert_eq!(a.thirds_of_edge(e), b.thirds_of_edge(e), "{ctx}: thirds of {e}");
    }
}

fn sorted_containers(space: &CachedSpace, i: usize) -> Vec<Vec<usize>> {
    let mut v: Vec<Vec<usize>> = Vec::new();
    space.for_each_container(i, |o| {
        let mut c = o.to_vec();
        c.sort_unstable();
        v.push(c);
    });
    v.sort();
    v
}

fn assert_same_cached(spliced: &CachedSpace, fresh: &CachedSpace, ctx: &str) {
    assert_eq!(spliced.num_cliques(), fresh.num_cliques(), "{ctx}: clique count");
    for i in 0..fresh.num_cliques() {
        assert_eq!(spliced.degree(i), fresh.degree(i), "{ctx}: degree of {i}");
        assert_eq!(spliced.clique_vertices(i), fresh.clique_vertices(i), "{ctx}: vertices of {i}");
        assert_eq!(sorted_containers(spliced, i), sorted_containers(fresh, i), "{ctx}: row {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn delta_structures_match_from_scratch_builds(
        n in 120u32..360,
        m in 4u32..7,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        let base = hdsd_datasets::holme_kim(n, m, 0.5, seed);
        let g = hdsd_datasets::thin_edges(&base, 0.75, seed);
        let tl = TriangleList::build(&g);
        let old_truss = CachedSpace::build(&TrussSpace::with_triangles(&g, &tl));
        let old_n34 = CachedSpace::build(&Nucleus34Space::with_triangles(&g, &tl));

        let mut rng = 0xABCDEF ^ batch_seed;
        let (ins, rm) = random_batch(&g, &mut rng);
        let ctx = format!("n {n} m {m} seed {seed} batch {batch_seed}");

        // Layer 1: the spliced CSR is bit-identical to a rebuild.
        let (g2, ed) = apply_edge_batch(&g, &ins, &rm);
        let (g_ref, inserted_ref) = rebuild_from_scratch(&g, &ins, &rm);
        assert_same_graph(&g2, &g_ref, &ctx);
        assert_eq!(ed.inserted(), inserted_ref, "{ctx}: inserted count");
        for (old, &new) in ed.old_to_new.iter().enumerate() {
            if new != NO_ID {
                assert_eq!(
                    g.edge_endpoints(old as u32),
                    g2.edge_endpoints(new),
                    "{ctx}: edge remap {old}"
                );
            }
        }

        // Layer 2: the maintained triangle list matches a fresh build.
        let td = triangle_delta(&tl, &g2, &ed);
        assert_same_triangles(&td.list, &TriangleList::build(&g2), g2.num_edges(), &ctx);

        // Layer 3: spliced container caches match cold builds.
        let truss = truss_space_delta(&old_truss, &tl, &g2, &ed, &td);
        assert_same_cached(
            &truss.cached,
            &CachedSpace::build(&TrussSpace::on_the_fly(&g2)),
            &format!("{ctx} truss"),
        );
        let n34 = nucleus34_space_delta(&old_n34, &g, &tl, &g2, &ed, &td);
        assert_same_cached(
            &n34.cached,
            &CachedSpace::build(&Nucleus34Space::on_the_fly(&g2)),
            &format!("{ctx} nucleus34"),
        );
        let core = core_space_delta(&g2, g.num_vertices());
        assert_same_cached(
            &core.cached,
            &CachedSpace::build(&CoreSpace::new(&g2)),
            &format!("{ctx} core"),
        );
    }
}

fn incremental_stays_exact<K: SpaceKind>(n: u32, seed: u64, batch_seed: u64) {
    let base = hdsd_datasets::holme_kim(n, 4, 0.55, seed ^ 0x55);
    let g = hdsd_datasets::thin_edges(&base, 0.8, seed);
    let mut inc: Incremental<K> = Incremental::new(g);
    let mut rng = 0xFEED ^ batch_seed;
    for round in 0..4 {
        let (ins, rm) = random_batch(inc.graph(), &mut rng);
        inc.update_edges(&ins, &rm);
        let exact = peel(&K::build(inc.graph())).kappa;
        assert_eq!(
            inc.kappa(),
            exact.as_slice(),
            "{} diverged from cold peel at n {n} seed {seed} batch {batch_seed} round {round}",
            K::NAME
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn incremental_refresh_is_bit_identical_to_peel(
        n in 100u32..200,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        incremental_stays_exact::<CoreKind>(n, seed, batch_seed);
        incremental_stays_exact::<TrussKind>(n, seed, batch_seed);
        incremental_stays_exact::<Nucleus34Kind>(n, seed, batch_seed);
    }
}
