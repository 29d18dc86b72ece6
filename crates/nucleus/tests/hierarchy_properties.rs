//! The forest-equivalence property harness for [`build_hierarchy`]: on
//! random Holme–Kim graphs, for **all three** clique spaces (core, truss,
//! (3,4)), the counting-sorted union–find build must be structurally
//! identical — canonical-form equal, see
//! `hdsd_nucleus::hierarchy::canonical` — to a naive reference that
//! re-derives every nucleus from its definition.
//!
//! The reference shares no code with the build. For each distinct
//! s-clique weight `k` it unions, from scratch, every s-clique of weight
//! ≥ k (`w(S) = min κ` over its members); each resulting component that
//! contains an s-clique of weight exactly `k` is the k-nucleus node, its
//! own cliques are its members with κ = k, its size is its member count,
//! and its parent is the node of the largest smaller threshold whose
//! component contains it.
//!
//! Each case checks the build over the resident [`CachedSpace`] snapshot
//! and over the borrowed source space (`CoreSpace`, `TrussSpace::on_the_fly`,
//! `Nucleus34Space::on_the_fly`), then drives chained mixed batches
//! through [`Incremental`] and checks the post-batch build every round.
//!
//! Case counts are tuned for the PR gate; the nightly `slow-props` CI job
//! reruns this suite with `PROPTEST_CASES` raised (the vendored proptest
//! honors the same env var as the real crate).

use std::collections::{BTreeMap, BTreeSet};

use hdsd_graph::{CsrGraph, VertexId};
use hdsd_nucleus::{
    assert_forest_eq, build_hierarchy, peel, CachedSpace, CliqueSpace, CoreKind, Hierarchy,
    HierarchyNode, Incremental, Nucleus34Kind, SpaceKind, TrussKind,
};
use proptest::prelude::*;
use proptest::splitmix64 as splitmix;

type Batch = Vec<(VertexId, VertexId)>;

/// The forest by definition: one from-scratch union–find per distinct
/// s-clique weight.
fn naive_forest<S: CliqueSpace>(space: &S, kappa: &[u32]) -> Hierarchy {
    let n = space.num_cliques();
    let mut scliques: BTreeSet<Vec<usize>> = BTreeSet::new();
    for i in 0..n {
        space.for_each_container(i, |others| {
            let mut sc: Vec<usize> = others.to_vec();
            sc.push(i);
            sc.sort_unstable();
            scliques.insert(sc);
        });
    }
    let weighted: Vec<(u32, Vec<usize>)> =
        scliques.into_iter().map(|sc| (sc.iter().map(|&m| kappa[m]).min().unwrap(), sc)).collect();
    let thresholds: BTreeSet<u32> = weighted.iter().map(|(w, _)| *w).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    let mut nodes: Vec<HierarchyNode> = Vec::new();
    // Per threshold: r-clique → its node at that threshold.
    let mut node_at: BTreeMap<u32, BTreeMap<usize, u32>> = BTreeMap::new();
    for &k in &thresholds {
        let mut parent: Vec<usize> = (0..n).collect();
        let mut in_play = vec![false; n];
        for (w, sc) in &weighted {
            if *w >= k {
                for &m in sc {
                    in_play[m] = true;
                    let (a, b) = (find(&mut parent, sc[0]), find(&mut parent, m));
                    parent[a] = b;
                }
            }
        }
        let mut has_node: BTreeSet<usize> = BTreeSet::new();
        for (w, sc) in &weighted {
            if *w == k {
                has_node.insert(find(&mut parent, sc[0]));
            }
        }
        let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for m in (0..n).filter(|&m| in_play[m]) {
            let root = find(&mut parent, m);
            if has_node.contains(&root) {
                by_root.entry(root).or_default().push(m);
            }
        }
        let level = node_at.entry(k).or_default();
        for members in by_root.into_values() {
            let id = nodes.len() as u32;
            nodes.push(HierarchyNode {
                k,
                parent: None,
                children: Vec::new(),
                own_cliques: members
                    .iter()
                    .filter(|&&m| kappa[m] == k)
                    .map(|&m| m as u32)
                    .collect(),
                size: members.len(),
            });
            for m in members {
                level.insert(m, id);
            }
        }
    }
    // Parent: the node of the largest smaller threshold containing a member.
    for id in 0..nodes.len() {
        let k = nodes[id].k;
        let member = node_at[&k].iter().find(|&(_, &v)| v == id as u32).map(|(&m, _)| m).unwrap();
        let parent = node_at.range(..k).rev().find_map(|(_, level)| level.get(&member).copied());
        if let Some(p) = parent {
            nodes[id].parent = Some(p);
            nodes[p as usize].children.push(id as u32);
        }
    }
    let roots = (0..nodes.len() as u32).filter(|&i| nodes[i as usize].parent.is_none()).collect();
    Hierarchy { nodes, roots, rs: (space.r(), space.s()) }
}

/// Checks the build over `space` and over its snapshot against the
/// reference.
fn check_space<S: CliqueSpace>(space: &S, what: &str) {
    let kappa = peel(space).kappa;
    let reference = naive_forest(space, &kappa);
    let fast = build_hierarchy(space, &kappa);
    if fast.canonical() != reference.canonical() {
        eprintln!("{what}: build diverged from the naive reference");
    }
    assert_forest_eq(&fast, &reference);
    assert_forest_eq(&build_hierarchy(&CachedSpace::build(space), &kappa), &reference);
}

/// A random mixed batch with the same no-op noise the public API must
/// tolerate: duplicate/reversed inserts, self-loops, already-present
/// edges, absent removals, and endpoints beyond the current vertex set.
fn random_batch(g: &CsrGraph, rng: &mut u64) -> (Batch, Batch) {
    let n = g.num_vertices() as u64;
    let m = g.num_edges() as u64;
    let mut ins = Vec::new();
    for _ in 0..(splitmix(rng) % 5 + 1) {
        let u = (splitmix(rng) % (n + 3)) as u32;
        let v = (splitmix(rng) % (n + 3)) as u32;
        ins.push((u, v));
        if splitmix(rng).is_multiple_of(4) {
            ins.push((v, u)); // duplicate, reversed
        }
    }
    if splitmix(rng).is_multiple_of(3) {
        ins.push((5, 5)); // self-loop
        if m > 0 {
            ins.push(g.edges()[(splitmix(rng) % m) as usize]); // already present
        }
    }
    let mut rm = Vec::new();
    if m > 0 {
        for _ in 0..(splitmix(rng) % 4 + 1) {
            rm.push(g.edges()[(splitmix(rng) % m) as usize]);
        }
    }
    rm.push(((splitmix(rng) % (n + 6)) as u32, (splitmix(rng) % (n + 6)) as u32)); // likely absent
    (ins, rm)
}

/// The build over the post-batch snapshot of `inc` equals the reference.
fn check_incremental<K: SpaceKind>(inc: &Incremental<K>, round: usize, batch: &(Batch, Batch)) {
    let fast = build_hierarchy(inc.cached(), inc.kappa());
    let reference = naive_forest(inc.cached(), inc.kappa());
    if fast.canonical() != reference.canonical() {
        eprintln!("{} build diverged at round {round}: batch {batch:?}", K::NAME);
    }
    assert_forest_eq(&fast, &reference);
}

/// Checks the cold spaces of `g`, then drives `rounds` chained batches
/// through [`Incremental`], checking the build after each.
fn check_kind<K: SpaceKind>(g: CsrGraph, rounds: usize, rng: &mut u64) {
    check_space(&K::build(&g), K::NAME);
    let mut inc: Incremental<K> = Incremental::new(g);
    check_incremental(&inc, 0, &(Vec::new(), Vec::new()));
    for round in 1..=rounds {
        let batch = random_batch(inc.graph(), rng);
        inc.update_edges(&batch.0, &batch.1);
        check_incremental(&inc, round, &batch);
    }
    check_space(&K::build(inc.graph()), K::NAME);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn core_build_equals_naive_reference(
        n in 40u32..140,
        m in 2u32..5,
        p in 0u32..=100,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        let g = hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed);
        let mut rng = batch_seed ^ 0xC04E;
        check_kind::<CoreKind>(g, 3, &mut rng);
    }

    #[test]
    fn truss_build_equals_naive_reference(
        n in 40u32..120,
        m in 2u32..5,
        p in 0u32..=100,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        let g = hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed);
        let mut rng = batch_seed ^ 0x7255;
        check_kind::<TrussKind>(g, 3, &mut rng);
    }

    #[test]
    fn nucleus34_build_equals_naive_reference(
        n in 30u32..80,
        m in 3u32..6,
        p in 20u32..=100,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        let g = hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed);
        let mut rng = batch_seed ^ 0x3434;
        check_kind::<Nucleus34Kind>(g, 2, &mut rng);
    }
}

/// Many far-apart communities: a forest of many small trees.
#[test]
fn planted_communities_equal_the_reference() {
    let g = hdsd_datasets::planted_partition(&[20, 20, 20, 20, 20], 0.5, 0.01, 77);
    check_space(&<CoreKind as SpaceKind>::build(&g), "core");
    check_space(&<TrussKind as SpaceKind>::build(&g), "truss");
    check_space(&<Nucleus34Kind as SpaceKind>::build(&g), "nucleus34");
}

/// Deletion-heavy batches split nuclei and remove nodes.
#[test]
fn deletion_heavy_batches_stay_equivalent() {
    let base = hdsd_datasets::holme_kim(150, 5, 0.6, 9);
    for kind_rounds in 0..3u64 {
        let mut rng = 0xDE1E ^ kind_rounds;
        let mut inc: Incremental<TrussKind> = Incremental::new(base.clone());
        for round in 0..3 {
            let victims: Vec<(u32, u32)> = {
                let edges = inc.graph().edges();
                (0..12).map(|_| edges[(splitmix(&mut rng) % edges.len() as u64) as usize]).collect()
            };
            inc.update_edges(&[], &victims);
            check_incremental(&inc, round, &(Vec::new(), victims));
        }
    }
}

/// Batches that wipe the graph entirely (and then regrow it) hit the
/// degenerate ends: an empty forest, then a full one again.
#[test]
fn wipe_and_regrow_round_trips() {
    let g = hdsd_datasets::holme_kim(40, 3, 0.5, 4);
    let all_edges: Vec<(u32, u32)> = g.edges().to_vec();
    let mut inc: Incremental<CoreKind> = Incremental::new(g);
    let full = build_hierarchy(inc.cached(), inc.kappa());

    inc.update_edges(&[], &all_edges);
    let wiped = build_hierarchy(inc.cached(), inc.kappa());
    assert!(wiped.is_empty(), "a wiped graph has an empty forest");
    check_incremental(&inc, 1, &(Vec::new(), all_edges.clone()));

    inc.update_edges(&all_edges, &[]);
    check_incremental(&inc, 2, &(all_edges, Vec::new()));
    assert_forest_eq(&build_hierarchy(inc.cached(), inc.kappa()), &full);
}

/// A batch can create or destroy an s-clique without changing any κ: a
/// bridge between two triangles merges their 2-cores into one nucleus,
/// and removing it splits them again, while every core number stays 2.
#[test]
fn kappa_preserving_bridge_batches_reshape_the_forest() {
    let g = hdsd_graph::graph_from_edges([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]);
    let mut inc: Incremental<CoreKind> = Incremental::new(g);
    let mut forest = build_hierarchy(inc.cached(), inc.kappa());
    for (round, batch) in [(vec![(0, 3)], vec![]), (vec![], vec![(0, 3)])].into_iter().enumerate() {
        let out = inc.update_edges(&batch.0, &batch.1);
        assert_eq!(out.old_kappa, inc.kappa(), "the bridge batch must leave every κ unchanged");
        check_incremental(&inc, round, &batch);
        let rebuilt = build_hierarchy(inc.cached(), inc.kappa());
        assert!(
            rebuilt.canonical() != forest.canonical(),
            "the bridge batch must reshape the forest"
        );
        forest = rebuilt;
    }
}
