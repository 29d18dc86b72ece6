//! Property tests for the flat peeling engine: on random Holme–Kim
//! graphs, [`peel_flat`] (and the reusable [`PeelEngine`], and the
//! dispatching [`peel`]) must be **bit-identical** to the container-walk
//! baseline [`peel_walk`] — κ, processing order, max κ, and the
//! deterministic work counters — across every clique space, including the
//! dynamic-width generic space. Runs under the nightly slow-props budget
//! (`PROPTEST_CASES`).

use hdsd_nucleus::{
    peel, peel_flat, peel_walk, CliqueSpace, CoreSpace, FlatContainers, GenericSpace,
    Nucleus34Space, PeelEngine, TrussSpace,
};
use proptest::prelude::*;

fn arb_holme_kim() -> impl Strategy<Value = hdsd_graph::CsrGraph> {
    (20u32..80, 2u32..5, 0u32..=100, 0u64..1_000_000)
        .prop_map(|(n, m, p, seed)| hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed))
}

/// One space's full equivalence check; `engine` is shared across spaces to
/// exercise scratch reuse over differently-sized universes.
fn check_space<S: CliqueSpace>(space: &S, engine: &mut PeelEngine) {
    let walk = peel_walk(space);
    let flat = FlatContainers::build(space);
    let one_shot = peel_flat(&flat);
    let reused = engine.peel(&flat);
    let dispatched = peel(space);

    for (label, r) in [("peel_flat", &one_shot), ("PeelEngine", &reused), ("peel", &dispatched)] {
        assert_eq!(r.kappa, walk.kappa, "{}: {label} κ diverged", space.name());
        assert_eq!(r.order, walk.order, "{}: {label} order diverged", space.name());
        assert_eq!(r.max_kappa, walk.max_kappa, "{}: {label} max κ diverged", space.name());
    }
    // The sequential engines execute the identical visit sequence, so the
    // work counters must match exactly (the CI bench gate pins these).
    assert_eq!(one_shot.stats, walk.stats, "{}: work counters diverged", space.name());
    assert_eq!(reused.stats, walk.stats, "{}: engine counters diverged", space.name());

    // Invariants of the result itself.
    let ks: Vec<u32> = walk.order.iter().map(|&i| walk.kappa[i as usize]).collect();
    assert!(ks.windows(2).all(|w| w[0] <= w[1]), "{}: order not κ-sorted", space.name());
    assert_eq!(walk.max_kappa, walk.kappa.iter().copied().max().unwrap_or(0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn flat_peel_is_bit_identical_on_all_spaces(g in arb_holme_kim()) {
        let mut engine = PeelEngine::new();
        check_space(&CoreSpace::new(&g), &mut engine);
        check_space(&TrussSpace::precomputed(&g), &mut engine);
        check_space(&Nucleus34Space::precomputed(&g), &mut engine);
        // The generic enumerator at group = binom(3,1) − 1 = 2 (same width
        // as truss, different id/order structure)...
        check_space(&GenericSpace::new(&g, 1, 3), &mut engine);
        // ...and at group = binom(4,2) − 1 = 5, which exceeds every
        // monomorphized arity and exercises the width-at-runtime fallback
        // (run::<0>).
        check_space(&GenericSpace::new(&g, 2, 4), &mut engine);
    }

    #[test]
    fn flat_peel_survives_edge_deletion_noise(
        g in arb_holme_kim(),
        step in 3usize..13,
    ) {
        // Thin the graph so isolated edges/vertices and empty container
        // rows appear, then re-check the truss space (the two-others fast
        // path) end to end.
        let keep: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % step != 0)
            .map(|(_, &e)| e)
            .collect();
        let thinned = hdsd_graph::GraphBuilder::new()
            .with_num_vertices(g.num_vertices())
            .edges(keep)
            .build();
        let mut engine = PeelEngine::new();
        check_space(&TrussSpace::on_the_fly(&thinned), &mut engine);
        check_space(&CoreSpace::new(&thinned), &mut engine);
    }
}

#[test]
fn empty_and_containerless_spaces() {
    let empty = hdsd_graph::graph_from_edges([]);
    let sp = CoreSpace::new(&empty);
    let flat = FlatContainers::build(&sp);
    let r = peel_flat(&flat);
    assert!(r.kappa.is_empty());
    assert_eq!(r.max_kappa, 0);

    // A triangle-free graph: every truss container row is empty.
    let path = hdsd_graph::graph_from_edges([(0, 1), (1, 2), (2, 3)]);
    let truss = TrussSpace::precomputed(&path);
    let flat = FlatContainers::build(&truss);
    let r = peel_flat(&flat);
    assert_eq!(r.kappa, vec![0, 0, 0]);
    assert_eq!(r.kappa, peel_walk(&truss).kappa);
}

#[test]
fn isolated_vertices_and_reuse_across_sizes() {
    let g1 = hdsd_graph::GraphBuilder::new().with_num_vertices(6).edges([(0, 1), (1, 2)]).build();
    let g2 = hdsd_datasets::holme_kim(60, 3, 0.4, 5);
    let mut engine = PeelEngine::new();
    // Big space first, then a smaller one: scratch shrinks correctly.
    let big = FlatContainers::build(&CoreSpace::new(&g2));
    let small = FlatContainers::build(&CoreSpace::new(&g1));
    assert_eq!(engine.peel(&big).kappa, peel_walk(&CoreSpace::new(&g2)).kappa);
    let r = engine.peel(&small);
    assert_eq!(r.kappa, vec![1, 1, 1, 0, 0, 0]);
    // And back up again.
    assert_eq!(engine.peel(&big).kappa, peel_walk(&CoreSpace::new(&g2)).kappa);
}
