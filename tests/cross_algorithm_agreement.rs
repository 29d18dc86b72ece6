//! Cross-crate integration: every algorithm (peeling, Snd
//! sequential/parallel, And in several orders with and without
//! notification) must produce identical κ indices on arbitrary graphs, for
//! every decomposition space — including the explicit-hypergraph generic
//! space as an independent oracle.

use hdsd::prelude::*;
use proptest::prelude::*;

/// Arbitrary small graph as an edge list over `n ≤ 24` vertices.
fn arb_graph() -> impl Strategy<Value = hdsd::graph::CsrGraph> {
    proptest::collection::vec((0u32..24, 0u32..24), 0..120)
        .prop_map(|edges| hdsd::graph::GraphBuilder::new().edges(edges).build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn core_all_algorithms_agree(g in arb_graph()) {
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        prop_assert_eq!(&snd(&sp, &LocalConfig::default()).tau, &exact);
        prop_assert_eq!(&and(&sp, &LocalConfig::default(), &Order::Natural).tau, &exact);
        prop_assert_eq!(&and(&sp, &LocalConfig::default(), &Order::Reverse).tau, &exact);
        prop_assert_eq!(&and(&sp, &LocalConfig::default(), &Order::Random(1)).tau, &exact);
        prop_assert_eq!(&and_without_notification(&sp, &LocalConfig::default(), &Order::Natural).tau, &exact);
        prop_assert_eq!(&snd(&sp, &LocalConfig::with_threads(3)).tau, &exact);
        prop_assert_eq!(&and(&sp, &LocalConfig::with_threads(3), &Order::Natural).tau, &exact);
    }

    #[test]
    fn truss_all_algorithms_agree(g in arb_graph()) {
        let pre = TrussSpace::precomputed(&g);
        let fly = TrussSpace::on_the_fly(&g);
        let exact = peel(&pre).kappa;
        prop_assert_eq!(&peel(&fly).kappa, &exact);
        prop_assert_eq!(&snd(&pre, &LocalConfig::default()).tau, &exact);
        prop_assert_eq!(&snd(&fly, &LocalConfig::default()).tau, &exact);
        prop_assert_eq!(&and(&pre, &LocalConfig::default(), &Order::IncreasingDegree).tau, &exact);
        prop_assert_eq!(&and(&fly, &LocalConfig::with_threads(2), &Order::Natural).tau, &exact);
    }

    #[test]
    fn nucleus34_all_algorithms_agree(g in arb_graph()) {
        let pre = Nucleus34Space::precomputed(&g);
        let fly = Nucleus34Space::on_the_fly(&g);
        let exact = peel(&pre).kappa;
        prop_assert_eq!(&peel(&fly).kappa, &exact);
        prop_assert_eq!(&snd(&pre, &LocalConfig::default()).tau, &exact);
        prop_assert_eq!(&and(&fly, &LocalConfig::default(), &Order::Natural).tau, &exact);
    }

    #[test]
    fn generic_space_is_consistent_oracle(g in arb_graph()) {
        // (1,2) generic == core space.
        let core = CoreSpace::new(&g);
        let gen12 = GenericSpace::new(&g, 1, 2);
        prop_assert_eq!(&peel(&gen12).kappa, &peel(&core).kappa);

        // (2,3) generic == truss space (ids align lexicographically).
        let truss = TrussSpace::precomputed(&g);
        let gen23 = GenericSpace::new(&g, 2, 3);
        prop_assert_eq!(&peel(&gen23).kappa, &peel(&truss).kappa);

        // Exotic (1,3): vertices by triangle participation — snd == peel.
        let gen13 = GenericSpace::new(&g, 1, 3);
        prop_assert_eq!(&snd(&gen13, &LocalConfig::default()).tau, &peel(&gen13).kappa);

        // Exotic (2,4): edges by K4 participation — and == peel.
        let gen24 = GenericSpace::new(&g, 2, 4);
        prop_assert_eq!(
            &and(&gen24, &LocalConfig::default(), &Order::Natural).tau,
            &peel(&gen24).kappa
        );
    }

    #[test]
    fn generic_34_matches_specialized_34(g in arb_graph()) {
        // Triangle id orders differ between the TriangleList (orientation
        // order) and GenericSpace (lexicographic), so compare multisets of
        // (sorted triangle vertices, κ).
        let spec = Nucleus34Space::precomputed(&g);
        let gen = GenericSpace::new(&g, 3, 4);
        let k_spec = peel(&spec).kappa;
        let k_gen = peel(&gen).kappa;
        let mut a: Vec<([u32; 3], u32)> = spec
            .triangles()
            .tri_verts
            .iter()
            .zip(&k_spec)
            .map(|(vs, &k)| (*vs, k))
            .collect();
        let mut b: Vec<([u32; 3], u32)> = (0..gen.num_r_cliques())
            .map(|i| {
                let vs = gen.r_clique_vertices(i);
                ([vs[0], vs[1], vs[2]], k_gen[i])
            })
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

#[test]
fn large_scale_agreement_on_registry_dataset() {
    // One heavier end-to-end check on a registry stand-in.
    let g = hdsd::datasets::Dataset::Sse.generate(0.2);
    let core = CoreSpace::new(&g);
    let exact = peel(&core).kappa;
    assert_eq!(snd(&core, &LocalConfig::with_threads(4)).tau, exact);
    assert_eq!(and(&core, &LocalConfig::default(), &Order::Natural).tau, exact);

    let truss = TrussSpace::precomputed(&g);
    let exact_t = peel(&truss).kappa;
    assert_eq!(snd(&truss, &LocalConfig::with_threads(2)).tau, exact_t);
}
