//! The And continuous drain is exact at every thread count: its workers
//! pop from a lock-free dedup worklist and run gate-free to quiescence, so
//! the interleaving is free asynchrony, yet the final τ must equal the
//! sequential peel's κ for every thread count and processing order — the
//! companion paper's claim (arXiv:1704.00386) that stale reads delay, never
//! corrupt, the local iteration.

use hdsd_nucleus::{and, peel_flat, CoreSpace, FlatContainers, LocalConfig, Order, TrussSpace};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn and_continuous_drain_converges_exactly_at_every_thread_count() {
    // The And worklist has no seeded-schedule hook — its drain is *free*
    // asynchrony — but exactness must hold at every thread count and
    // order, certified by the final verification round.
    let g = hdsd_datasets::holme_kim(300, 4, 0.5, 21);
    let core = CoreSpace::new(&g);
    let truss = TrussSpace::precomputed(&g);
    let exact_core = peel_flat(&FlatContainers::build(&core)).kappa;
    let exact_truss = peel_flat(&FlatContainers::build(&truss)).kappa;

    for threads in THREAD_COUNTS {
        for order in [Order::Natural, Order::Reverse, Order::Random(5)] {
            let cfg = LocalConfig::with_threads(threads);
            let rc = and(&core, &cfg, &order);
            assert_eq!(rc.tau, exact_core, "core threads={threads} order={order:?}");
            assert!(rc.converged);
            let rt = and(&truss, &cfg, &order);
            assert_eq!(rt.tau, exact_truss, "truss threads={threads} order={order:?}");
            assert!(rt.converged);
        }
    }
}
