//! Property tests for the And drain's primitives: the dedup worklist ring
//! and quiescence-counting termination. Each property hammers the primitive
//! from several real threads with randomized sizes, worker counts, and
//! cascade shapes (including the degenerate shapes the unit tests pin:
//! empty input, a single item, more workers than items) and asserts the
//! exactly-once / no-loss / termination invariants hold under whatever
//! interleaving the scheduler produced. Runs at `PROPTEST_CASES=500` in
//! the nightly slow-props job.
//!
//! Bodies live in plain functions (the `proptest!` block only forwards)
//! so the macro input stays within its recursion budget.

use hdsd_parallel::{ConcurrentWorklist, QuiescenceCounter};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// The dedup worklist never yields an id twice between unmarks, never
/// loses one, and re-admits ids after unmark — under racing re-pushers.
fn check_worklist_conservation(universe: usize, workers: usize, rounds: usize) {
    let wl = ConcurrentWorklist::new(universe);
    let pushed = AtomicUsize::new(0);
    let popped = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let wl = &wl;
            let pushed = &pushed;
            let popped = &popped;
            s.spawn(move || {
                for _ in 0..rounds {
                    for id in 0..universe as u32 {
                        if wl.push(id) {
                            pushed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Drain whatever is visible right now; unmark so later
                    // rounds (ours or a peer's) can re-admit.
                    while let Some(id) = wl.pop() {
                        wl.unmark(id);
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    // Sequential epilogue: drain whatever the last unmarks re-admitted.
    while let Some(id) = wl.pop() {
        wl.unmark(id);
        popped.fetch_add(1, Ordering::Relaxed);
    }
    assert_eq!(popped.load(Ordering::Relaxed), pushed.load(Ordering::Relaxed));
    assert!(wl.pop().is_none());
}

/// Quiescence counting terminates exactly: workers that spawn follow-on
/// work (a bounded cascade) all exit, every enqueued item is processed,
/// and nothing is stranded — even with more workers than items, including
/// zero items.
fn check_quiescence_cascade(seed_items: u32, workers: usize, fanout: u32, depth: u32) {
    // Item encoding: id + depth·LEVEL, so each depth level owns a disjoint
    // id band (dedup collisions only happen within a level, which is
    // exactly the rollback path under test).
    const LEVEL: u32 = 1024;
    let wl = ConcurrentWorklist::new((LEVEL * 4) as usize);
    let quiesce = QuiescenceCounter::new();
    let next_id = AtomicU32::new(seed_items);
    let enqueued = AtomicUsize::new(0);
    for id in 0..seed_items {
        quiesce.issue(1);
        assert!(wl.push(id + depth * LEVEL));
        enqueued.fetch_add(1, Ordering::Relaxed);
    }
    let processed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let wl = &wl;
            let quiesce = &quiesce;
            let next_id = &next_id;
            let processed = &processed;
            let enqueued = &enqueued;
            s.spawn(move || loop {
                let Some(item) = wl.pop() else {
                    if quiesce.quiescent() {
                        break;
                    }
                    std::hint::spin_loop();
                    continue;
                };
                wl.unmark(item);
                processed.fetch_add(1, Ordering::Relaxed);
                let d = item / LEVEL;
                if d > 0 {
                    for _ in 0..fanout {
                        let id = next_id.fetch_add(1, Ordering::Relaxed) % LEVEL;
                        quiesce.issue(1);
                        if wl.push(id + (d - 1) * LEVEL) {
                            enqueued.fetch_add(1, Ordering::Relaxed);
                        } else {
                            quiesce.retire(1); // dedup rejected: roll back
                        }
                    }
                }
                quiesce.retire(1);
            });
        }
    });
    assert!(quiesce.quiescent(), "all issued work must be retired at join");
    assert_eq!(processed.load(Ordering::Relaxed), enqueued.load(Ordering::Relaxed));
    assert!(wl.pop().is_none(), "no work may be stranded in the ring");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn worklist_pops_equal_successful_pushes(
        universe in 1usize..200,
        workers in 1usize..6,
        rounds in 1usize..4,
    ) {
        check_worklist_conservation(universe, workers, rounds);
    }

    #[test]
    fn quiescence_terminates_cascading_drains(
        seed_items in 0u32..40,
        workers in 1usize..9,
        fanout in 0u32..3,
        depth in 0u32..4,
    ) {
        check_quiescence_cascade(seed_items, workers, fanout, depth);
    }
}
