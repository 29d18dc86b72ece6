//! Chunked parallel-for with static and dynamic scheduling.
//!
//! `parallel_for_chunks(n, cfg, f)` partitions `0..n` into chunks and runs
//! `f(range)` on worker threads. With [`Policy::Dynamic`] chunks are claimed
//! from a shared atomic counter (OpenMP `schedule(dynamic)`); with
//! [`Policy::Static`] each worker receives one contiguous stripe up front
//! (OpenMP `schedule(static)`), which reproduces the load-imbalance
//! pathology the paper describes for the notification mechanism.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use crate::{AtomicBitset, ParallelConfig};

/// Scheduling policy for [`parallel_for_chunks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Chunks are claimed dynamically from a shared counter.
    Dynamic,
    /// The index space is split into `threads` contiguous stripes.
    Static,
}

/// Per-run scheduler telemetry, used by the scheduling ablation benches to
/// visualize load imbalance and to count useful vs wasted sweep work.
///
/// `items_processed` / `items_skipped` are filled in by the *callers* of the
/// scheduling primitives (the decomposition sweeps), which are the only
/// layer that knows whether an index was real work or an idle flag-check:
/// under frontier scheduling `items_skipped` stays 0 by construction, while
/// the full-scan baseline accumulates one skip per idle r-clique visited.
#[derive(Clone, Debug, Default)]
pub struct SchedulerStats {
    /// Number of chunks each worker processed.
    pub chunks_per_worker: Vec<usize>,
    /// Work items actually recomputed.
    pub items_processed: u64,
    /// Work items visited but skipped (idle under the notification flags).
    pub items_skipped: u64,
}

impl SchedulerStats {
    /// Stats with only chunk telemetry (item counters zero).
    pub fn from_chunks(chunks_per_worker: Vec<usize>) -> Self {
        SchedulerStats { chunks_per_worker, ..Default::default() }
    }

    /// Max/min chunk-count imbalance ratio (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self.chunks_per_worker.iter().copied().max().unwrap_or(0);
        let min = self.chunks_per_worker.iter().copied().min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }

    /// Folds another run's telemetry into this one (chunk counts add
    /// index-wise; item counters add).
    pub fn merge(&mut self, other: &SchedulerStats) {
        if self.chunks_per_worker.len() < other.chunks_per_worker.len() {
            self.chunks_per_worker.resize(other.chunks_per_worker.len(), 0);
        }
        for (a, &b) in self.chunks_per_worker.iter_mut().zip(&other.chunks_per_worker) {
            *a += b;
        }
        self.items_processed += other.items_processed;
        self.items_skipped += other.items_skipped;
    }

    /// Total chunks across workers.
    pub fn total_chunks(&self) -> usize {
        self.chunks_per_worker.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Continuous-drain primitives
//
// The lock-free And worklist is built from the pieces below instead of
// `parallel_for_chunks`: persistent workers pop from a shared ring and run
// gate-free to quiescence. The companion paper's observation that stale
// reads are harmless is what lets every hot-path access stay relaxed; the
// few Release/Acquire pairs are annotated with the invariant they carry.
// ---------------------------------------------------------------------------

/// Bounded lock-free MPMC ring (Vyukov's sequence-number design), used for
/// worklists whose ids can be pushed *again* after being consumed — the And
/// frontier, where a processed r-clique may be re-woken. Capacity is rounded
/// up to a power of two.
#[derive(Debug)]
pub struct MpmcRing {
    seq: Vec<AtomicUsize>,
    vals: Vec<AtomicU32>,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
}

impl MpmcRing {
    /// Ring holding at least `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        MpmcRing {
            seq: (0..cap).map(AtomicUsize::new).collect(),
            vals: (0..cap).map(|_| AtomicU32::new(0)).collect(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Usable capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Enqueues `v`; `false` when the ring is full.
    #[inline]
    pub fn push(&self, v: u32) -> bool {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let cell = pos & self.mask;
            let seq = self.seq[cell].load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.vals[cell].store(v, Ordering::Relaxed);
                        // Release publishes the value store above to the
                        // consumer's Acquire seq read.
                        self.seq[cell].store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                return false; // full
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues one item; `None` when empty.
    #[inline]
    pub fn pop(&self) -> Option<u32> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let cell = pos & self.mask;
            let seq = self.seq[cell].load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let v = self.vals[cell].load(Ordering::Relaxed);
                        self.seq[cell].store(pos + self.mask + 1, Ordering::Release);
                        return Some(v);
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                return None; // empty
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate emptiness (exact only when producers are quiescent).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) >= self.tail.load(Ordering::Relaxed)
    }
}

/// [`MpmcRing`] plus a dedup bitset. `push` is a no-op for an id whose bit
/// is already set; consumers `pop` continuously and `unmark` before
/// recomputing, exactly the paper's notification semantics but with no
/// epoch barrier. Because an id's bit stays set from push until its
/// consumer unmarks it *after* the pop, the ring holds at most one live
/// entry per id, so a universe-sized ring is never *logically* full. The
/// Vyukov protocol can still report full **transiently** when a push wraps
/// onto a slot whose consumer has claimed it but not yet recycled its
/// sequence number; `push` absorbs that window with a bounded spin (the
/// claiming consumer is lock-free and mid-`pop`, so the wait is short and
/// deadlock-free).
#[derive(Debug)]
pub struct ConcurrentWorklist {
    ring: MpmcRing,
    queued: AtomicBitset,
}

impl ConcurrentWorklist {
    /// Empty worklist over ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        ConcurrentWorklist {
            ring: MpmcRing::with_capacity(universe.max(1)),
            queued: AtomicBitset::new(universe, false),
        }
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.queued.len()
    }

    /// Schedules `id` unless already scheduled; returns whether it was
    /// enqueued now.
    #[inline]
    pub fn push(&self, id: u32) -> bool {
        debug_assert!((id as usize) < self.universe());
        if self.queued.set(id as usize) {
            return false; // already scheduled
        }
        // The dedup bit guarantees occupancy < capacity here, so a failed
        // ring push is the transient wrap-onto-a-mid-pop-slot window (see
        // the type docs): spin until the consumer recycles the slot.
        let mut spins = 0u32;
        while !self.ring.push(id) {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        true
    }

    /// Takes one scheduled id (its bit stays set until [`Self::unmark`]).
    #[inline]
    pub fn pop(&self) -> Option<u32> {
        self.ring.pop()
    }

    /// Clears `id`'s scheduled bit (call before recomputing it). Returns the
    /// previous value.
    #[inline]
    pub fn unmark(&self, id: u32) -> bool {
        self.queued.clear(id as usize)
    }

    /// Whether `id` is currently scheduled.
    #[inline]
    pub fn is_marked(&self, id: u32) -> bool {
        self.queued.get(id as usize)
    }
}

/// Exact termination detection for continuous drains, by quiescence
/// counting: work is **issued** (counter bumped before the item is
/// published to the queue) and **retired** (counter bumped after the item's
/// processing — including every follow-on issue it made — is complete).
///
/// `quiescent()` reads `retired` with Acquire *first*, then `issued`: both
/// counters are monotone and `retired ≤ issued` always holds, so observing
/// them equal proves every issued item was retired at some point between
/// the two reads — and since new work is only issued from in-flight items,
/// no work can appear afterwards. This sidesteps the classic lost-wakeup
/// race of idle-worker counting: there is no "idle" state to re-enter, just
/// two monotone counters.
#[derive(Debug, Default)]
pub struct QuiescenceCounter {
    issued: AtomicUsize,
    retired: AtomicUsize,
}

impl QuiescenceCounter {
    /// Fresh counter (zero issued, zero retired — trivially quiescent, which
    /// is the correct answer for empty input).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` new work items. Must be called *before* the items become
    /// claimable by other workers.
    #[inline]
    pub fn issue(&self, n: usize) {
        self.issued.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` completed items. Release so that a `quiescent()` observer
    /// also observes everything the processing wrote (its κ stores and
    /// follow-on issues).
    #[inline]
    pub fn retire(&self, n: usize) {
        self.retired.fetch_add(n, Ordering::Release);
    }

    /// Exact check: all issued work has been retired.
    #[inline]
    pub fn quiescent(&self) -> bool {
        // Acquire on `retired` also fences the subsequent `issued` load from
        // moving earlier; see the struct docs for why this order is exact.
        let r = self.retired.load(Ordering::Acquire);
        let i = self.issued.load(Ordering::Relaxed);
        debug_assert!(r <= i);
        r == i
    }

    /// Total issued so far.
    #[inline]
    pub fn issued(&self) -> usize {
        self.issued.load(Ordering::Relaxed)
    }

    /// Rewinds both counters. Caller must guarantee no concurrent use.
    pub fn reset(&self) {
        self.issued.store(0, Ordering::Relaxed);
        self.retired.store(0, Ordering::Relaxed);
    }
}

/// Runs `f` over `0..n` in parallel chunks. `f` must be `Sync` (it is shared
/// by reference across workers) and is invoked with disjoint ranges covering
/// `0..n` exactly once.
pub fn parallel_for_chunks<F>(n: usize, cfg: ParallelConfig, f: F) -> SchedulerStats
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    parallel_for_chunks_with(n, cfg, || (), |(), r| f(r))
}

/// Like [`parallel_for_chunks`] but with per-worker state created by `init`
/// (e.g. a scratch `HBuffer`), passed mutably to every chunk the worker
/// claims.
pub fn parallel_for_chunks_with<S, I, F>(
    n: usize,
    cfg: ParallelConfig,
    init: I,
    f: F,
) -> SchedulerStats
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) + Sync,
{
    hdsd_telemetry::span!("parallel.chunks");
    let threads = cfg.threads.max(1);
    let chunk = cfg.chunk.max(1);
    if n == 0 {
        return SchedulerStats::from_chunks(vec![0; threads]);
    }
    if threads == 1 {
        let mut s = init();
        let mut done = 0usize;
        let mut chunks = 0usize;
        while done < n {
            let hi = (done + chunk).min(n);
            f(&mut s, done..hi);
            done = hi;
            chunks += 1;
        }
        return SchedulerStats::from_chunks(vec![chunks]);
    }

    let counters: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    match cfg.policy {
        Policy::Dynamic => {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for counter in &counters {
                    let (next, init, f) = (&next, &init, &f);
                    scope.spawn(move || {
                        let mut s = init();
                        loop {
                            let lo = next.fetch_add(chunk, Ordering::Relaxed);
                            if lo >= n {
                                break;
                            }
                            let hi = (lo + chunk).min(n);
                            f(&mut s, lo..hi);
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
        }
        Policy::Static => {
            let per = n.div_ceil(threads);
            std::thread::scope(|scope| {
                for (t, counter) in counters.iter().enumerate() {
                    let lo = (t * per).min(n);
                    let hi = ((t + 1) * per).min(n);
                    let (init, f) = (&init, &f);
                    scope.spawn(move || {
                        let mut s = init();
                        let mut at = lo;
                        while at < hi {
                            let end = (at + chunk).min(hi);
                            f(&mut s, at..end);
                            at = end;
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
        }
    }
    SchedulerStats::from_chunks(counters.iter().map(|c| c.load(Ordering::Relaxed)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn sum_check(threads: usize, policy: Policy, n: usize, chunk: usize) {
        let cfg = ParallelConfig { threads, chunk, policy };
        let total = AtomicU64::new(0);
        let calls = AtomicUsize::new(0);
        parallel_for_chunks(n, cfg, |r| {
            let mut s = 0u64;
            for i in r {
                s += i as u64;
            }
            total.fetch_add(s, Ordering::Relaxed);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        let expect = (n as u64).saturating_sub(1) * n as u64 / 2;
        assert_eq!(total.load(Ordering::Relaxed), expect, "threads={threads} {policy:?}");
        let expected_calls = match policy {
            // Static chunks each stripe separately, so count per stripe.
            Policy::Static if threads > 1 && n > 0 => {
                let per = n.div_ceil(threads);
                (0..threads)
                    .map(|t| {
                        let lo = (t * per).min(n);
                        let hi = ((t + 1) * per).min(n);
                        (hi - lo).div_ceil(chunk.max(1))
                    })
                    .sum()
            }
            _ => n.div_ceil(chunk.max(1)),
        };
        assert_eq!(calls.load(Ordering::Relaxed), expected_calls);
    }

    #[test]
    fn covers_index_space_exactly_once() {
        for &threads in &[1usize, 2, 4, 7] {
            for &policy in &[Policy::Dynamic, Policy::Static] {
                for &n in &[0usize, 1, 5, 100, 1001] {
                    sum_check(threads, policy, n, 16);
                }
            }
        }
    }

    #[test]
    fn chunk_of_one_works() {
        sum_check(3, Policy::Dynamic, 50, 1);
        sum_check(3, Policy::Static, 50, 1);
    }

    #[test]
    fn per_worker_state_is_reused() {
        // Each worker counts its own chunks in local state; stats must agree.
        let cfg = ParallelConfig { threads: 4, chunk: 8, policy: Policy::Dynamic };
        let seen = AtomicUsize::new(0);
        let stats = parallel_for_chunks_with(
            1000,
            cfg,
            || 0usize,
            |local, r| {
                *local += 1;
                seen.fetch_add(r.len(), Ordering::Relaxed);
            },
        );
        assert_eq!(seen.load(Ordering::Relaxed), 1000);
        let total_chunks: usize = stats.chunks_per_worker.iter().sum();
        assert_eq!(total_chunks, 1000usize.div_ceil(8));
    }

    #[test]
    fn static_policy_stripes_are_contiguous() {
        use std::sync::Mutex;
        let cfg = ParallelConfig { threads: 3, chunk: 4, policy: Policy::Static };
        let ranges = Mutex::new(Vec::new());
        parallel_for_chunks(30, cfg, |r| {
            ranges.lock().unwrap().push(r);
        });
        let mut rs = ranges.into_inner().unwrap();
        rs.sort_by_key(|r| r.start);
        // Disjoint cover of 0..30.
        let mut at = 0;
        for r in rs {
            assert_eq!(r.start, at);
            at = r.end;
        }
        assert_eq!(at, 30);
    }

    #[test]
    fn imbalance_metric() {
        let s = SchedulerStats::from_chunks(vec![4, 2]);
        assert!((s.imbalance() - 2.0).abs() < 1e-12);
        let z = SchedulerStats::from_chunks(vec![0, 0]);
        assert_eq!(z.imbalance(), 1.0);
        let inf = SchedulerStats::from_chunks(vec![3, 0]);
        assert!(inf.imbalance().is_infinite());
    }

    #[test]
    fn scheduler_stats_merge_adds() {
        let mut a = SchedulerStats::from_chunks(vec![1, 2]);
        a.items_processed = 10;
        let mut b = SchedulerStats::from_chunks(vec![3, 4, 5]);
        b.items_processed = 7;
        b.items_skipped = 2;
        a.merge(&b);
        assert_eq!(a.chunks_per_worker, vec![4, 6, 5]);
        assert_eq!(a.items_processed, 17);
        assert_eq!(a.items_skipped, 2);
        assert_eq!(a.total_chunks(), 15);
    }

    #[test]
    fn mpmc_ring_wraps_without_loss_or_duplication() {
        let ring = MpmcRing::with_capacity(8); // small: forces wraparound
        let total = 10_000u32;
        let counts: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for p in 0..2u32 {
                let ring = &ring;
                scope.spawn(move || {
                    for v in (p..total).step_by(2) {
                        while !ring.push(v) {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let ring = &ring;
                let counts = &counts;
                let popped = &popped;
                scope.spawn(move || loop {
                    if let Some(v) = ring.pop() {
                        counts[v as usize].fetch_add(1, Ordering::Relaxed);
                        popped.fetch_add(1, Ordering::Relaxed);
                    } else if popped.load(Ordering::Relaxed) == total as usize {
                        break;
                    } else {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn mpmc_ring_single_item_and_empty() {
        let ring = MpmcRing::with_capacity(1);
        assert!(ring.is_empty());
        assert_eq!(ring.pop(), None);
        assert!(ring.push(42));
        assert_eq!(ring.pop(), Some(42));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn concurrent_worklist_dedups_and_allows_repush_after_unmark() {
        let wl = ConcurrentWorklist::new(16);
        assert!(wl.push(3));
        assert!(!wl.push(3), "push of a scheduled id must dedup");
        assert!(wl.is_marked(3));
        assert_eq!(wl.pop(), Some(3));
        // Bit still set after pop: a wake arriving now must not re-enqueue.
        assert!(!wl.push(3));
        assert!(wl.unmark(3));
        assert!(wl.push(3), "after unmark the id is schedulable again");
        assert_eq!(wl.pop(), Some(3));
    }

    #[test]
    fn concurrent_worklist_never_overflows_under_races() {
        let n = 512usize;
        let wl = ConcurrentWorklist::new(n);
        let processed = AtomicUsize::new(0);
        // Producers re-push aggressively; consumers pop/unmark. The dedup
        // bit bounds ring occupancy at `universe`, so no push may fail.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let wl = &wl;
                scope.spawn(move || {
                    for round in 0..50 {
                        for id in 0..n {
                            wl.push(((id + round) % n) as u32);
                        }
                    }
                });
            }
            for _ in 0..2 {
                let wl = &wl;
                let processed = &processed;
                scope.spawn(move || {
                    let mut idle = 0;
                    loop {
                        match wl.pop() {
                            Some(id) => {
                                idle = 0;
                                wl.unmark(id);
                                processed.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                idle += 1;
                                if idle > 10_000 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        assert!(processed.load(Ordering::Relaxed) >= n);
    }

    #[test]
    fn quiescence_counter_empty_input_is_quiescent() {
        let q = QuiescenceCounter::new();
        assert!(q.quiescent(), "zero issued work is quiescent by definition");
        q.issue(1);
        assert!(!q.quiescent());
        q.retire(1);
        assert!(q.quiescent());
        q.reset();
        assert!(q.quiescent());
    }

    #[test]
    fn quiescence_counter_detects_termination_with_more_workers_than_items() {
        // 1 item, 4 workers: three workers find nothing and spin on the
        // counter; the counter must still converge to quiescent exactly when
        // the single item (and its follow-on) retires.
        let q = QuiescenceCounter::new();
        let work = MpmcRing::with_capacity(8);
        q.issue(1);
        work.push(7);
        let processed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let q = &q;
                let work = &work;
                let processed = &processed;
                scope.spawn(move || loop {
                    if let Some(v) = work.pop() {
                        if v == 7 {
                            // follow-on work, issued before publication
                            q.issue(1);
                            work.push(9);
                        }
                        processed.fetch_add(1, Ordering::Relaxed);
                        q.retire(1);
                    } else if q.quiescent() {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(processed.load(Ordering::Relaxed), 2);
        assert!(q.quiescent());
        assert_eq!(q.issued(), 2);
    }

    #[test]
    fn borrows_caller_stack() {
        // The whole point of scoped threads: write into a caller-owned slice.
        let mut out = vec![0u32; 256];
        {
            let cells: Vec<std::sync::atomic::AtomicU32> =
                (0..256).map(|_| std::sync::atomic::AtomicU32::new(0)).collect();
            parallel_for_chunks(256, ParallelConfig::with_threads(4).chunk(16), |r| {
                for i in r {
                    cells[i].store(i as u32 * 2, Ordering::Relaxed);
                }
            });
            for (i, c) in cells.iter().enumerate() {
                out[i] = c.load(Ordering::Relaxed);
            }
        }
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }
}
