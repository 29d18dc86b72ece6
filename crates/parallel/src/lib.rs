#![warn(missing_docs)]
//! # hdsd-parallel
//!
//! A deliberately small shared-memory parallel runtime standing in for the
//! paper's OpenMP setup. The paper's key implementation observation (§4.4)
//! is that *dynamic* scheduling — handing each idle thread the next chunk of
//! work — is required because the notification mechanism makes per-item cost
//! wildly non-uniform; static chunking strands threads on converged regions.
//! Both policies are provided so the benches can reproduce that ablation.
//!
//! The runtime is built on `std::thread::scope`, so worker closures may
//! borrow from the caller's stack; no `'static` bounds, no channels, no
//! executor. Synchronization uses atomics only.

pub mod scheduling;

pub use scheduling::{
    parallel_for_chunks, parallel_for_chunks_with, ConcurrentWorklist, MpmcRing, Policy,
    QuiescenceCounter, SchedulerStats,
};

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Resolves the worker-thread count: `HDSD_THREADS` env var when set and
/// positive, otherwise `std::thread::available_parallelism()`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("HDSD_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Execution configuration shared by the parallel decomposition algorithms.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Worker threads; 1 = run inline on the caller thread.
    pub threads: usize,
    /// Items per scheduling chunk.
    pub chunk: usize,
    /// Scheduling policy (dynamic is the paper's choice).
    pub policy: Policy,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { threads: default_threads(), chunk: 1024, policy: Policy::Dynamic }
    }
}

impl ParallelConfig {
    /// Sequential configuration (single thread).
    pub fn sequential() -> Self {
        ParallelConfig { threads: 1, ..Default::default() }
    }

    /// Configuration with `t` threads, default chunking.
    pub fn with_threads(t: usize) -> Self {
        ParallelConfig { threads: t.max(1), ..Default::default() }
    }

    /// Sets the chunk size.
    pub fn chunk(mut self, c: usize) -> Self {
        self.chunk = c.max(1);
        self
    }

    /// Sets the scheduling policy.
    pub fn policy(mut self, p: Policy) -> Self {
        self.policy = p;
        self
    }
}

/// A shared "anything changed?" flag with relaxed semantics, used for the
/// convergence check of the synchronous/asynchronous iterations.
#[derive(Default, Debug)]
pub struct ChangedFlag(AtomicBool);

impl ChangedFlag {
    /// New, unset flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag.
    #[inline]
    pub fn set(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Reads and clears.
    pub fn take(&self) -> bool {
        self.0.swap(false, Ordering::Relaxed)
    }

    /// Reads without clearing.
    pub fn get(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A `Vec<AtomicU32>` wrapper for τ indices shared across asynchronous
/// workers. All accesses are relaxed: the algorithms tolerate stale reads
/// (a stale read only delays convergence; Theorem 1's monotone lower-bounded
/// descent still holds, which is why the paper's parallel AND is correct).
#[derive(Debug)]
pub struct AtomicU32Vec {
    data: Vec<AtomicU32>,
}

impl AtomicU32Vec {
    /// Builds from plain values.
    pub fn from_vec(v: Vec<u32>) -> Self {
        AtomicU32Vec { data: v.into_iter().map(AtomicU32::new).collect() }
    }

    /// Length.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed load.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Relaxed store.
    #[inline]
    pub fn set(&self, i: usize, v: u32) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// Extracts plain values.
    pub fn into_vec(self) -> Vec<u32> {
        self.data.into_iter().map(|a| a.into_inner()).collect()
    }

    /// Copies out plain values.
    pub fn to_vec(&self) -> Vec<u32> {
        self.data.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    /// Copies all values into `out` (lengths must match).
    pub fn copy_to_slice(&self, out: &mut [u32]) {
        assert_eq!(out.len(), self.data.len());
        for (o, a) in out.iter_mut().zip(&self.data) {
            *o = a.load(Ordering::Relaxed);
        }
    }
}

/// A compact atomic bitset used by the notification mechanism's wake flags.
#[derive(Debug)]
pub struct AtomicBitset {
    words: Vec<AtomicU32>,
    len: usize,
}

impl AtomicBitset {
    /// All-bits-`value` bitset of length `len`.
    pub fn new(len: usize, value: bool) -> Self {
        let fill = if value { u32::MAX } else { 0 };
        let words = (0..len.div_ceil(32)).map(|_| AtomicU32::new(fill)).collect();
        AtomicBitset { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i` (relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 32].load(Ordering::Relaxed) & (1 << (i % 32)) != 0
    }

    /// Sets bit `i` (relaxed), returning the previous value.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let prev = self.words[i / 32].fetch_or(1 << (i % 32), Ordering::Relaxed);
        prev & (1 << (i % 32)) != 0
    }

    /// Clears bit `i` (relaxed), returning the previous value.
    #[inline]
    pub fn clear(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let prev = self.words[i / 32].fetch_and(!(1 << (i % 32)), Ordering::Relaxed);
        prev & (1 << (i % 32)) != 0
    }

    /// Counts set bits (not atomic as a whole; fine for telemetry).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum::<usize>()
            - self.padding_ones()
    }

    fn padding_ones(&self) -> usize {
        let tail = self.len % 32;
        if tail == 0 || self.words.is_empty() {
            return 0;
        }
        let last = self.words[self.words.len() - 1].load(Ordering::Relaxed);
        (last >> tail).count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changed_flag_take_clears() {
        let f = ChangedFlag::new();
        assert!(!f.take());
        f.set();
        assert!(f.get());
        assert!(f.take());
        assert!(!f.take());
    }

    #[test]
    fn atomic_vec_round_trip() {
        let v = AtomicU32Vec::from_vec(vec![1, 2, 3]);
        v.set(1, 42);
        assert_eq!(v.get(1), 42);
        assert_eq!(v.to_vec(), vec![1, 42, 3]);
        assert_eq!(v.into_vec(), vec![1, 42, 3]);
    }

    #[test]
    fn bitset_basics() {
        let b = AtomicBitset::new(70, false);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.set(0));
        assert!(b.set(0));
        b.set(69);
        assert!(b.get(69));
        assert_eq!(b.count_ones(), 2);
        assert!(b.clear(0));
        assert!(!b.get(0));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn bitset_initially_true_counts_exact_len() {
        let b = AtomicBitset::new(33, true);
        assert_eq!(b.count_ones(), 33);
        b.clear(32);
        assert_eq!(b.count_ones(), 32);
    }

    #[test]
    fn default_threads_respects_env() {
        // Can't set env safely in parallel tests; just sanity-check bounds.
        assert!(default_threads() >= 1);
    }
}
