//! RCU-style epoch publication: the primitive behind wait-free reads.
//!
//! An [`EpochCell`] holds the current immutable engine view behind an
//! `Arc`. A single writer lane builds the *next* view off to the side
//! (the splice + re-peel update path already produces it as a fresh
//! value) and [`EpochCell::publish`]es it with one atomic version bump.
//! Readers hold an [`EpochReader`] each and [`pin`](EpochReader::pin) a
//! view per request:
//!
//! * **Fast path** (steady state, no publication since the last pin):
//!   one `Acquire` load of the version counter, then the locally cached
//!   `Arc` is returned — no lock, no shared-cacheline write, wait-free.
//! * **Refresh path** (the version moved): the reader briefly takes the
//!   cell's mutex to clone the new `Arc`. The writer only ever holds
//!   that mutex for the duration of an `Arc` pointer swap — never across
//!   engine work — so the refresh is bounded by a pointer copy, not by
//!   an update, a splice, or a checkpoint.
//!
//! Old epochs stay alive exactly as long as some reader still pins them
//! (plain `Arc` reclamation — no epochs-with-grace-periods machinery is
//! needed because readers hold strong references, not raw pointers).
//!
//! ## Invariants
//!
//! 1. **Epoch immutability**: a published `T` is never mutated; updates
//!    replace the whole `Arc`. (Interior `OnceLock` caches inside the
//!    view — the lazily built hierarchy index — are monotonic fill-once
//!    values and do not change any answer a reader could observe twice.)
//! 2. **Monotonic versions**: `publish` returns 1, 2, 3, ... in order;
//!    version 0 is the initial (recovered) view, so startup recovery
//!    always "replays into epoch 0".
//! 3. **Coherent pins**: the `(view, version)` pair a pin returns was
//!    published together — the version is re-read under the same lock
//!    that swapped the `Arc`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The publication point: an atomically versioned `Arc<T>` slot.
///
/// Cheap to share (`Arc<EpochCell<T>>`); spawn one [`EpochReader`] per
/// reader thread with [`EpochCell::reader`].
pub struct EpochCell<T> {
    /// Bumped with `Release` *after* the new `Arc` is in place; readers
    /// check it with `Acquire` to decide whether their cache is current.
    version: AtomicU64,
    /// The current view. The mutex is held only for `Arc` clone/swap —
    /// never across engine work — so waiting on it is bounded by a
    /// pointer copy.
    current: Mutex<Arc<T>>,
}

impl<T> EpochCell<T> {
    /// Wraps the initial view as epoch 0.
    pub fn new(initial: Arc<T>) -> EpochCell<T> {
        EpochCell { version: AtomicU64::new(0), current: Mutex::new(initial) }
    }

    /// Publishes `next` as the new current epoch and returns its version.
    ///
    /// Safe under concurrent publishers (the version read-modify-write
    /// happens under the slot mutex), though the service runs a single
    /// writer lane in practice.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let mut slot = self.current.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = next;
        // Relaxed load is sufficient: all writers serialize on the mutex.
        let v = self.version.load(Ordering::Relaxed) + 1;
        self.version.store(v, Ordering::Release);
        v
    }

    /// The current epoch version (0 until the first publish).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones the current `(view, version)` pair coherently.
    pub fn load(&self) -> (Arc<T>, u64) {
        let slot = self.current.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Read the version while still holding the lock so the pair is
        // the one some single publish installed.
        (Arc::clone(&slot), self.version.load(Ordering::Relaxed))
    }

    /// A new reader, pinned to the current epoch.
    pub fn reader(self: &Arc<Self>) -> EpochReader<T> {
        let (cached, cached_version) = self.load();
        EpochReader { cell: Arc::clone(self), cached, cached_version }
    }
}

/// A per-thread read handle caching the last pinned epoch.
///
/// Not `Clone` on purpose: each reader thread owns one (the cache is the
/// whole point), minted from the shared cell via [`EpochCell::reader`].
pub struct EpochReader<T> {
    cell: Arc<EpochCell<T>>,
    cached: Arc<T>,
    cached_version: u64,
}

impl<T> EpochReader<T> {
    /// Pins the current epoch: wait-free when nothing was published since
    /// the last pin, otherwise one bounded `Arc` refresh. Returns the
    /// pinned view and its version.
    pub fn pin(&mut self) -> (&Arc<T>, u64) {
        if self.cell.version.load(Ordering::Acquire) != self.cached_version {
            let (view, version) = self.cell.load();
            self.cached = view;
            self.cached_version = version;
        }
        (&self.cached, self.cached_version)
    }

    /// Epochs published since this reader last pinned (0 = current).
    pub fn lag(&self) -> u64 {
        self.cell.version().saturating_sub(self.cached_version)
    }

    /// The version this reader last pinned.
    pub fn pinned_version(&self) -> u64 {
        self.cached_version
    }

    /// The shared cell (to mint sibling readers or publish).
    pub fn cell(&self) -> &Arc<EpochCell<T>> {
        &self.cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_versions_monotonically() {
        let cell = Arc::new(EpochCell::new(Arc::new(10u32)));
        assert_eq!(cell.version(), 0);
        assert_eq!(cell.publish(Arc::new(11)), 1);
        assert_eq!(cell.publish(Arc::new(12)), 2);
        let (v, ver) = cell.load();
        assert_eq!((*v, ver), (12, 2));
    }

    #[test]
    fn pin_is_cached_until_a_publish_moves_the_version() {
        let cell = Arc::new(EpochCell::new(Arc::new(1u32)));
        let mut r = cell.reader();
        let (v, ver) = r.pin();
        assert_eq!((**v, ver), (1, 0));
        assert_eq!(r.lag(), 0);
        cell.publish(Arc::new(2));
        assert_eq!(r.lag(), 1, "lag visible before the next pin");
        let (v, ver) = r.pin();
        assert_eq!((**v, ver), (2, 1));
        assert_eq!(r.lag(), 0);
    }

    #[test]
    fn old_epochs_survive_while_pinned_and_free_after() {
        let first = Arc::new(7u32);
        let weak = Arc::downgrade(&first);
        let cell = Arc::new(EpochCell::new(first));
        let mut r = cell.reader();
        r.pin();
        cell.publish(Arc::new(8));
        // The reader still pins epoch 0: the old view must stay alive.
        assert!(weak.upgrade().is_some());
        r.pin(); // moves to epoch 1, dropping the last strong ref
        assert!(weak.upgrade().is_none(), "unpinned epoch is reclaimed");
    }

    #[test]
    fn readers_only_ever_observe_published_pairs() {
        // Hammer pin() from several threads while a writer publishes
        // values tagged with their own version; every observed pair must
        // be self-consistent.
        let cell = Arc::new(EpochCell::new(Arc::new((0u64, 0u64))));
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut r = cell.reader();
                    let mut last = 0u64;
                    while stop.load(Ordering::Acquire) == 0 {
                        let (view, ver) = r.pin();
                        assert_eq!(view.0, ver, "pinned pair must be coherent");
                        assert!(ver >= last, "epochs must be monotonic per reader");
                        last = ver;
                    }
                })
            })
            .collect();
        for i in 1..=200u64 {
            cell.publish(Arc::new((i, i)));
        }
        stop.store(1, Ordering::Release);
        for t in readers {
            t.join().unwrap();
        }
        assert_eq!(cell.version(), 200);
    }
}
