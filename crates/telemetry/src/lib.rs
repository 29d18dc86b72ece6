#![warn(missing_docs)]
//! # hdsd-telemetry
//!
//! Dependency-free runtime telemetry for the serving stack — the
//! observable counterpart of the paper's convergence-counter methodology:
//! the decomposition layers already *compute* their work counters
//! (`SchedulerStats`, `PeelStats`, update-stage timings); this crate is where
//! those numbers stop being dropped and become a scrapeable surface.
//!
//! Four pieces, all `std`-only:
//!
//! * [`registry`] — a process-wide metrics [`Registry`] of atomic
//!   [`Counter`]s, [`Gauge`]s and log₂-bucketed latency [`Histogram`]s.
//!   Registration is a one-time name lookup; the hot path afterwards is a
//!   single relaxed atomic add. The [`counter_add!`] macro caches the
//!   handle in a per-call-site `OnceLock` so instrumented loops pay no
//!   repeated lookup.
//! * [`trace`] — lightweight stage spans ([`span!`] guards over a
//!   monotonic clock, parent-linked, thread-tagged) recorded into
//!   per-thread bounded collectors, plus a global bounded slow-query log.
//!   When tracing is disabled a span costs one relaxed load and a branch.
//! * [`log`] — structured stderr logging (`text` or `json` lines with
//!   timestamps, levels, targets and key/value fields) replacing ad-hoc
//!   `eprintln!` in the daemon.
//! * [`prometheus`] — text-exposition rendering of the registry and a
//!   minimal HTTP exporter thread for `--metrics-addr`.
//!
//! Histogram buckets are powers of two, so quantiles extracted from a
//! snapshot ([`HistogramSnapshot::quantile`]) carry a bounded relative
//! error: the estimate `e` of an exact quantile `q` satisfies
//! `q ≤ e ≤ 2·q` (property-tested against exact sorted-slice quantiles).
//! Snapshots merge associatively, so per-shard registries can be folded
//! losslessly later.

pub mod histogram;
pub mod log;
pub mod prometheus;
pub mod registry;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{labeled, Counter, Gauge, MetricSnapshot, Registry};
pub use trace::{SlowEntry, Span, SpanRecord, Trace};

/// Adds `n` to a named counter in the global registry, caching the handle
/// per call site: the first execution registers (one mutex + map lookup),
/// every later one is a single relaxed atomic add.
///
/// ```
/// hdsd_telemetry::counter_add!("example_events_total", 1);
/// ```
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {{
        static __HDSD_COUNTER: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        __HDSD_COUNTER.get_or_init(|| $crate::Registry::global().counter($name)).add($n);
    }};
}

/// Opens a stage span that closes (and records its duration) at the end
/// of the enclosing scope. Free when tracing is disabled.
///
/// ```
/// fn stage() {
///     hdsd_telemetry::span!("example.stage");
///     // ... traced work ...
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _hdsd_span_guard = $crate::trace::Span::enter($name);
    };
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    #[test]
    fn counter_add_macro_registers_once_and_accumulates() {
        let before = Registry::global().counter("lib_macro_test_total").get();
        for _ in 0..10 {
            counter_add!("lib_macro_test_total", 2);
        }
        let after = Registry::global().counter("lib_macro_test_total").get();
        assert_eq!(after - before, 20);
    }

    #[test]
    fn span_macro_compiles_disabled() {
        // Tracing defaults to disabled: the guard must be a no-op.
        span!("lib.test.span");
    }
}
