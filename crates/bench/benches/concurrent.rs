//! Concurrent-serving benchmark: wait-free epoch reads under churn.
//!
//! This is the measurement the epoch tentpole is accountable to. A
//! background writer thread applies edge batches and publishes a new
//! epoch after each one (exactly the daemon's writer lane); reader
//! threads hammer κ point lookups through pinned [`EpochReader`]s.
//! Reported:
//!
//! * **aggregate lookup throughput at 1/2/4/8 reader threads**, writer
//!   churning throughout — the scaling curve a lock-serialized engine
//!   cannot produce (its curve is flat);
//! * **read p99 during refresh vs quiescent** — a reader must not
//!   stall while the writer builds and publishes the next epoch.
//!
//! Readers also assert their pinned epoch never regresses
//! (`reads_monotone` in the artifact — a hard gate failure if false).
//!
//! The machine's core count is part of the artifact: the CI gate
//! (`bench_gate.py`, kind=concurrent) requires max-thread scaling ≥
//! `min(4.0, 0.6 × cores)` and gates the p99 ratio only on ≥ 2 cores —
//! a single-core runner cannot overlap readers with the writer, and its
//! "scaling" would only measure scheduler overhead.
//!
//! Run with `cargo bench -p hdsd-bench --bench concurrent` (append
//! `-- --quick` for the smoke size; quick mode writes to `target/`).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdsd_service::engine::EngineView;
use hdsd_service::{Engine, EngineConfig, EpochCell, SpaceSel};
use proptest::splitmix64 as splitmix;

/// One measurement window: `threads` readers doing random κ lookups
/// while (optionally) a writer churns update batches and publishes.
/// Returns (lookups/sec, publishes, all readers monotone).
fn run_window(
    engine: &mut Engine,
    cell: &Arc<EpochCell<EngineView>>,
    threads: usize,
    window: Duration,
    churn: bool,
    rng_seed: u64,
) -> (f64, u64, bool) {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let monotone = AtomicBool::new(true);
    let mut publishes = 0u64;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let mut reader = cell.reader();
            let stop = &stop;
            let total = &total;
            let monotone = &monotone;
            handles.push(s.spawn(move || {
                let mut rng = rng_seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut count = 0u64;
                let mut checksum = 0u64;
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Tight inner loop between stop checks: the lookup
                    // itself is the workload, not the atomic poll.
                    for _ in 0..256 {
                        let (view, epoch) = reader.pin();
                        if epoch < last_epoch {
                            monotone.store(false, Ordering::Relaxed);
                        }
                        last_epoch = epoch;
                        let sel =
                            if count.is_multiple_of(2) { SpaceSel::Core } else { SpaceSel::Truss };
                        let n = view.num_cliques(sel).unwrap();
                        let id = (splitmix(&mut rng) % n as u64) as usize;
                        checksum = checksum.wrapping_add(view.kappa_of(sel, id).unwrap() as u64);
                        count += 1;
                    }
                }
                total.fetch_add(count, Ordering::Relaxed);
                checksum
            }));
        }

        let t0 = Instant::now();
        if churn {
            // The measuring thread IS the writer lane: churn until the
            // window closes, exactly like the daemon's single writer.
            let mut rng = rng_seed ^ 0xD00D;
            while t0.elapsed() < window {
                let nv = engine.graph().num_vertices() as u64;
                let ins: Vec<(u32, u32)> = (0..2)
                    .map(|_| ((splitmix(&mut rng) % nv) as u32, (splitmix(&mut rng) % nv) as u32))
                    .collect();
                let rm: Vec<(u32, u32)> = {
                    let edges = engine.graph().edges();
                    (0..2)
                        .map(|_| edges[(splitmix(&mut rng) % edges.len() as u64) as usize])
                        .collect()
                };
                engine.update(&ins, &rm);
                cell.publish(engine.view());
                publishes += 1;
            }
        } else {
            std::thread::sleep(window);
        }
        let elapsed = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        let mut sink = 0u64;
        for h in handles {
            sink = sink.wrapping_add(h.join().expect("reader panicked"));
        }
        std::hint::black_box(sink);
        let per_sec = total.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64();
        (per_sec, publishes, monotone.load(Ordering::Relaxed))
    })
}

/// p99 over per-chunk lookup latencies (one chunk = `CHUNK` lookups on
/// one reader thread), in microseconds.
fn chunk_p99(
    engine: &mut Engine,
    cell: &Arc<EpochCell<EngineView>>,
    chunks: usize,
    churn: bool,
) -> f64 {
    const CHUNK: usize = 64;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut reader = cell.reader();
        let stop_ref = &stop;
        let sampler = s.spawn(move || {
            let mut rng = 0xFACEu64;
            let mut lat_us: Vec<f64> = Vec::with_capacity(chunks);
            let mut checksum = 0u64;
            for _ in 0..chunks {
                let t = Instant::now();
                for i in 0..CHUNK {
                    let (view, _) = reader.pin();
                    let sel = if i % 2 == 0 { SpaceSel::Core } else { SpaceSel::Truss };
                    let n = view.num_cliques(sel).unwrap();
                    let id = (splitmix(&mut rng) % n as u64) as usize;
                    checksum = checksum.wrapping_add(view.kappa_of(sel, id).unwrap() as u64);
                }
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            stop_ref.store(true, Ordering::Relaxed);
            std::hint::black_box(checksum);
            lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
            lat_us[((lat_us.len() - 1) as f64 * 0.99) as usize]
        });
        if churn {
            let mut rng = 0xBADCAFEu64;
            while !stop.load(Ordering::Relaxed) {
                let nv = engine.graph().num_vertices() as u64;
                let ins: Vec<(u32, u32)> = (0..2)
                    .map(|_| ((splitmix(&mut rng) % nv) as u32, (splitmix(&mut rng) % nv) as u32))
                    .collect();
                let rm: Vec<(u32, u32)> = {
                    let edges = engine.graph().edges();
                    (0..2)
                        .map(|_| edges[(splitmix(&mut rng) % edges.len() as u64) as usize])
                        .collect()
                };
                engine.update(&ins, &rm);
                cell.publish(engine.view());
            }
        }
        sampler.join().expect("sampler panicked")
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, m_attach, thin) = if quick { (2_000u32, 5u32, 0.7) } else { (20_000, 6, 0.6) };
    let g = hdsd_datasets::thin_edges(&hdsd_datasets::holme_kim(n, m_attach, 0.4, 7), thin, 7);
    eprintln!("concurrent bench graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let required_scaling = 4.0_f64.min(0.6 * cores as f64);
    eprintln!("cores: {cores}; required max-thread scaling: {required_scaling:.2}x");

    let cfg = EngineConfig { spaces: vec![SpaceSel::Core, SpaceSel::Truss] };
    let mut engine = Engine::new(g.clone(), &cfg);
    let cell = Arc::new(EpochCell::new(engine.view()));

    let window = Duration::from_millis(if quick { 250 } else { 1000 });
    let thread_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut all_monotone = true;
    for &threads in &thread_counts {
        let (per_sec, publishes, monotone) =
            run_window(&mut engine, &cell, threads, window, true, 0x5EED ^ threads as u64);
        all_monotone &= monotone;
        eprintln!(
            "lookups @ {threads} threads under churn: {per_sec:.0}/s ({publishes} epochs published)"
        );
        rows.push((threads, per_sec, publishes));
    }
    let base = rows[0].1;
    let max_threads_per_sec = rows.last().unwrap().1;
    let scaling = max_threads_per_sec / base;
    eprintln!(
        "scaling {}t vs 1t under churn: {scaling:.2}x (required {required_scaling:.2}x)",
        thread_counts.last().unwrap()
    );

    let chunks = if quick { 400 } else { 1500 };
    let p99_quiescent = chunk_p99(&mut engine, &cell, chunks, false);
    let p99_refresh = chunk_p99(&mut engine, &cell, chunks, true);
    let p99_ratio = p99_refresh / p99_quiescent.max(1e-9);
    eprintln!(
        "read p99 per 64-lookup chunk: quiescent {p99_quiescent:.1} µs, \
         during refresh {p99_refresh:.1} µs ({p99_ratio:.2}x)"
    );
    assert!(all_monotone, "a reader observed its epoch going backwards");

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"graph\": {{\"generator\": \"thin(holme_kim)\", \"n\": {n}, \"m_attach\": {m_attach}, \
         \"thin\": {thin}, \"vertices\": {}, \"edges\": {}}},",
        g.num_vertices(),
        g.num_edges()
    );
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"required_scaling\": {required_scaling:.3},");
    out.push_str("  \"lookup_throughput\": [\n");
    for (i, (threads, per_sec, publishes)) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"threads\": {threads}, \"per_sec\": {per_sec:.0}, \
             \"publishes\": {publishes}}}{}",
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"scaling_max_vs_1\": {scaling:.3},");
    let _ = writeln!(
        out,
        "  \"p99\": {{\"chunk_lookups\": 64, \"quiescent_us\": {p99_quiescent:.1}, \
         \"refresh_us\": {p99_refresh:.1}, \"ratio\": {p99_ratio:.3}}},"
    );
    let _ = writeln!(out, "  \"reads_monotone\": {all_monotone}");
    out.push_str("}\n");

    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_concurrent.quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_concurrent.json")
    };
    std::fs::write(path, &out).expect("write concurrent bench JSON");
    eprintln!("wrote {path}");
}
