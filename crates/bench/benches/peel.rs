//! Exact-path peeling benchmark: the flat engine vs the container walk.
//!
//! For each space (core, truss, (3,4) nucleus) on the 20k-vertex serving
//! graph, measures the sequential exact peel through both engines —
//! [`peel_walk`] over the space's container callbacks vs [`peel_flat`]
//! over a prebuilt [`FlatContainers`] cache (the serving scenario: the
//! engine-resident `CachedSpace` always has the rows materialized) — plus
//! the reusable [`PeelEngine`] form. The cache build cost is reported
//! separately so the cold path (build + flat) is reconstructable from
//! the artifact.
//!
//! Every run asserts bit-identical results (κ, order, counters) between
//! the engines. The JSON records the counters the CI gate pins and the
//! flat-vs-walk speedup it floors (`scripts/bench_gate.py --kind peel`),
//! with the core count and git revision of the run.
//!
//! Run with `cargo bench -p hdsd-bench --bench peel` (append `-- --quick`
//! for the smoke-test size; quick mode writes to `target/`).

use std::fmt::Write as _;
use std::time::Instant;

use hdsd_nucleus::{
    peel_flat, peel_walk, CliqueSpace, CoreSpace, FlatContainers, Nucleus34Space, PeelEngine,
    PeelResult, TrussSpace,
};

struct SpaceRecord {
    space: &'static str,
    cliques: usize,
    max_kappa: u32,
    cache_build_ms: f64,
    walk_ms: f64,
    flat_ms: f64,
    flat_engine_ms: f64,
    containers_scanned: u64,
    dead_containers: u64,
    bucket_moves: u64,
    kappa_identical: bool,
    counters_match: bool,
}

/// Best-of-`reps` wall time of `f`, returning the last result.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.unwrap())
}

fn bench_space<S: CliqueSpace>(name: &'static str, space: &S, reps: usize) -> SpaceRecord {
    let (cache_build_ms, flat) = time_best(reps, || FlatContainers::build(space));

    let (walk_ms, walk) = time_best(reps, || peel_walk(space));
    let (flat_ms, flat_r) = time_best(reps, || peel_flat(&flat));
    let mut engine = PeelEngine::new();
    engine.peel(&flat); // warm the scratch before timing the reusable form
    let (flat_engine_ms, engine_r) = time_best(reps, || engine.peel(&flat));

    let same = |r: &PeelResult| {
        r.kappa == walk.kappa && r.order == walk.order && r.max_kappa == walk.max_kappa
    };
    let kappa_identical = same(&flat_r) && same(&engine_r);
    let counters_match = flat_r.stats == walk.stats && engine_r.stats == walk.stats;
    assert!(kappa_identical, "{name}: engines disagree on the exact decomposition");
    assert!(counters_match, "{name}: flat/walk work counters diverged");

    SpaceRecord {
        space: name,
        cliques: space.num_cliques(),
        max_kappa: walk.max_kappa,
        cache_build_ms,
        walk_ms,
        flat_ms,
        flat_engine_ms,
        containers_scanned: walk.stats.containers_scanned,
        dead_containers: walk.stats.dead_containers,
        bucket_moves: walk.stats.bucket_moves,
        kappa_identical,
        counters_match,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Denser than the serving bench graph (no thinning, higher closure
    // probability): the (3,4) space needs real K4 structure to measure.
    let (n, m_attach, closure) = if quick { (2_000u32, 6u32, 0.8) } else { (20_000, 8, 0.8) };
    let reps = if quick { 3 } else { 5 };
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let git_rev = git_revision();
    let g = hdsd_datasets::holme_kim(n, m_attach, closure, 7);
    eprintln!(
        "peel bench graph: {} vertices, {} edges ({} cores, revision {git_rev})",
        g.num_vertices(),
        g.num_edges(),
        cores
    );

    let records = vec![
        bench_space("core", &CoreSpace::new(&g), reps),
        bench_space("truss", &TrussSpace::precomputed(&g), reps),
        bench_space("nucleus34", &Nucleus34Space::precomputed(&g), reps),
    ];

    for r in &records {
        eprintln!(
            "peel {}: walk {:.2} ms vs flat {:.2} ms ({:.2}x; engine {:.2} ms, cache build \
             {:.2} ms) | {} containers, {} dead, {} bucket moves",
            r.space,
            r.walk_ms,
            r.flat_ms,
            r.walk_ms / r.flat_ms.max(1e-9),
            r.flat_engine_ms,
            r.cache_build_ms,
            r.containers_scanned,
            r.dead_containers,
            r.bucket_moves,
        );
    }

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"graph\": {{\"generator\": \"holme_kim\", \"n\": {n}, \"m_attach\": {m_attach}, \
         \"closure\": {closure}, \"vertices\": {}, \"edges\": {}}},",
        g.num_vertices(),
        g.num_edges()
    );
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"git_rev\": \"{git_rev}\",");
    out.push_str("  \"spaces\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"space\": \"{}\", \"cliques\": {}, \"max_kappa\": {}, \
             \"cache_build_ms\": {:.3}, \"walk_ms\": {:.3}, \"flat_ms\": {:.3}, \
             \"flat_engine_ms\": {:.3}, \"speedup_flat_vs_walk\": {:.3}, \
             \"containers_scanned\": {}, \"dead_containers\": {}, \"bucket_moves\": {}, \
             \"kappa_identical\": {}, \"counters_match\": {}}}{}",
            r.space,
            r.cliques,
            r.max_kappa,
            r.cache_build_ms,
            r.walk_ms,
            r.flat_ms,
            r.flat_engine_ms,
            r.walk_ms / r.flat_ms.max(1e-9),
            r.containers_scanned,
            r.dead_containers,
            r.bucket_moves,
            r.kappa_identical,
            r.counters_match,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");

    // Quick mode is a smoke test; only full-size runs may overwrite the
    // tracked trend artifact.
    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_peel.quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_peel.json")
    };
    std::fs::write(path, &out).expect("write peel bench JSON");
    eprintln!("wrote {path}");
}

/// `git describe --always --dirty` of the checkout the bench runs in, so
/// the artifact names the code it measured ("unknown" outside a git tree).
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
