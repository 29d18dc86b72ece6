//! Crash-point fault injection for the durable serving pipeline.
//!
//! The property under test is the WAL contract end to end: **a crash at
//! any point in the append / fsync / checkpoint / rotate pipeline loses
//! at most the batches that were never acknowledged, and recovery is
//! exact** — the recovered engine's κ vectors, peel order, and hierarchy
//! canonical form are bit-identical to an uninterrupted reference engine
//! that applied the same batches.
//!
//! Mechanics: a [`FailPoints`] hook is armed at one named crash point per
//! trial. When it fires, the writer marks itself dead (every later I/O
//! fails), simulating the process vanishing mid-pipeline. The harness
//! then recovers from the directory exactly as a restarted daemon would
//! ([`Durability::open`] with a must-not-cold-start seed), derives how
//! many batches the crash point guarantees durable, resumes the stream
//! from there, and diffs against the reference.
//!
//! Case count scales with `PROPTEST_CASES` (the nightly slow-props job
//! raises it); the in-repo default runs 100 randomized streams through
//! all crash points and all three resident spaces.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hdsd_graph::CsrGraph;
use hdsd_nucleus::{assert_forest_eq, peel, CoreSpace, Nucleus34Space, TrussSpace};
use hdsd_service::{
    is_injected_crash, Durability, DurableConfig, Engine, EngineConfig, FailPoints, FsyncPolicy,
    SpaceSel,
};
use proptest::splitmix64 as splitmix;
use proptest::test_runner::Config;

/// Every named crash point in the WAL + checkpoint pipeline, in pipeline
/// order. Keep in sync with `wal.rs` / `recovery.rs`.
const CRASH_POINTS: &[&str] = &[
    "wal.append.before",
    "wal.append.torn",
    "wal.fsync",
    "wal.append.after",
    "ckpt.temp.torn",
    "ckpt.fsync",
    "ckpt.rename.before",
    "ckpt.rename.after",
    "wal.rotate",
];

const SPACES: &[SpaceSel] = &[SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34];

type Edge = (u32, u32);

struct Stream {
    base: CsrGraph,
    batches: Vec<(Vec<Edge>, Vec<Edge>)>,
}

/// A small random graph plus a stream of random edge batches. Ids may
/// exceed the current vertex count slightly (growth), removals may miss
/// (no-ops) — the engine-level semantics the WAL must reproduce exactly.
fn random_stream(seed: u64) -> Stream {
    let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
    let n = 22 + (splitmix(&mut rng) % 8) as u32;
    let base = hdsd_datasets::holme_kim(n, 2, 0.4, splitmix(&mut rng));
    let id_cap = n as u64 + 4;
    let n_batches = 4 + (splitmix(&mut rng) % 3) as usize;
    let mut batches = Vec::with_capacity(n_batches);
    for _ in 0..n_batches {
        let mut insert: Vec<Edge> = Vec::new();
        for _ in 0..(1 + splitmix(&mut rng) % 3) {
            let u = (splitmix(&mut rng) % id_cap) as u32;
            let v = (splitmix(&mut rng) % id_cap) as u32;
            let e = (u.min(v), u.max(v));
            if u != v && !insert.contains(&e) {
                insert.push(e);
            }
        }
        let mut remove: Vec<Edge> = Vec::new();
        if splitmix(&mut rng).is_multiple_of(2) {
            let u = (splitmix(&mut rng) % id_cap) as u32;
            let v = (splitmix(&mut rng) % id_cap) as u32;
            if u != v && !insert.contains(&(u.min(v), u.max(v))) {
                remove.push((u.min(v), u.max(v)));
            }
        }
        if insert.is_empty() && remove.is_empty() {
            insert.push((0, 1 + (splitmix(&mut rng) % (id_cap - 1)) as u32));
        }
        batches.push((insert, remove));
    }
    Stream { base, batches }
}

fn engine_of(graph: CsrGraph) -> Engine {
    Engine::new(graph, &EngineConfig { spaces: SPACES.to_vec() })
}

fn tmpdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdsd_crashrec_{}_{tag}", std::process::id()))
}

fn durable_cfg(dir: &std::path::Path, failpoints: FailPoints) -> DurableConfig {
    DurableConfig { dir: dir.to_path_buf(), policy: FsyncPolicy::Always, failpoints }
}

/// Arms exactly one firing of `point`.
fn one_shot(point: &'static str) -> (FailPoints, Arc<AtomicBool>, Arc<AtomicBool>) {
    let armed = Arc::new(AtomicBool::new(false));
    let fired = Arc::new(AtomicBool::new(false));
    let (a, f) = (Arc::clone(&armed), Arc::clone(&fired));
    let fp = FailPoints::new(move |p| {
        p == point && a.load(Ordering::SeqCst) && !f.swap(true, Ordering::SeqCst)
    });
    (fp, armed, fired)
}

/// Batches guaranteed recoverable after crashing at `point` while
/// processing batch `c` (0-based). The WAL contract: a batch is durable
/// iff its record reached the log file before the crash.
fn durable_count(point: &str, c: usize) -> usize {
    match point {
        // The record was never (fully) written: batch `c` is lost — and
        // was never acknowledged, so losing it is correct.
        "wal.append.before" | "wal.append.torn" => c,
        // The record is fully in the file (the failed fsync matters for
        // power loss, not process death) — recovering an unacknowledged
        // batch is allowed; losing an acknowledged one is not.
        "wal.fsync" | "wal.append.after" => c + 1,
        // Checkpoint-path crashes happen after batches 0..=c were logged
        // and applied: whichever snapshot survives the crash, snapshot +
        // idempotent WAL replay reconstructs all of them.
        _ => c + 1,
    }
}

/// Runs one (stream, crash point) trial: drive until the injected crash,
/// recover warm, resume the stream, diff against the reference.
fn run_trial(stream: &Stream, reference: &mut Engine, point: &'static str, trial_tag: &str) {
    let dir = tmpdir(trial_tag);
    let _ = std::fs::remove_dir_all(&dir);
    let (fp, armed, fired) = one_shot(point);
    let seed_graph = stream.base.clone();
    let (mut engine, mut dur, _) =
        Durability::open(durable_cfg(&dir, fp), move || Ok(engine_of(seed_graph)))
            .expect("fresh open");

    let c = (stream.batches.len() / 2).min(stream.batches.len() - 1);
    let ckpt_path = !point.starts_with("wal.append") && point != "wal.fsync";
    let mut crashed = false;
    for (j, (ins, rm)) in stream.batches.iter().enumerate() {
        if j == c && !ckpt_path {
            armed.store(true, Ordering::SeqCst);
            let err = dur.append(ins, rm).expect_err("armed append must crash");
            assert!(is_injected_crash(&err), "{point}: {err}");
            crashed = true;
            break;
        }
        dur.append(ins, rm).expect("append");
        engine.update(ins, rm);
        if j == c && ckpt_path {
            armed.store(true, Ordering::SeqCst);
            let err = dur.checkpoint(&engine).expect_err("armed checkpoint must crash");
            assert!(is_injected_crash(&err), "{point}: {err}");
            crashed = true;
            break;
        }
    }
    assert!(crashed && fired.load(Ordering::SeqCst), "{point}: crash point never fired");
    drop((engine, dur)); // the process "dies" here

    // Restart. A valid checkpoint exists, so recovery must be warm: the
    // fresh closure is poisoned, and adopted κ means zero peel time.
    let (mut rec, mut dur2, rep) = Durability::open(durable_cfg(&dir, FailPoints::none()), || {
        Err("unexpected cold start: a checkpoint exists".into())
    })
    .unwrap_or_else(|e| panic!("{point}: recovery failed: {e}"));
    let durable = durable_count(point, c);
    assert!(rep.snapshot_loaded && !rep.cold_start, "{point}: {rep:?}");
    assert_eq!(rep.replayed as usize, durable, "{point}: wrong replay count ({rep:?})");
    assert_eq!(rep.torn_bytes > 0, point == "wal.append.torn", "{point}: {rep:?}");
    for sp in rec.stats().spaces {
        assert_eq!(sp.peel_us, 0, "{point}: {} was re-peeled from scratch", sp.space);
    }

    // Resume the stream past the crash and diff against the reference.
    for (ins, rm) in &stream.batches[durable..] {
        dur2.append(ins, rm).expect("resumed append");
        rec.update(ins, rm);
    }
    assert_eq!(rec.graph().num_vertices(), reference.graph().num_vertices(), "{point}");
    assert_eq!(rec.graph().edges(), reference.graph().edges(), "{point}: graphs diverged");
    for &sel in SPACES {
        assert_eq!(
            rec.kappa_vector(sel).unwrap(),
            reference.kappa_vector(sel).unwrap(),
            "{point}: κ diverged in {sel:?}"
        );
        assert_forest_eq(rec.hierarchy_of(sel).unwrap(), reference.hierarchy_of(sel).unwrap());
    }
    // Peel both graphs from scratch: κ and peel order must match exactly
    // (the graphs are bit-equal, so this pins determinism of the peel
    // itself on the recovered bytes).
    let (ga, gb) = (rec.graph(), reference.graph());
    for &sel in SPACES {
        let (a, b) = match sel {
            SpaceSel::Core => (peel(&CoreSpace::new(ga)), peel(&CoreSpace::new(gb))),
            SpaceSel::Truss => {
                (peel(&TrussSpace::precomputed(ga)), peel(&TrussSpace::precomputed(gb)))
            }
            _ => (peel(&Nucleus34Space::precomputed(ga)), peel(&Nucleus34Space::precomputed(gb))),
        };
        assert_eq!(a.kappa, b.kappa, "{point}: peel κ diverged in {sel:?}");
        assert_eq!(a.order, b.order, "{point}: peel order diverged in {sel:?}");
        assert_eq!(a.max_kappa, b.max_kappa, "{point}: max κ diverged in {sel:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_crash_point_recovers_exactly_over_randomized_streams() {
    let streams = Config::with_cases(100).effective_cases();
    for i in 0..streams as u64 {
        let stream = random_stream(0xC0FF_EE00 + i);
        // The uninterrupted reference: same base, same batches, no crash.
        let mut reference = engine_of(stream.base.clone());
        for (ins, rm) in &stream.batches {
            reference.update(ins, rm);
        }
        for (pi, &point) in CRASH_POINTS.iter().enumerate() {
            run_trial(&stream, &mut reference, point, &format!("{i}_{pi}"));
        }
    }
}
