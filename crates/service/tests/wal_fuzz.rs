//! Byte-level corruption fuzzing for the persistence formats.
//!
//! Complements `crash_recovery.rs` (which injects crashes at controlled
//! points) with adversarial bytes: truncation at every offset, random
//! bit flips, and duplicated frames. The contract mirrors the JSON
//! parser's (`json_fuzz.rs`): for any mutated file the readers return
//! `Ok` with a **verified prefix** of the original records or a clean
//! `Err` — they never panic, never loop, and never fabricate a record
//! that was not appended.

use std::fs;
use std::path::PathBuf;

use hdsd_service::{
    read_wal, Durability, DurableConfig, Engine, EngineConfig, FailPoints, FsyncPolicy, WalRecord,
    WalWriter,
};
use proptest::splitmix64 as splitmix;

fn tmpfile(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdsd_walfuzz_{}_{tag}", std::process::id()))
}

type EdgeList = &'static [(u32, u32)];

/// A short WAL with varied record shapes (growth, removals, batches).
fn build_wal(path: &PathBuf) -> Vec<WalRecord> {
    let _ = fs::remove_file(path);
    let mut w = WalWriter::create(path, 7, FsyncPolicy::Always, FailPoints::none()).unwrap();
    let batches: &[(EdgeList, EdgeList)] = &[
        (&[(0, 1), (2, 3)], &[]),
        (&[(1, 9)], &[(0, 1)]),
        (&[], &[(2, 3), (4, 5)]),
        (&[(6, 7), (7, 8), (8, 9)], &[(1, 9)]),
    ];
    for (ins, rm) in batches {
        w.append(ins, rm).unwrap();
    }
    read_wal(path).unwrap().records
}

fn assert_is_prefix(got: &[WalRecord], original: &[WalRecord], what: &str) {
    assert!(got.len() <= original.len(), "{what}: more records than were written");
    for (g, o) in got.iter().zip(original) {
        assert_eq!(g.seq, o.seq, "{what}");
        assert_eq!(g.insert, o.insert, "{what}: insert list diverged at seq {}", o.seq);
        assert_eq!(g.remove, o.remove, "{what}: remove list diverged at seq {}", o.seq);
    }
}

#[test]
fn truncation_at_every_offset_yields_a_clean_prefix_or_error() {
    let path = tmpfile("trunc");
    let original = build_wal(&path);
    let full = fs::read(&path).unwrap();
    for cut in 0..full.len() {
        fs::write(&path, &full[..cut]).unwrap();
        match read_wal(&path) {
            // Shorter than a header, or a header cut mid-magic: a file we
            // never produce, so rejecting it loudly is correct.
            Err(_) => assert!(cut < 16, "valid header at cut {cut} must not hard-fail"),
            Ok(c) => {
                assert!(cut >= 16);
                assert_is_prefix(&c.records, &original, &format!("cut {cut}"));
                // Every byte is accounted for: valid frames + torn tail.
                assert!(c.records.len() < original.len() || c.torn_bytes == 0);
            }
        }
    }
    fs::remove_file(&path).ok();
}

#[test]
fn random_bit_flips_never_panic_and_never_fabricate_records() {
    let path = tmpfile("flips");
    let original = build_wal(&path);
    let full = fs::read(&path).unwrap();
    let mut rng = 0xBAD_C0DEu64;
    for trial in 0..500 {
        let mut bytes = full.clone();
        for _ in 0..(1 + splitmix(&mut rng) % 3) {
            let at = (splitmix(&mut rng) % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << (splitmix(&mut rng) % 8);
        }
        fs::write(&path, &bytes).unwrap();
        if let Ok(c) = read_wal(&path) {
            // Flips in the generation field change metadata, never record
            // content: anything returned is a checksum-verified prefix.
            assert_is_prefix(&c.records, &original, &format!("trial {trial}"));
        }
    }
    fs::remove_file(&path).ok();
}

#[test]
fn duplicated_tail_frame_is_dropped_by_sequence_check() {
    let path = tmpfile("dup");
    let original = build_wal(&path);
    let full = fs::read(&path).unwrap();
    // Re-append the last frame verbatim: its checksum is fine, but its
    // sequence number repeats — replaying it twice could double-apply a
    // batch under semantics less forgiving than set-merge, so the reader
    // must stop at the break instead of trusting it.
    let last_frame_start = {
        let mut offsets = vec![];
        let mut at = 16usize;
        while at + 8 <= full.len() {
            let len = u32::from_le_bytes(full[at..at + 4].try_into().unwrap()) as usize;
            offsets.push(at);
            at += 8 + len;
        }
        *offsets.last().unwrap()
    };
    let mut bytes = full.clone();
    bytes.extend_from_slice(&full[last_frame_start..]);
    fs::write(&path, &bytes).unwrap();
    let c = read_wal(&path).unwrap();
    assert_eq!(c.records.len(), original.len(), "originals must all survive");
    assert_is_prefix(&c.records, &original, "duplicated tail");
    assert!(c.torn_bytes > 0, "the duplicate must be reported as dropped tail bytes");
    fs::remove_file(&path).ok();
}

#[test]
fn truncated_snapshots_fail_recovery_loudly_at_every_sampled_offset() {
    let dir = std::env::temp_dir().join(format!("hdsd_walfuzz_snap_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cfg = || DurableConfig {
        dir: dir.clone(),
        policy: FsyncPolicy::Always,
        failpoints: FailPoints::none(),
    };
    let fresh = || {
        Ok(Engine::new(
            hdsd_datasets::holme_kim(30, 2, 0.4, 5),
            &EngineConfig { spaces: vec![hdsd_service::SpaceSel::Core] },
        ))
    };
    let (_e, _d, _) = Durability::open(cfg(), fresh).unwrap();
    drop((_e, _d));
    let snap_path = dir.join(hdsd_service::SNAPSHOT_FILE);
    let full = fs::read(&snap_path).unwrap();
    // Every truncation is a torn checkpoint the rename discipline can
    // never produce — recovery must refuse (no panic, no silent cold
    // start), because serving from a half-read snapshot would be serving
    // wrong κ. Sampled stride keeps the sweep fast; endpoints included.
    let mut cuts: Vec<usize> = (0..full.len()).step_by(17).collect();
    cuts.push(full.len() - 1);
    for cut in cuts {
        fs::write(&snap_path, &full[..cut]).unwrap();
        let err =
            Durability::open(cfg(), || Err("must not cold start over a corrupt snapshot".into()))
                .err()
                .unwrap_or_else(|| panic!("truncation at {cut} was accepted"));
        assert!(err.contains("snapshot"), "cut {cut}: {err}");
    }
    fs::remove_dir_all(&dir).ok();
}
