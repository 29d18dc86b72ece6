//! Concurrency proof for epoch-published serving (PR 8 tentpole).
//!
//! Two claims get tested here, not just exercised:
//!
//! 1. **Bit-identical epoch reads** — N reader threads hammering
//!    [`EpochReader::pin`] while one writer churns updates only ever see
//!    views whose full κ contents hash exactly to what the writer
//!    recorded for that epoch *before* publishing it. A reader can lag,
//!    but it can never observe a torn, blended, or mutated-in-place view.
//! 2. **Publish/pin linearization** — a seeded interleaving test drives
//!    an [`EpochCell`] through deterministic publish/pin schedules and
//!    asserts the version counter is monotone and every pinned pair is
//!    one the writer actually published.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use hdsd_service::engine::EngineView;
use hdsd_service::{Engine, EngineConfig, EpochCell, SpaceSel};

/// FNV-1a over every κ value of every resident space plus the edge
/// count: any single changed bit anywhere in the served state changes
/// the digest.
fn view_digest(view: &EngineView) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(view.graph().num_edges() as u64);
    for sel in view.spaces() {
        let kappa = view.kappa_vector(sel).expect("resident space");
        mix(kappa.len() as u64);
        for &k in kappa {
            mix(u64::from(k));
        }
    }
    h
}

fn test_engine() -> Engine {
    let graph = hdsd_datasets::holme_kim(400, 4, 0.4, 11);
    let cfg = EngineConfig { spaces: vec![SpaceSel::Core, SpaceSel::Truss] };
    Engine::new(graph, &cfg)
}

/// Deterministic per-round edge batch against a 400-vertex graph: a
/// small clique-ish insert plus a removal of the previous round's batch,
/// so κ genuinely moves every epoch.
fn round_batch(round: u64) -> Vec<(u32, u32)> {
    let base = 400 + (round % 16) as u32 * 4;
    vec![(base, base + 1), (base, base + 2), (base + 1, base + 2), (base % 100, base + 1)]
}

#[test]
fn n_readers_one_writer_see_bit_identical_epochs() {
    const READERS: usize = 4;
    const ROUNDS: u64 = 40;

    let mut engine = test_engine();
    let cell = Arc::new(EpochCell::new(engine.view()));
    // Epoch → digest, recorded by the writer strictly before publishing
    // that epoch. Readers must find every version they pin in here.
    let digests: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    digests.lock().unwrap().insert(0, view_digest(&engine.view()));
    let done = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for r in 0..READERS {
        let mut reader = cell.reader();
        let digests = Arc::clone(&digests);
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let mut last_version = 0u64;
            let mut pins = 0u64;
            while !done.load(Ordering::SeqCst) {
                let (view, version) = reader.pin();
                assert!(
                    version >= last_version,
                    "reader {r}: epoch went backwards ({last_version} -> {version})"
                );
                last_version = version;
                let got = view_digest(view);
                let want = *digests
                    .lock()
                    .unwrap()
                    .get(&version)
                    .unwrap_or_else(|| panic!("reader {r} pinned unpublished epoch {version}"));
                assert_eq!(
                    got, want,
                    "reader {r}: epoch {version} read back different bits than published"
                );
                pins += 1;
            }
            pins
        }));
    }

    let mut prev: Vec<(u32, u32)> = Vec::new();
    for round in 0..ROUNDS {
        let insert = round_batch(round);
        engine.update(&insert, &prev);
        prev = insert;
        let next = engine.view();
        let digest = view_digest(&next);
        {
            // Record under the *next* version before anyone can pin it.
            let mut map = digests.lock().unwrap();
            map.insert(cell.version() + 1, digest);
        }
        cell.publish(next);
    }
    done.store(true, Ordering::SeqCst);

    let total_pins: u64 = readers.into_iter().map(|t| t.join().expect("reader panicked")).sum();
    assert!(total_pins > 0, "readers never ran");
    assert_eq!(cell.version(), ROUNDS, "one publish per round");
}

/// Tiny deterministic PRNG (xorshift64*) so the interleavings are
/// reproducible from the printed seed.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

#[test]
fn seeded_interleavings_of_publish_and_pin_linearize() {
    // The payload stamps its own generation: element 0 is the version the
    // writer expects publish() to return, and every element must agree —
    // a torn read would surface as a mixed vector.
    for seed in [3u64, 0x5eed, 0xdead_beef, 0x0123_4567_89ab_cdef] {
        let mut rng = Rng(seed);
        let cell = Arc::new(EpochCell::new(Arc::new(vec![0u64; 32])));
        let mut readers: Vec<_> = (0..3).map(|_| cell.reader()).collect();
        let mut published = 0u64;
        let mut reader_versions = vec![0u64; readers.len()];
        for step in 0..2000 {
            match rng.next() % 4 {
                0 => {
                    let next_version = published + 1;
                    let got = cell.publish(Arc::new(vec![next_version; 32]));
                    assert_eq!(got, next_version, "seed {seed:#x} step {step}: publish version");
                    published = next_version;
                }
                n => {
                    let r = (n as usize - 1) % readers.len();
                    let (data, version) = readers[r].pin();
                    assert_eq!(
                        version, published,
                        "seed {seed:#x} step {step}: single-threaded pin must be current"
                    );
                    assert!(data.iter().all(|&g| g == version), "seed {seed:#x}: torn payload");
                    assert!(version >= reader_versions[r], "seed {seed:#x}: version regressed");
                    reader_versions[r] = version;
                    assert_eq!(readers[r].pinned_version(), version);
                    assert_eq!(readers[r].lag(), 0, "just pinned: no lag");
                }
            }
        }
        // Lag is visible without pinning: publish once more and ask.
        cell.publish(Arc::new(vec![published + 1; 32]));
        for r in &readers {
            assert_eq!(r.lag(), published + 1 - r.pinned_version());
        }
    }
}
