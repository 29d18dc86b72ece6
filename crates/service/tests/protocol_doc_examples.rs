//! Executes every example in `docs/PROTOCOL.md` against a live engine.
//!
//! The document is the normative protocol spec; this test is what makes
//! it normative. Every ` ```jsonl ` fenced block is replayed in document
//! order — `→ ` lines are sent through [`Server::handle_line`], `← `
//! lines are asserted against the actual response. Key sets and values
//! must match exactly except for a small closed set of volatile keys
//! (timings, byte counts, filesystem paths). Blocks fenced
//! ` ```jsonl durable ` run against a server opened over a fresh
//! durability directory; ` ```jsonl no-test ` blocks are skipped.
//!
//! If this test fails after a protocol change, the spec and the code
//! disagree: fix whichever is wrong, deliberately.

use std::path::PathBuf;

use hdsd_service::{
    Durability, DurableConfig, Engine, EngineConfig, FailPoints, FsyncPolicy, Json, Server,
    SpaceSel,
};

fn demo_graph() -> hdsd_graph::CsrGraph {
    hdsd_graph::graph_from_edges([
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 4),
        (2, 5),
        (3, 4),
        (3, 5),
        (4, 5),
        (5, 6),
    ])
}

/// A volatile key: present and type-checked in spirit, but its value
/// (and only its value) varies run to run. Kept in sync with the
/// harness note at the top of docs/PROTOCOL.md.
fn volatile(key: &str) -> bool {
    key.ends_with("micros")
        || matches!(
            key,
            "uptime_seconds" | "path" | "bytes" | "snapshot_bytes" | "wal_bytes_truncated"
        )
}

/// Structural equality with volatile object values skipped. Key sets
/// must match exactly — a key the spec shows must be on the wire, and a
/// key on the wire must be in the spec.
fn matches(expected: &Json, actual: &Json, at: &str, errs: &mut Vec<String>) {
    match (expected, actual) {
        (Json::Obj(e), Json::Obj(a)) => {
            for (k, ev) in e {
                match a.iter().find(|(ak, _)| ak == k) {
                    None => errs.push(format!("{at}.{k}: in spec, missing on the wire")),
                    Some((_, av)) if volatile(k) => {
                        // Value ignored, but null vs number vs object is
                        // still a shape difference worth catching.
                        if std::mem::discriminant(ev) != std::mem::discriminant(av) {
                            errs.push(format!("{at}.{k}: volatile key changed JSON type"));
                        }
                    }
                    Some((_, av)) => matches(ev, av, &format!("{at}.{k}"), errs),
                }
            }
            for (k, _) in a {
                if !e.iter().any(|(ek, _)| ek == k) {
                    errs.push(format!("{at}.{k}: on the wire, missing from spec"));
                }
            }
        }
        (Json::Arr(e), Json::Arr(a)) => {
            if e.len() != a.len() {
                errs.push(format!("{at}: spec has {} elements, wire has {}", e.len(), a.len()));
                return;
            }
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                matches(ev, av, &format!("{at}[{i}]"), errs);
            }
        }
        _ => {
            if expected != actual {
                errs.push(format!("{at}: spec {expected} != wire {actual}"));
            }
        }
    }
}

struct Example {
    line_no: usize,
    request: String,
    expected: Json,
}

/// (mode, examples) per testable fenced block, in document order.
fn extract_blocks(md: &str) -> Vec<(String, Vec<Example>)> {
    let mut blocks = Vec::new();
    let mut current: Option<(String, Vec<Example>)> = None;
    let mut pending_request: Option<(usize, String)> = None;
    for (i, line) in md.lines().enumerate() {
        let line_no = i + 1;
        if let Some(info) = line.trim().strip_prefix("```") {
            match current.take() {
                None => {
                    let info = info.trim();
                    if info == "jsonl" || info == "jsonl durable" {
                        current = Some((info.to_string(), Vec::new()));
                    } else if !info.starts_with("jsonl") && info.contains("json") {
                        panic!("PROTOCOL.md:{line_no}: examples must be fenced jsonl: {info:?}");
                    }
                }
                Some(block) => {
                    assert!(
                        pending_request.is_none(),
                        "PROTOCOL.md:{line_no}: block ended with an unanswered request"
                    );
                    blocks.push(block);
                }
            }
            continue;
        }
        let Some((_, examples)) = current.as_mut() else { continue };
        if let Some(req) = line.strip_prefix("→ ") {
            assert!(
                pending_request.is_none(),
                "PROTOCOL.md:{line_no}: two requests without a response between them"
            );
            pending_request = Some((line_no, req.trim().to_string()));
        } else if let Some(resp) = line.strip_prefix("← ") {
            let (line_no, request) = pending_request.take().unwrap_or_else(|| {
                panic!("PROTOCOL.md:{line_no}: response with no preceding request")
            });
            let expected = Json::parse(resp.trim())
                .unwrap_or_else(|e| panic!("PROTOCOL.md:{line_no}: bad expected JSON: {e}"));
            examples.push(Example { line_no, request, expected });
        } else if !line.trim().is_empty() {
            panic!("PROTOCOL.md:{line_no}: jsonl blocks hold only → / ← lines: {line:?}");
        }
    }
    assert!(current.is_none(), "PROTOCOL.md: unterminated fenced block");
    blocks
}

fn replay(server: &mut Server, examples: &[Example], save_path: &str) {
    for ex in examples {
        let request = ex.request.replace("<save_path>", save_path);
        let h = server.handle_line(&request);
        let actual = Json::parse(&h.response)
            .unwrap_or_else(|e| panic!("PROTOCOL.md:{}: response not JSON: {e}", ex.line_no));
        let mut errs = Vec::new();
        matches(&ex.expected, &actual, "$", &mut errs);
        assert!(
            errs.is_empty(),
            "PROTOCOL.md:{} — the documented example disagrees with the live engine:\n  \
             request: {request}\n  wire:    {}\n  {}",
            ex.line_no,
            h.response,
            errs.join("\n  ")
        );
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdsd_protodoc_{}_{tag}", std::process::id()))
}

#[test]
fn every_example_in_protocol_md_runs_verbatim() {
    let md_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    let md = std::fs::read_to_string(md_path).expect("docs/PROTOCOL.md exists");
    let blocks = extract_blocks(&md);
    assert!(
        blocks.iter().any(|(m, _)| m == "jsonl")
            && blocks.iter().any(|(m, _)| m == "jsonl durable"),
        "PROTOCOL.md lost its testable examples"
    );

    // Default-mode blocks share one server, in document order, exactly
    // like one client session reading the spec top to bottom.
    let cfg = EngineConfig { spaces: vec![SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] };
    let mut plain = Server::new(Engine::new(demo_graph(), &cfg));

    // Durable blocks share a durable server over a fresh directory.
    let dir = tmpdir("durable");
    let _ = std::fs::remove_dir_all(&dir);
    let dcfg = DurableConfig {
        dir: dir.clone(),
        policy: FsyncPolicy::Always,
        failpoints: FailPoints::none(),
    };
    let (engine, dur, _) = Durability::open(dcfg, || {
        let cfg = EngineConfig { spaces: vec![SpaceSel::Core] };
        Ok(Engine::new(demo_graph(), &cfg))
    })
    .expect("open durability dir");
    let mut durable = Server::with_durability(engine, dur);
    let save_path = tmpdir("save.bin");

    for (mode, examples) in &blocks {
        match mode.as_str() {
            "jsonl" => replay(&mut plain, examples, &save_path.to_string_lossy()),
            "jsonl durable" => replay(&mut durable, examples, &save_path.to_string_lossy()),
            other => panic!("unknown block mode {other:?}"),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&save_path);
}
