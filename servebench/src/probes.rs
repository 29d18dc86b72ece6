//! Per-layer probes for the traced run. Each probe calls one layer's
//! public entry point in this process, on the same inputs the TCP run
//! used, inside a benchmark-side span. Together with the set-up probes
//! (`read_edge_list`, `peel`, `build_hierarchy`), only entry points
//! expected to outlive refactors are called: `Server::handle_line`,
//! `Json::parse`, `Engine::new`, `EngineView` reads, `WalWriter` and
//! `EpochCell`.

use std::path::Path;
use std::sync::Arc;

use hdsd_nucleus::QueryOptions;
use hdsd_service::{
    Engine, EngineConfig, EngineView, EpochCell, FailPoints, FsyncPolicy, Json, Server, SpaceSel,
    WalWriter,
};

use crate::oracle::Reference;
use crate::trace::Tracer;
use crate::workload::{Batch, Req, ESTIMATE_BUDGET, ESTIMATE_ITERATIONS};

/// Requests replayed per op; evenly spaced over the run.
const SAMPLES_PER_OP: usize = 300;
/// Update batches replayed through `handle_line`.
const UPDATE_REPLAYS: usize = 16;
/// Update batches replayed through the WAL.
const WAL_REPLAYS: usize = 100;
/// Epoch publishes timed.
const PUBLISHES: usize = 2000;

const SELS: [SpaceSel; 3] = [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34];

fn config() -> EngineConfig {
    EngineConfig { spaces: SELS.to_vec(), ..EngineConfig::default() }
}

/// Every `len / n`-th index, at most `n` of them.
fn spaced(len: usize, n: usize) -> impl Iterator<Item = usize> {
    let step = len.div_ceil(n.max(1)).max(1);
    (0..len).step_by(step)
}

/// Replays a spread of the run's requests through `Json::parse`,
/// `Server::handle_line` and the matching `EngineView` read, each in a
/// span under one request id; then the first update batches through
/// `handle_line`. Returns the replay engine's first epoch and every
/// replayed request with its in-process reply.
pub fn protocol_and_engine(
    r: &Reference,
    reads: &[&Req],
    batches: &[Batch],
    tracer: &mut Tracer,
) -> (Arc<EngineView>, Vec<(&'static str, String)>) {
    let engine = tracer.span("engine.new", None, 0, || Engine::new(r.graph.clone(), &config()));
    let view = engine.view();
    let mut server = Server::new(engine);
    // The TCP server's hierarchies were resident from set-up on; match it.
    for sel in SELS {
        view.nuclei_at(sel, 1).expect("resident space");
    }
    let mut replies = Vec::new();
    for op in ["kappa", "estimate", "region", "nuclei"] {
        let of_op: Vec<&Req> = reads.iter().copied().filter(|q| q.op() == op).collect();
        for i in spaced(of_op.len(), SAMPLES_PER_OP) {
            let req = of_op[i];
            let line = &req.line(r).expect("a read has a line");
            let request = 1_000_000 + replies.len() as u64;
            let parent = tracer.open("probe.request", request);
            tracer.span("json.parse", parent, request, || Json::parse(line).expect("request JSON"));
            let h = tracer.span(format!("protocol.handle_line.{op}"), parent, request, || {
                server.handle_line(line)
            });
            replies.push((op, h.response));
            let name = format!("engine.{op}");
            tracer.span(name, parent, request, || match *req {
                Req::Kappa { space, id, .. } => {
                    let k = view.kappa_of(SELS[space], id as usize);
                    (k.is_ok() && view.clique_vertices(SELS[space], id as usize).is_ok()) as usize
                }
                Req::Estimate { space, id } => {
                    let opts = QueryOptions {
                        iterations: ESTIMATE_ITERATIONS as usize,
                        budget: Some(ESTIMATE_BUDGET as usize),
                        lower_bound: true,
                        deadline: None,
                    };
                    view.estimate(SELS[space], id as usize, &opts).map_or(0, |e| e.explored)
                }
                Req::Region { space, id, .. } => {
                    view.region_of(SELS[space], id as usize).map_or(0, |rr| rr.vertices.len())
                }
                Req::Nuclei { space, k } => view.nuclei_at(SELS[space], k).map_or(0, |n| n.len()),
                Req::Update => 0,
            });
            tracer.close(parent);
        }
    }
    for (i, b) in batches.iter().take(UPDATE_REPLAYS).enumerate() {
        let line = b.line();
        let request = 2_000_000 + i as u64;
        let parent = tracer.open("probe.request", request);
        tracer.span("json.parse", parent, request, || Json::parse(&line).expect("update JSON"));
        let h = tracer
            .span("protocol.handle_line.update", parent, request, || server.handle_line(&line));
        assert!(h.response.starts_with("{\"ok\":true"), "replayed update failed: {}", h.response);
        tracer.close(parent);
        replies.push(("update", h.response));
    }
    (view, replies)
}

/// WAL cost of the run's batch stream: `append` (the framed write) and
/// `sync` (the fsync) timed separately — together, what `--fsync always`
/// pays per batch. Returns bytes appended per batch.
pub fn wal(batches: &[Batch], dir: &Path, tracer: &mut Tracer) -> Result<f64, String> {
    let path = dir.join("probe.wal");
    let mut w = WalWriter::create(&path, 1, FsyncPolicy::Off, FailPoints::none())
        .map_err(|e| format!("create probe WAL: {e}"))?;
    let before = w.stats().bytes;
    let n = batches.len().min(WAL_REPLAYS);
    for (i, b) in batches.iter().take(n).enumerate() {
        let request = 3_000_000 + i as u64;
        tracer
            .span("wal.append", None, request, || w.append(&b.insert, &b.remove))
            .map_err(|e| format!("WAL append: {e}"))?;
        tracer
            .span("wal.sync", None, request, || w.sync("probe"))
            .map_err(|e| format!("WAL sync: {e}"))?;
    }
    let bytes = w.stats().bytes - before;
    drop(w);
    let _ = std::fs::remove_file(&path);
    Ok(if n == 0 { 0.0 } else { bytes as f64 / n as f64 })
}

/// `EpochCell::publish` of a resident engine view.
pub fn epoch(view: &Arc<EngineView>, tracer: &mut Tracer) {
    let cell = EpochCell::new(Arc::clone(view));
    for i in 0..PUBLISHES {
        let next = Arc::clone(view);
        tracer.span("epoch.publish", None, 4_000_000 + i as u64, || cell.publish(next));
    }
}
