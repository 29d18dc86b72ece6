//! In-process reference answers and the correctness oracles. A wrong
//! answer fails the run; it is never counted as a failed request.

use std::collections::HashMap;
use std::path::Path;

use hdsd_graph::{CsrGraph, TriangleList};
use hdsd_nucleus::{
    assert_forest_eq, build_hierarchy, peel, read_snapshot, CachedSpace, CliqueSpace, CoreSpace,
    Hierarchy, Nucleus34Space, TrussSpace,
};
use hdsd_service::Json;

use crate::client::{fnv1a, Sample};
use crate::trace::Tracer;
use crate::workload::{Req, SPACES};

/// One space decomposed from scratch: cold `peel` plus `build_hierarchy`.
pub struct SpaceRef {
    pub cached: CachedSpace,
    pub kappa: Vec<u32>,
    pub max_kappa: u32,
    pub containers_scanned: u64,
    pub forest: Hierarchy,
    /// Clique → hierarchy node (`u32::MAX` outside every nucleus).
    pub node_of: Vec<u32>,
    /// Cliques inside some nucleus: the analytics region targets.
    pub in_nucleus: Vec<u32>,
}

/// The reference decomposition of one graph in all three spaces.
pub struct Reference {
    pub graph: CsrGraph,
    pub spaces: Vec<SpaceRef>,
}

impl Reference {
    /// Decomposes `graph` from scratch, recording a span per layer call
    /// (names start with `prefix`) under `request`.
    pub fn build(graph: CsrGraph, tracer: &mut Tracer, prefix: &str, request: u64) -> Reference {
        let tl = tracer.span(format!("{prefix}graph.triangles"), None, request, || {
            TriangleList::build(&graph)
        });
        let mut spaces = Vec::with_capacity(3);
        for (i, name) in SPACES.iter().enumerate() {
            let cached =
                tracer.span(format!("{prefix}space.build.{name}"), None, request, || match i {
                    0 => CachedSpace::build(&CoreSpace::new(&graph)),
                    1 => CachedSpace::build(&TrussSpace::with_triangles(&graph, &tl)),
                    _ => CachedSpace::build(&Nucleus34Space::with_triangles(&graph, &tl)),
                });
            let pr = tracer.span(format!("{prefix}peel.{name}"), None, request, || peel(&cached));
            let forest =
                tracer.span(format!("{prefix}hierarchy.build.{name}"), None, request, || {
                    build_hierarchy(&cached, &pr.kappa)
                });
            let node_of = forest.clique_to_node(cached.num_cliques());
            let in_nucleus =
                (0..node_of.len() as u32).filter(|&c| node_of[c as usize] != u32::MAX).collect();
            spaces.push(SpaceRef {
                max_kappa: pr.max_kappa,
                containers_scanned: pr.stats.containers_scanned,
                kappa: pr.kappa,
                cached,
                forest,
                node_of,
                in_nucleus,
            });
        }
        Reference { graph, spaces }
    }
}

/// What a reply counts as once it has passed the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Answered under brownout with a Theorem-1 interval that holds.
    Degraded,
    /// `ok:false` (including `overloaded` sheds) or never answered.
    Failed,
}

fn num(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("reply lacks integer {key:?}"))
}

fn digest(vertices: &[u32]) -> String {
    let list = vertices.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    format!("#{:016x}", fnv1a(list.as_bytes()))
}

/// Checks replies against a [`Reference`]; region answers are memoized
/// per hierarchy node.
pub struct Oracle<'a> {
    r: &'a Reference,
    regions: HashMap<(usize, u32), (u64, u64, String)>,
}

impl<'a> Oracle<'a> {
    pub fn new(r: &'a Reference) -> Oracle<'a> {
        Oracle { r, regions: HashMap::new() }
    }

    /// Parses a reply into its verdict without checking the answer (the
    /// churn reads, whose reference changes every epoch).
    pub fn shape(s: &Sample) -> Result<(Verdict, Option<Json>), String> {
        if s.done.is_none() {
            return Ok((Verdict::Failed, None));
        }
        let v =
            Json::parse(&s.reply).map_err(|e| format!("unparseable reply {:?}: {e}", s.reply))?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {
                let degraded = v.get("degraded").and_then(Json::as_bool) == Some(true);
                Ok((if degraded { Verdict::Degraded } else { Verdict::Ok }, Some(v)))
            }
            Some(false) => Ok((Verdict::Failed, None)),
            None => Err(format!("reply without \"ok\": {}", s.reply)),
        }
    }

    /// Checks one reply; `Err` is a wrong answer.
    pub fn check(&mut self, s: &Sample) -> Result<Verdict, String> {
        let (verdict, v) = Self::shape(s)?;
        let Some(v) = v else { return Ok(verdict) };
        let wrong = |what: String| Err(format!("{}: {what} (reply {})", s.req.op(), s.reply));
        if verdict == Verdict::Degraded {
            // A brownout answer: only the Theorem-1 interval is promised.
            let (space, id) = match s.req {
                Req::Kappa { space, id, .. }
                | Req::Estimate { space, id }
                | Req::Region { space, id, .. } => (space, id),
                _ => return wrong("degraded reply to an op that never degrades".into()),
            };
            let kappa = u64::from(self.r.spaces[space].kappa[id as usize]);
            let (lo, hi) = (num(&v, "lower")?, num(&v, "estimate")?);
            return if lo <= kappa && kappa <= hi {
                Ok(verdict)
            } else {
                wrong(format!("interval [{lo}, {hi}] misses κ = {kappa}"))
            };
        }
        match s.req {
            Req::Kappa { space, id, .. } => {
                let sp = &self.r.spaces[space];
                let expect = sp.kappa[id as usize];
                let (got_id, got) = (num(&v, "id")?, num(&v, "kappa")?);
                if got_id != u64::from(id) || got != u64::from(expect) {
                    return wrong(format!("expected id {id} with κ {expect}"));
                }
                let vs = v.get("vertices").and_then(Json::as_str).unwrap_or("");
                if vs != digest(sp.cached.clique_vertices(id as usize)) {
                    return wrong(format!("vertices of clique {id} differ"));
                }
            }
            Req::Estimate { space, id } => {
                let kappa = u64::from(self.r.spaces[space].kappa[id as usize]);
                let (lo, hi) = (num(&v, "lower")?, num(&v, "estimate")?);
                if !(lo <= kappa && kappa <= hi) {
                    return wrong(format!("interval [{lo}, {hi}] misses κ = {kappa}"));
                }
            }
            Req::Region { space, id, .. } => {
                let sp = &self.r.spaces[space];
                let node = sp.node_of[id as usize];
                let (k, size, vs) = self.regions.entry((space, node)).or_insert_with(|| {
                    let n = &sp.forest.nodes[node as usize];
                    (
                        u64::from(n.k),
                        n.size as u64,
                        digest(&sp.forest.member_vertices(node, &sp.cached)),
                    )
                });
                let got_vs = v.get("vertices").and_then(Json::as_str).unwrap_or("");
                if num(&v, "k")? != *k || num(&v, "size")? != *size || got_vs != vs {
                    return wrong(format!("expected node with k {k}, size {size}, vertices {vs}"));
                }
            }
            Req::Nuclei { space, k } => {
                let f = &self.r.spaces[space].forest;
                let mut sizes: Vec<u64> =
                    f.nuclei_at(k).iter().map(|&n| f.nodes[n as usize].size as u64).collect();
                sizes.sort_unstable_by(|a, b| b.cmp(a));
                let listed = v.get("nuclei").and_then(Json::as_array).unwrap_or(&[]);
                let mut got: Vec<u64> =
                    listed.iter().filter_map(|n| n.get("size").and_then(Json::as_u64)).collect();
                got.sort_unstable_by(|a, b| b.cmp(a));
                sizes.truncate(got.len());
                if num(&v, "total")? as usize != f.nuclei_at(k).len() || got != sizes {
                    return wrong(format!("expected {} nuclei at k {k}", f.nuclei_at(k).len()));
                }
            }
            Req::Update => {}
        }
        Ok(verdict)
    }
}

/// The churn end-state oracle: the server's saved snapshot must hold the
/// edge set the benchmark tracked, κ bit-identical to a cold `peel` of
/// it in every space, and forests equal to `build_hierarchy`.
pub fn check_snapshot(path: &Path, tracked: &Reference) -> Result<(), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open snapshot: {e}"))?;
    let snap = read_snapshot(&mut std::io::BufReader::new(file))
        .map_err(|e| format!("read snapshot: {e}"))?;
    if snap.graph.edges() != tracked.graph.edges() {
        return Err(format!(
            "snapshot graph has {} edges; the tracked edge set has {}",
            snap.graph.num_edges(),
            tracked.graph.num_edges()
        ));
    }
    if snap.spaces.len() != tracked.spaces.len() {
        return Err(format!("snapshot has {} spaces", snap.spaces.len()));
    }
    for (i, (got, want)) in snap.spaces.iter().zip(&tracked.spaces).enumerate() {
        if *got.kappa != want.kappa {
            let at = got.kappa.iter().zip(&want.kappa).position(|(a, b)| a != b);
            return Err(format!("{} κ differs from a cold peel (first at {at:?})", SPACES[i]));
        }
        let forest = got.hierarchy.as_ref().ok_or(format!("{} forest missing", SPACES[i]))?;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_forest_eq(forest, &want.forest)
        }))
        .map_err(|_| format!("{} forest differs from build_hierarchy", SPACES[i]))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::kappa_line;
    use hdsd_nucleus::write_snapshot;
    use hdsd_service::{Engine, EngineConfig, Server, SpaceSel};
    use std::sync::Arc;
    use std::time::Instant;

    fn fixture() -> (Reference, Server) {
        let g = hdsd_datasets::holme_kim(300, 4, 0.5, 11);
        let cfg = EngineConfig {
            spaces: vec![SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34],
            ..EngineConfig::default()
        };
        let server = Server::new(Engine::new(g.clone(), &cfg));
        (Reference::build(g, &mut Tracer::new(false), "", 0), server)
    }

    fn sample(req: Req, reply: &str) -> Sample {
        let t = Instant::now();
        Sample {
            req,
            due: t,
            sent: t,
            done: Some(t),
            reply_bytes: reply.len(),
            reply: crate::client::compact_reply(reply),
        }
    }

    #[test]
    fn true_answers_pass_and_one_altered_kappa_fails() {
        let (r, mut server) = fixture();
        let mut oracle = Oracle::new(&r);
        for space in 0..3 {
            for id in [0u32, 7, 42] {
                for by_vertices in [false, true] {
                    let reply =
                        server.handle_line(&kappa_line(&r, space, id, by_vertices)).response;
                    let s = sample(Req::Kappa { space, id, by_vertices }, &reply);
                    assert_eq!(oracle.check(&s), Ok(Verdict::Ok), "{reply}");
                }
            }
        }
        // The same reply with κ off by one is a wrong answer, not a failure.
        let reply = server.handle_line(&kappa_line(&r, 1, 7, false)).response;
        let k = r.spaces[1].kappa[7];
        let altered = reply.replace(&format!("\"kappa\":{k}"), &format!("\"kappa\":{}", k + 1));
        assert_ne!(altered, reply);
        let err = oracle
            .check(&sample(Req::Kappa { space: 1, id: 7, by_vertices: false }, &altered))
            .unwrap_err();
        assert!(err.contains("κ"), "{err}");
        // A refusal is a failed request, not a wrong answer.
        let refused = r#"{"ok":false,"error":"overloaded","retry_after_ms":25,"micros":0}"#;
        assert_eq!(
            oracle.check(&sample(Req::Kappa { space: 0, id: 0, by_vertices: false }, refused)),
            Ok(Verdict::Failed)
        );
    }

    #[test]
    fn region_and_nuclei_replies_match_the_reference_forest() {
        let (r, mut server) = fixture();
        let mut oracle = Oracle::new(&r);
        for space in 0..3 {
            let id = r.spaces[space].in_nucleus[0];
            let reply =
                server.handle_line(&crate::workload::region_line(&r, space, id, false)).response;
            assert_eq!(
                oracle.check(&sample(Req::Region { space, id, by_vertices: false }, &reply)),
                Ok(Verdict::Ok)
            );
            let k = r.spaces[space].max_kappa;
            let reply = server.handle_line(&crate::workload::nuclei_line(space, k)).response;
            assert_eq!(oracle.check(&sample(Req::Nuclei { space, k }, &reply)), Ok(Verdict::Ok));
        }
    }

    #[test]
    fn snapshot_oracle_rejects_one_altered_kappa() {
        let (r, _) = fixture();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("oracle-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = EngineConfig {
            spaces: vec![SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34],
            ..EngineConfig::default()
        };
        let engine = Engine::new(r.graph.clone(), &cfg);
        let write = |snap: &hdsd_nucleus::Snapshot, name: &str| {
            let path = dir.join(name);
            let mut f = std::fs::File::create(&path).unwrap();
            write_snapshot(snap, &mut f).unwrap();
            path
        };
        let good = write(&engine.to_snapshot(), "good.snap");
        assert_eq!(check_snapshot(&good, &r), Ok(()));
        let mut snap = engine.to_snapshot();
        let mut kappa = (*snap.spaces[2].kappa).clone();
        kappa[0] += 1;
        snap.spaces[2].kappa = Arc::new(kappa);
        let bad = write(&snap, "bad.snap");
        let err = check_snapshot(&bad, &r).unwrap_err();
        assert!(err.contains("nucleus34 κ differs"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
