//! Seeded inputs: the workload graphs, request mixes and the churn
//! writer's update batches. Everything here is a function of `--seed`.

use std::collections::{HashMap, HashSet};

use hdsd_graph::{CsrGraph, GraphBuilder, VertexId};

use crate::oracle::Reference;

/// The three named workloads (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Analytics,
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "analytics" => Some(Workload::Analytics),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Analytics => "analytics",
            Workload::Churn => "churn",
        }
    }

    /// Holme–Kim parameters `(n, m, p)` and the share of edges kept.
    pub fn graph_params(self) -> (u32, u32, f64, f64) {
        match self {
            Workload::Lookup | Workload::Analytics => (20_000, 8, 0.5, 1.0),
            // The service-bench graph: ~72k edges after thinning.
            Workload::Churn => (20_000, 6, 0.4, 0.6),
        }
    }

    /// The workload's input graph for `seed`.
    pub fn graph(self, seed: u64) -> CsrGraph {
        let (n, m, p, keep) = self.graph_params();
        let g = hdsd_datasets::holme_kim(n, m, p, seed);
        if keep < 1.0 {
            hdsd_datasets::thin_edges(&g, keep, seed ^ 0x7468_696e)
        } else {
            g
        }
    }
}

/// SplitMix64: a small, seedable, dependency-free generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Protocol names of the three resident spaces, indexed as in
/// [`Reference`].
pub const SPACES: [&str; 3] = ["core", "truss", "nucleus34"];

/// `estimate` parameters of the analytics mix.
pub const ESTIMATE_ITERATIONS: u32 = 3;
pub const ESTIMATE_BUDGET: u32 = 1024;

/// Region replies carry every member vertex, so rendering a large
/// nucleus is part of the measured work.
const REGION_MAX_VERTICES: u32 = 1 << 30;

/// One request as generated; the oracle checks replies against it.
#[derive(Clone, Debug)]
pub enum Req {
    Kappa { space: usize, id: u32, by_vertices: bool },
    Estimate { space: usize, id: u32 },
    Region { space: usize, id: u32, by_vertices: bool },
    Nuclei { space: usize, k: u32 },
    Update,
}

impl Req {
    pub fn op(&self) -> &'static str {
        match self {
            Req::Kappa { .. } => "kappa",
            Req::Estimate { .. } => "estimate",
            Req::Region { .. } => "region",
            Req::Nuclei { .. } => "nuclei",
            Req::Update => "update",
        }
    }

    /// Name of the span around this request's TCP round trip.
    pub fn tcp_span(&self) -> &'static str {
        match self {
            Req::Kappa { .. } => "tcp.kappa",
            Req::Estimate { .. } => "tcp.estimate",
            Req::Region { .. } => "tcp.region",
            Req::Nuclei { .. } => "tcp.nuclei",
            Req::Update => "tcp.update",
        }
    }

    /// The request line of a read; `None` for an update, whose line comes
    /// from its batch.
    pub fn line(&self, r: &Reference) -> Option<String> {
        Some(match *self {
            Req::Kappa { space, id, by_vertices } => kappa_line(r, space, id, by_vertices),
            Req::Estimate { space, id } => format!(
                "{{\"op\":\"estimate\",\"space\":\"{}\",\"id\":{id},\"iterations\":{ESTIMATE_ITERATIONS},\"budget\":{ESTIMATE_BUDGET}}}",
                SPACES[space]
            ),
            Req::Region { space, id, by_vertices } => region_line(r, space, id, by_vertices),
            Req::Nuclei { space, k } => nuclei_line(space, k),
            Req::Update => return None,
        })
    }
}

/// A read request with its line.
fn read(r: &Reference, req: Req) -> (Req, String) {
    let line = req.line(r).expect("a read has a line");
    (req, line)
}

/// Every op the benchmark sends, in report order.
pub const OPS: [&str; 5] = ["kappa", "estimate", "region", "nuclei", "update"];

fn address(r: &Reference, space: usize, id: u32, by_vertices: bool) -> String {
    if by_vertices {
        let vs = r.spaces[space].cached.clique_vertices(id as usize);
        let list = vs.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        format!("\"vertices\":[{list}]")
    } else {
        format!("\"id\":{id}")
    }
}

pub fn kappa_line(r: &Reference, space: usize, id: u32, by_vertices: bool) -> String {
    format!(
        "{{\"op\":\"kappa\",\"space\":\"{}\",{}}}",
        SPACES[space],
        address(r, space, id, by_vertices)
    )
}

pub fn region_line(r: &Reference, space: usize, id: u32, by_vertices: bool) -> String {
    format!(
        "{{\"op\":\"region\",\"space\":\"{}\",{},\"max_vertices\":{REGION_MAX_VERTICES}}}",
        SPACES[space],
        address(r, space, id, by_vertices)
    )
}

pub fn nuclei_line(space: usize, k: u32) -> String {
    format!("{{\"op\":\"nuclei\",\"space\":\"{}\",\"k\":{k}}}", SPACES[space])
}

/// `lookup`: κ by id or by vertices, uniform over the spaces and their
/// cliques.
pub fn lookup_request(r: &Reference, rng: &mut Rng) -> (Req, String) {
    let space = rng.below(3);
    let id = rng.below(r.spaces[space].kappa.len()) as u32;
    read(r, Req::Kappa { space, id, by_vertices: rng.below(2) == 1 })
}

/// `analytics`: 40% estimate, 40% region (targets in a nucleus), 20%
/// nuclei at a random k ≤ max κ; spaces uniform.
pub fn analytics_request(r: &Reference, rng: &mut Rng) -> (Req, String) {
    let space = rng.below(3);
    let sp = &r.spaces[space];
    let roll = rng.below(10);
    let req = if roll < 4 {
        Req::Estimate { space, id: rng.below(sp.kappa.len()) as u32 }
    } else if roll < 8 {
        let id = sp.in_nucleus[rng.below(sp.in_nucleus.len())];
        Req::Region { space, id, by_vertices: false }
    } else {
        Req::Nuclei { space, k: 1 + rng.below(sp.max_kappa as usize) as u32 }
    };
    read(r, req)
}

/// The churn reader's targets: cliques of K4s whose edges the writer
/// never removes, so every read resolves in every epoch and every target
/// stays inside a nucleus of its space.
pub struct Targets {
    /// `(space, reference id)` pairs.
    pub cliques: Vec<(usize, u32)>,
    pub protected: HashSet<(VertexId, VertexId)>,
}

fn norm(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    (u.min(v), u.max(v))
}

/// Picks up to `count` K4s from the triangles with (3,4) κ ≥ 1.
pub fn churn_targets(r: &Reference, rng: &mut Rng, count: usize) -> Targets {
    let g = &r.graph;
    let tri = &r.spaces[2];
    let candidates: Vec<u32> =
        (0..tri.kappa.len() as u32).filter(|&t| tri.kappa[t as usize] >= 1).collect();
    let mut cliques = Vec::new();
    let mut protected = HashSet::new();
    let mut tries = 0;
    while cliques.len() < 3 * count && tries < 64 * count && !candidates.is_empty() {
        tries += 1;
        let t = candidates[rng.below(candidates.len())];
        let vs = tri.cached.clique_vertices(t as usize);
        let (a, b, c) = (vs[0], vs[1], vs[2]);
        let Some(&d) = g
            .neighbors(a)
            .iter()
            .find(|&&d| d != b && d != c && g.has_edge(b, d) && g.has_edge(c, d))
        else {
            continue;
        };
        for (u, v) in [(a, b), (a, c), (b, c), (a, d), (b, d), (c, d)] {
            protected.insert(norm(u, v));
        }
        let edge = g.edge_id(a, b).expect("triangle edge");
        cliques.extend([(0, a), (1, edge), (2, t)]);
    }
    Targets { cliques, protected }
}

/// `churn` reader: 80% κ, 20% region, vertex-addressed over the targets.
pub fn churn_read(r: &Reference, targets: &Targets, rng: &mut Rng) -> (Req, String) {
    let (space, id) = targets.cliques[rng.below(targets.cliques.len())];
    if rng.below(10) < 8 {
        read(r, Req::Kappa { space, id, by_vertices: true })
    } else {
        read(r, Req::Region { space, id, by_vertices: true })
    }
}

/// One update batch as sent.
#[derive(Clone, Debug)]
pub struct Batch {
    pub insert: Vec<(VertexId, VertexId)>,
    pub remove: Vec<(VertexId, VertexId)>,
}

impl Batch {
    pub fn line(&self) -> String {
        let list = |es: &[(VertexId, VertexId)]| {
            es.iter().map(|(u, v)| format!("[{u},{v}]")).collect::<Vec<_>>().join(",")
        };
        format!(
            "{{\"op\":\"update\",\"insert\":[{}],\"remove\":[{}]}}",
            list(&self.insert),
            list(&self.remove)
        )
    }
}

/// Inserts and removes per churn batch.
pub const BATCH_EDGES: usize = 16;

/// A graph over `n` vertices with these edges.
pub fn graph_of(n: usize, edges: &[(VertexId, VertexId)]) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(edges.len());
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.with_num_vertices(n).build()
}

/// The edge set the churn writer believes the server holds.
pub struct EdgeSet {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
    index: HashMap<(VertexId, VertexId), usize>,
    adj: Vec<Vec<VertexId>>,
}

impl EdgeSet {
    pub fn new(g: &CsrGraph) -> EdgeSet {
        let mut s = EdgeSet {
            n: g.num_vertices(),
            edges: Vec::new(),
            index: HashMap::new(),
            adj: vec![Vec::new(); g.num_vertices()],
        };
        for &(u, v) in g.edges() {
            s.insert(u, v);
        }
        s
    }

    fn insert(&mut self, u: VertexId, v: VertexId) {
        let e = norm(u, v);
        if self.index.contains_key(&e) {
            return;
        }
        self.index.insert(e, self.edges.len());
        self.edges.push(e);
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
    }

    fn remove(&mut self, u: VertexId, v: VertexId) {
        let e = norm(u, v);
        let Some(i) = self.index.remove(&e) else { return };
        self.edges.swap_remove(i);
        if i < self.edges.len() {
            self.index.insert(self.edges[i], i);
        }
        for (a, b) in [(u, v), (v, u)] {
            let nb = &mut self.adj[a as usize];
            if let Some(p) = nb.iter().position(|&x| x == b) {
                nb.swap_remove(p);
            }
        }
    }

    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.index.contains_key(&norm(u, v))
    }

    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// The tracked edges as a graph over the original vertex set.
    pub fn graph(&self) -> CsrGraph {
        graph_of(self.n, &self.edges)
    }

    /// Draws the next batch and applies it to the tracked set: 16 inserts
    /// that close triangles (so truss and (3,4) κ can rise) and 16
    /// removals of present, unprotected edges (so κ falls).
    pub fn next_batch(
        &mut self,
        rng: &mut Rng,
        protected: &HashSet<(VertexId, VertexId)>,
    ) -> Batch {
        let mut insert = Vec::with_capacity(BATCH_EDGES);
        let mut remove = Vec::with_capacity(BATCH_EDGES);
        let mut seen: HashSet<(VertexId, VertexId)> = HashSet::new();
        while insert.len() < BATCH_EDGES {
            // A random edge end u, then two of u's neighbours: close the wedge.
            let (a, b) = self.edges[rng.below(self.edges.len())];
            let u = if rng.below(2) == 0 { a } else { b };
            let nb = &self.adj[u as usize];
            let (v, w) = (nb[rng.below(nb.len())], nb[rng.below(nb.len())]);
            if v == w || self.contains(v, w) || !seen.insert(norm(v, w)) {
                continue;
            }
            insert.push(norm(v, w));
        }
        while remove.len() < BATCH_EDGES {
            let e = self.edges[rng.below(self.edges.len())];
            if protected.contains(&e) || !seen.insert(e) {
                continue;
            }
            remove.push(e);
        }
        for &(u, v) in &remove {
            self.remove(u, v);
        }
        for &(u, v) in &insert {
            self.insert(u, v);
        }
        Batch { insert, remove }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_insert_absent_and_remove_present_edges() {
        let g = hdsd_datasets::holme_kim(300, 4, 0.5, 3);
        let mut set = EdgeSet::new(&g);
        let mut rng = Rng::new(9);
        let protected: HashSet<_> = g.edges().iter().take(50).copied().collect();
        let before = g.num_edges();
        for _ in 0..20 {
            let snapshot: HashSet<_> = set.edges.iter().copied().collect();
            let b = set.next_batch(&mut rng, &protected);
            assert_eq!((b.insert.len(), b.remove.len()), (BATCH_EDGES, BATCH_EDGES));
            assert!(b.insert.iter().all(|e| !snapshot.contains(e)));
            assert!(b.remove.iter().all(|e| snapshot.contains(e) && !protected.contains(e)));
        }
        assert_eq!(set.graph().num_edges(), before);
        assert!(protected.iter().all(|&(u, v)| set.contains(u, v)));
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(Workload::Churn.graph(5).edges(), Workload::Churn.graph(5).edges());
        let (mut a, mut b) = (Rng::new(1), Rng::new(1));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    }
}
