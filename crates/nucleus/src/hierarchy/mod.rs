//! Nucleus hierarchy: the forest of k-(r,s) nuclei.
//!
//! Every r-clique has its κ index; the **k-(r,s) nuclei** at threshold `k`
//! are the S-connected components of the r-cliques with κ ≥ k, where
//! connectivity passes through s-cliques whose members all have κ ≥ k.
//! Because components only merge as `k` decreases, the nuclei of all
//! thresholds form a forest — the hierarchy in the paper's title (e.g. the
//! topic hierarchy recovered from citation networks in the authors' prior
//! work).
//!
//! [`build_hierarchy`] is a counting-sorted union–find. The weight of an
//! s-clique is `w(S) = min_{R ⊂ S} κ(R)`: `S` connects its members exactly
//! at thresholds `k ≤ w(S)`.
//!
//! 1. A counting sort orders the r-cliques by descending κ (κ ≤ max κ).
//! 2. Per threshold `k`, each r-clique `R` of κ `k` walks its containers
//!    (straight from the resident flat rows when the space has them) and
//!    unions every s-clique of weight `k` of which `R` is the smallest-id
//!    member of κ `k` — so each s-clique is unioned exactly once, at its
//!    weight, and none is ever materialized. The union–find is by size
//!    with path halving.
//! 3. Each member's single `find` takes the node its component already
//!    has, and at the end of the threshold every resulting component gets
//!    exactly one node at `k`: the taken nodes become its children, and
//!    the members first reached at their own κ become its `own_cliques` —
//!    each r-clique lands in the maximal nucleus in which it first
//!    participates.
//!
//! The scratch arrays (the κ order and the union–find) live for one build.
//! Node sizes are final when a node is created (its children are
//! complete), so nothing is compacted or recounted afterwards. This is a
//! plain threshold-batched union–find over exact κ, not the
//! peeling-integrated construction of Sarıyüce–Pınar's *Fast Hierarchy
//! Construction*.

pub mod canonical;

pub use canonical::assert_forest_eq;

use hdsd_graph::{density, induced_subgraph, CsrGraph, VertexId};

use crate::cancel::{CancelToken, Cancelled};
use crate::space::CliqueSpace;

/// One nucleus in the hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchyNode {
    /// The k of this k-(r,s) nucleus.
    pub k: u32,
    /// Parent node (a nucleus with smaller k containing this one).
    pub parent: Option<u32>,
    /// Children (nuclei with larger k nested inside this one).
    pub children: Vec<u32>,
    /// r-cliques with κ = `k` whose component this node represents.
    /// The full member set adds all descendants' members.
    pub own_cliques: Vec<u32>,
    /// Total r-cliques in this nucleus (own + descendants).
    pub size: usize,
}

/// The forest of all k-(r,s) nuclei of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hierarchy {
    /// All nuclei. `parent`/`children` links always connect a larger-k
    /// child to a smaller-k parent.
    pub nodes: Vec<HierarchyNode>,
    /// Ids of root nodes (no parent).
    pub roots: Vec<u32>,
    /// The (r, s) of the decomposition.
    pub rs: (usize, usize),
}

impl Hierarchy {
    /// Number of nuclei (nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph had no s-cliques at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All r-cliques of node `id` (own + descendants), sorted.
    pub fn member_cliques(&self, id: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n as usize];
            out.extend_from_slice(&node.own_cliques);
            stack.extend_from_slice(&node.children);
        }
        out.sort_unstable();
        out
    }

    /// Vertex set of node `id`, resolved through the space.
    pub fn member_vertices<S: CliqueSpace>(&self, id: u32, space: &S) -> Vec<VertexId> {
        let mut verts = Vec::new();
        for c in self.member_cliques(id) {
            space.vertices_of(c as usize, &mut verts);
        }
        verts.sort_unstable();
        verts.dedup();
        verts
    }

    /// Density report of node `id`: the induced subgraph over the
    /// nucleus's vertices.
    pub fn node_density<S: CliqueSpace>(
        &self,
        id: u32,
        space: &S,
        graph: &CsrGraph,
    ) -> NucleusDensity {
        let verts = self.member_vertices(id, space);
        let sub = induced_subgraph(graph, &verts);
        NucleusDensity {
            k: self.nodes[id as usize].k,
            vertices: sub.graph.num_vertices(),
            edges: sub.graph.num_edges(),
            density: density(&sub.graph),
        }
    }

    /// Leaves (innermost, densest nuclei).
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].children.is_empty())
            .collect()
    }

    /// Maximum nesting depth of the forest.
    pub fn depth(&self) -> usize {
        fn rec(h: &Hierarchy, id: u32) -> usize {
            1 + h.nodes[id as usize].children.iter().map(|&c| rec(h, c)).max().unwrap_or(0)
        }
        self.roots.iter().map(|&r| rec(self, r)).max().unwrap_or(0)
    }

    /// Nodes at a given threshold `k` — the maximal k-(r,s) nuclei.
    pub fn nuclei_at(&self, k: u32) -> Vec<u32> {
        (0..self.nodes.len() as u32).filter(|&i| self.nodes[i as usize].k == k).collect()
    }

    /// The inverted clique → node index: for each of `num_cliques`
    /// r-cliques, the node whose `own_cliques` contains it (`u32::MAX` for
    /// cliques in no nucleus). This is the index region queries resolve
    /// through; it is also persisted (and integrity-checked) in snapshots.
    pub fn clique_to_node(&self, num_cliques: usize) -> Vec<u32> {
        let mut node_of = vec![u32::MAX; num_cliques];
        for (id, node) in self.nodes.iter().enumerate() {
            for &c in &node.own_cliques {
                node_of[c as usize] = id as u32;
            }
        }
        node_of
    }
}

/// Density summary of one nucleus.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NucleusDensity {
    /// Nucleus threshold k.
    pub k: u32,
    /// Vertices in the materialized subgraph.
    pub vertices: usize,
    /// Edges in the materialized subgraph.
    pub edges: usize,
    /// `2|E| / (|V| (|V|−1))`.
    pub density: f64,
}

/// Builds the nucleus forest from exact κ indices (from [`crate::peel()`]
/// or a converged local run).
///
/// r-cliques participating in no s-clique are not part of any nucleus and
/// are omitted.
///
/// # Panics
/// Panics when `kappa.len() != space.num_cliques()`.
pub fn build_hierarchy<S: CliqueSpace>(space: &S, kappa: &[u32]) -> Hierarchy {
    build_hierarchy_within(space, kappa, &CancelToken::none())
        .expect("an unarmed token never cancels")
}

/// [`build_hierarchy`] with cooperative cancellation: the token is
/// checked every [`HIERARCHY_CANCEL_CHUNK`] r-cliques of the s-clique walk
/// (stage `hierarchy s-clique scan`) and at the end of every union–find
/// threshold (stage `hierarchy union-find`), so a tripped deadline aborts
/// the build with bounded overshoot instead of running to completion.
///
/// # Panics
/// Panics when `kappa.len() != space.num_cliques()`.
pub fn build_hierarchy_within<S: CliqueSpace>(
    space: &S,
    kappa: &[u32],
    cancel: &CancelToken,
) -> Result<Hierarchy, Cancelled> {
    let n = space.num_cliques();
    assert_eq!(kappa.len(), n, "kappa length must match clique count");
    let armed = cancel.is_armed();
    // Counting sort of the r-cliques by descending κ: threshold k's
    // r-cliques are `order[bounds[max - k]..bounds[max - k + 1]]`.
    let max = kappa.iter().copied().max().unwrap_or(0) as usize;
    let mut bounds = vec![0usize; max + 2];
    for &k in kappa {
        bounds[max - k as usize + 1] += 1;
    }
    for b in 1..bounds.len() {
        bounds[b] += bounds[b - 1];
    }
    let mut order = vec![0u32; n];
    let mut cursor = bounds.clone();
    for (i, &k) in kappa.iter().enumerate() {
        let at = &mut cursor[max - k as usize];
        order[*at] = i as u32;
        *at += 1;
    }

    let mut fb = ForestBuilder::new(n);
    let mut buf: Vec<u32> = Vec::new();
    for (b, range) in bounds.windows(2).enumerate() {
        let k = (max - b) as u32;
        for (j, &m) in order[range[0]..range[1]].iter().enumerate() {
            if armed && (range[0] + j) % HIERARCHY_CANCEL_CHUNK == 0 {
                cancel.check("hierarchy s-clique scan")?;
            }
            if let Some(flat) = space.as_flat() {
                for others in flat.containers(m as usize).chunks_exact(flat.group()) {
                    fb.union_sclique(m, others, k, kappa);
                }
            } else {
                space.for_each_container(m as usize, |others| {
                    buf.clear();
                    buf.extend(others.iter().map(|&o| o as u32));
                    fb.union_sclique(m, &buf, k, kappa);
                });
            }
        }
        if range[0] < range[1] {
            fb.close_threshold(k);
            if armed {
                cancel.check("hierarchy union-find")?;
            }
        }
    }
    let roots =
        (0..fb.nodes.len() as u32).filter(|&i| fb.nodes[i as usize].parent.is_none()).collect();
    Ok(Hierarchy { nodes: fb.nodes, roots, rs: (space.r(), space.s()) })
}

/// r-cliques walked between cancellation checks during hierarchy
/// construction.
pub const HIERARCHY_CANCEL_CHUNK: usize = 4096;

const NONE: u32 = u32::MAX;

/// The threshold-descending union–find over r-cliques (union by size,
/// path halving) that assembles the forest one threshold at a time.
struct ForestBuilder {
    nodes: Vec<HierarchyNode>,
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Component root → the component's topmost node (`NONE` when none).
    node_of: Vec<u32>,
    /// The current threshold's (component root, node) pairs taken from
    /// the components it touches...
    taken: Vec<(u32, u32)>,
    /// ...and its r-cliques reached for the first time at their own κ.
    fresh: Vec<u32>,
}

impl ForestBuilder {
    fn new(n: usize) -> ForestBuilder {
        ForestBuilder {
            nodes: Vec::new(),
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            node_of: vec![NONE; n],
            taken: Vec::new(),
            fresh: Vec::new(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        let parent = &mut self.parent;
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    /// Unions the s-clique `{m} ∪ others` at threshold `k = κ(m)` when its
    /// weight `min κ` is `k` and `m` is its smallest-id member of κ `k`,
    /// so each s-clique is unioned exactly once, at its weight.
    fn union_sclique(&mut self, m: u32, others: &[u32], k: u32, kappa: &[u32]) {
        let owner = others.iter().all(|&o| {
            let ko = kappa[o as usize];
            ko > k || (ko == k && o > m)
        });
        if owner {
            let mut root = self.touch(m, k, kappa, NONE);
            for &o in others {
                root = self.touch(o, k, kappa, root);
            }
        }
    }

    /// One `find` of member `m`: takes the node its component already has
    /// (or records `m` as fresh when it is an untouched singleton of κ
    /// `k`), then unions the component into `root`.
    fn touch(&mut self, m: u32, k: u32, kappa: &[u32], root: u32) -> u32 {
        let r = self.find(m);
        let node = self.node_of[r as usize];
        if node != NONE {
            self.node_of[r as usize] = NONE;
            self.taken.push((r, node));
        } else if r == m && self.size[r as usize] == 1 && kappa[m as usize] == k {
            self.fresh.push(m);
        }
        if root == NONE || root == r {
            return r;
        }
        let (big, small) =
            if self.size[root as usize] >= self.size[r as usize] { (root, r) } else { (r, root) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        big
    }

    /// Gives every component the threshold touched exactly one node at
    /// `k`: the taken nodes become its children, the fresh r-cliques its
    /// own cliques. Children are complete, so the size is final.
    fn close_threshold(&mut self, k: u32) {
        for j in 0..self.fresh.len() {
            let m = self.fresh[j];
            let id = self.node_at(m, k);
            let node = &mut self.nodes[id as usize];
            node.own_cliques.push(m);
            node.size += 1;
        }
        for j in 0..self.taken.len() {
            let (r, child) = self.taken[j];
            let id = self.node_at(r, k);
            let child_size = self.nodes[child as usize].size;
            self.nodes[child as usize].parent = Some(id);
            let node = &mut self.nodes[id as usize];
            node.children.push(child);
            node.size += child_size;
        }
        self.fresh.clear();
        self.taken.clear();
    }

    /// The node at threshold `k` of `x`'s component, created on first use.
    /// Every root the threshold touched had its node taken, so a root
    /// holding a node here holds one created at `k`.
    fn node_at(&mut self, x: u32, k: u32) -> u32 {
        let root = self.find(x) as usize;
        if self.node_of[root] == NONE {
            self.node_of[root] = self.nodes.len() as u32;
            self.nodes.push(HierarchyNode {
                k,
                parent: None,
                children: Vec::new(),
                own_cliques: Vec::new(),
                size: 0,
            });
        }
        self.node_of[root]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;
    use crate::space::{CoreSpace, Nucleus34Space, TrussSpace};
    use hdsd_graph::graph_from_edges;

    fn nested_core_graph() -> hdsd_graph::CsrGraph {
        // K5 {0..4} bridged to a 2-core triangle {5,6,7}, tail 8-9.
        graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (5, 6),
            (6, 7),
            (7, 5),
            (0, 5),
            (5, 8),
            (8, 9),
        ])
    }

    #[test]
    fn core_hierarchy_nests_k5() {
        let g = nested_core_graph();
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        let densest = h.nuclei_at(4);
        assert_eq!(densest.len(), 1, "exactly one 4-core");
        let verts = h.member_vertices(densest[0], &sp);
        assert_eq!(verts, vec![0, 1, 2, 3, 4]);
        let d = h.node_density(densest[0], &sp, &g);
        assert!((d.density - 1.0).abs() < 1e-12, "K5 density");
        // Parent chain k strictly decreases.
        let mut cur = densest[0];
        while let Some(p) = h.nodes[cur as usize].parent {
            assert!(h.nodes[p as usize].k < h.nodes[cur as usize].k);
            cur = p;
        }
    }

    #[test]
    fn separate_nuclei_merge_only_at_lower_k() {
        // Two K4s joined through a degree-2 connector vertex 8:
        // the 3-cores are separate; the 2-core is the whole graph.
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4 A
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7), // K4 B
            (3, 8),
            (8, 4), // connector
        ]);
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        assert_eq!(kappa[8], 2);
        let h = build_hierarchy(&sp, &kappa);
        let k3 = h.nuclei_at(3);
        assert_eq!(k3.len(), 2, "two disjoint 3-cores");
        let k2 = h.nuclei_at(2);
        assert_eq!(k2.len(), 1, "one 2-core containing everything");
        let root = k2[0];
        assert!(h.roots.contains(&root));
        assert_eq!(h.member_vertices(root, &sp).len(), 9);
        assert_eq!(h.nodes[root as usize].own_cliques, vec![8]);
        // Both 3-cores are children of the 2-core.
        for id in k3 {
            assert_eq!(h.nodes[id as usize].parent, Some(root));
            assert_eq!(h.nodes[id as usize].size, 4);
        }
    }

    #[test]
    fn bridged_double_k4_is_single_3core() {
        // With a direct bridge edge the union *is* one 3-core (every vertex
        // keeps degree ≥ 3), so the hierarchy must report a single nucleus.
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
            (3, 4),
        ]);
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        assert!(kappa.iter().all(|&k| k == 3));
        let h = build_hierarchy(&sp, &kappa);
        assert_eq!(h.nuclei_at(3).len(), 1);
        assert_eq!(h.len(), 1);
        assert_eq!(h.nodes[0].size, 8);
    }

    #[test]
    fn paper_fig3b_34_nuclei_not_merged() {
        // The paper's Figure 3: two 1-(3,4) nuclei — K4 {a,b,c,d} and the
        // subgraph on {c,d,e,f,h} (union of K4s cdef and cefh) — share the
        // edge (c,d) but no 4-clique contains triangles from both, so they
        // are reported separately. a=0, b=1, c=2, d=3, e=4, f=5, h=7
        // (g=6 pendant on e).
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4 abcd
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5), // K4 cdef
            (4, 6), // pendant g-e
            (2, 7),
            (4, 7),
            (5, 7), // h adjacent to c,e,f => K4 cefh
        ]);
        let sp = Nucleus34Space::precomputed(&g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        let ones = h.nuclei_at(1);
        assert_eq!(ones.len(), 2, "two separate 1-(3,4) nuclei");
        let mut vertex_sets: Vec<Vec<u32>> =
            ones.iter().map(|&id| h.member_vertices(id, &sp)).collect();
        vertex_sets.sort();
        assert_eq!(vertex_sets[0], vec![0, 1, 2, 3]);
        assert_eq!(vertex_sets[1], vec![2, 3, 4, 5, 7]);
    }

    #[test]
    fn every_positive_kappa_clique_appears_exactly_once() {
        let g = hdsd_datasets::holme_kim(150, 4, 0.6, 3);
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        let mut seen = vec![0usize; sp.num_cliques()];
        for n in &h.nodes {
            for &c in &n.own_cliques {
                seen[c as usize] += 1;
            }
        }
        for (i, &s) in seen.iter().enumerate() {
            if sp.degree(i) > 0 {
                assert_eq!(s, 1, "clique {i} appears {s} times");
            } else {
                assert_eq!(s, 0, "isolated clique {i} must not appear");
            }
        }
        let total: usize = h.roots.iter().map(|&r| h.nodes[r as usize].size).sum();
        let expected = (0..sp.num_cliques()).filter(|&i| sp.degree(i) > 0).count();
        assert_eq!(total, expected);
    }

    #[test]
    fn hierarchy_structure_invariants() {
        let g = hdsd_datasets::planted_partition(&[15, 15, 15], 0.6, 0.05, 8);
        for use_truss in [false, true] {
            let (h, n_cliques) = if use_truss {
                let sp = TrussSpace::precomputed(&g);
                let kappa = peel(&sp).kappa;
                (build_hierarchy(&sp, &kappa), sp.num_cliques())
            } else {
                let sp = CoreSpace::new(&g);
                let kappa = peel(&sp).kappa;
                (build_hierarchy(&sp, &kappa), sp.num_cliques())
            };
            let _ = n_cliques;
            for (i, node) in h.nodes.iter().enumerate() {
                assert_ne!(node.k, u32::MAX, "node {i} has a sentinel threshold");
                if let Some(p) = node.parent {
                    assert!(h.nodes[p as usize].k < node.k, "node {i}");
                    assert!(h.nodes[p as usize].children.contains(&(i as u32)));
                }
                for &c in &node.children {
                    assert_eq!(h.nodes[c as usize].parent, Some(i as u32));
                }
            }
            // Roots cover all nodes exactly once.
            let mut visited = vec![false; h.len()];
            let mut stack: Vec<u32> = h.roots.clone();
            while let Some(x) = stack.pop() {
                assert!(!visited[x as usize], "cycle or shared child");
                visited[x as usize] = true;
                stack.extend_from_slice(&h.nodes[x as usize].children);
            }
            assert!(visited.iter().all(|&v| v));
        }
    }

    #[test]
    fn densities_increase_toward_leaves() {
        let g = hdsd_datasets::nested_communities(
            8,
            &[
                hdsd_datasets::NestedCommunitySpec { branching: 2, p: 0.25 },
                hdsd_datasets::NestedCommunitySpec { branching: 2, p: 0.9 },
            ],
            0.02,
            17,
        );
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        // Along any root-to-leaf chain, density is (weakly) increasing in
        // most steps; we check the aggregate: max leaf density exceeds the
        // root density.
        let root_d = h.node_density(h.roots[0], &sp, &g).density;
        let best_leaf =
            h.leaves().iter().map(|&l| h.node_density(l, &sp, &g).density).fold(0.0f64, f64::max);
        assert!(best_leaf >= root_d, "leaf density {best_leaf} < root density {root_d}");
    }

    #[test]
    fn cancel_trips_at_the_next_scan_chunk_or_threshold() {
        // 12k cliques: the walk checks at positions 0, 4096 and 8192, and
        // the union–find once at the end of every κ threshold.
        let g = hdsd_datasets::holme_kim(12_000, 4, 0.5, 7);
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        let scan_checks = sp.num_cliques().div_ceil(HIERARCHY_CANCEL_CHUNK);
        let mut thresholds = kappa.clone();
        thresholds.sort_unstable();
        thresholds.dedup();
        let trip = |n: usize| {
            build_hierarchy_within(&sp, &kappa, &CancelToken::tripping_after_checks(n as i64))
        };
        // The token tripping on its n-th check stops exactly there: every
        // check is a chunk or threshold boundary, and there are no others.
        let stages: Vec<&str> = (1..=scan_checks + thresholds.len())
            .map(|n| trip(n).expect_err("the build makes this many checks").stage)
            .collect();
        assert_eq!(stages[0], "hierarchy s-clique scan");
        assert_eq!(*stages.last().unwrap(), "hierarchy union-find");
        assert_eq!(stages.iter().filter(|&&s| s == "hierarchy s-clique scan").count(), scan_checks);
        assert_eq!(
            stages.iter().filter(|&&s| s == "hierarchy union-find").count(),
            thresholds.len()
        );
        let h = build_hierarchy(&sp, &kappa);
        assert_forest_eq(&trip(stages.len() + 1).expect("one check more never trips"), &h);
        // A pre-tripped token stops before any work, naming the scan.
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let err = build_hierarchy_within(&sp, &kappa, &CancelToken::with_deadline(Some(past)))
            .unwrap_err();
        assert_eq!(String::from(err), "deadline exceeded (hierarchy s-clique scan)");
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let err = build_hierarchy_within(&sp, &kappa, &CancelToken::with_flag(flag)).unwrap_err();
        assert_eq!(String::from(err), "request cancelled (hierarchy s-clique scan)");
    }

    #[test]
    fn every_node_is_one_component_with_final_sizes() {
        // One node per component per threshold: no node is an empty
        // wrapper, and each size is own + children as built.
        let g = hdsd_datasets::holme_kim(400, 4, 0.6, 5);
        for h in [
            build_hierarchy(&CoreSpace::new(&g), &peel(&CoreSpace::new(&g)).kappa),
            build_hierarchy(
                &TrussSpace::precomputed(&g),
                &peel(&TrussSpace::precomputed(&g)).kappa,
            ),
        ] {
            for node in &h.nodes {
                assert!(!node.own_cliques.is_empty(), "node at k={} owns no clique", node.k);
                let kids: usize = node.children.iter().map(|&c| h.nodes[c as usize].size).sum();
                assert_eq!(node.size, node.own_cliques.len() + kids);
            }
        }
    }

    #[test]
    fn empty_graph_hierarchy() {
        let g = graph_from_edges([]);
        let sp = CoreSpace::new(&g);
        let h = build_hierarchy(&sp, &[]);
        assert!(h.is_empty());
        assert_eq!(h.depth(), 0);
    }
}
