//! Incremental CSR and clique-substrate maintenance under edge batches.
//!
//! [`crate::GraphBuilder`] rebuilds everything from the raw edge list:
//! canonicalize, sort, dedup, refill every adjacency row. For a serving
//! engine that applies small update batches to a large resident graph that
//! cost is absurd — the batch touches a handful of rows, the rebuild pays
//! for all of them, and the downstream clique substrates (triangle list,
//! K4 counts) re-enumerate the whole graph on top.
//!
//! This module applies a mixed insert/remove batch **by splicing**:
//!
//! * [`apply_edge_batch`] produces the new [`CsrGraph`] with untouched
//!   adjacency rows copied and batch-touched rows merge-spliced, in flat
//!   `O(n + m)` array passes plus `O(Δ log Δ)` for the batch itself — no
//!   global sort, no dedup scan. The output is **bit-identical** to what
//!   `GraphBuilder` would produce for the updated edge set (same vertex
//!   count, same lexicographic edge ids, same row layout), so everything
//!   downstream that compares against a from-scratch build stays exact.
//!   The returned [`CsrDelta`] carries the stable edge-id remaps.
//! * [`triangle_delta`] maintains a canonical [`TriangleList`] across the
//!   batch: triangles destroyed by removed edges are looked up in the old
//!   incidence lists, triangles created by inserted edges are found by
//!   adjacency intersection around the batch only, and the survivor ids
//!   are spliced — again bit-identical to `TriangleList::build` on the
//!   new graph.
//! * [`mark_k4_touched`] computes which surviving triangles gained or
//!   lost a 4-clique, so the (3,4) container cache can re-derive only
//!   those rows instead of re-enumerating every K4.
//!
//! Update cost scales with the perturbation (`O(Δ · deg)` enumeration
//! around the batch) plus unavoidable flat remap passes over arrays whose
//! dense ids shift; the expensive parts of a rebuild — sorting, hashing,
//! global triangle/K4 enumeration — are gone.

use crate::csr::{CsrGraph, EdgeId, VertexId};
use crate::triangles::TriangleList;

/// Sentinel for "no counterpart on the other side of the delta" in id
/// remap tables (removed/destroyed on the old side, created on the new).
pub const NO_ID: u32 = u32::MAX;

/// Stable edge-id remaps for one applied batch.
///
/// Ids are the dense lexicographic ids of [`CsrGraph`]; removed and
/// inserted slots hold [`NO_ID`].
#[derive(Clone, Debug)]
pub struct CsrDelta {
    /// Old edge id → new edge id (`NO_ID` for removed edges).
    pub old_to_new: Vec<EdgeId>,
    /// New edge id → old edge id (`NO_ID` for inserted edges).
    pub new_to_old: Vec<EdgeId>,
    /// New ids of inserted edges, ascending.
    pub inserted_ids: Vec<EdgeId>,
    /// Old ids of removed edges, ascending.
    pub removed_ids: Vec<EdgeId>,
}

impl CsrDelta {
    /// Edges actually inserted (after dedup against the old graph).
    pub fn inserted(&self) -> u32 {
        self.inserted_ids.len() as u32
    }

    /// Edges actually removed.
    pub fn removed(&self) -> u32 {
        self.removed_ids.len() as u32
    }

    /// True when the batch changed nothing.
    pub fn is_noop(&self) -> bool {
        self.inserted_ids.is_empty() && self.removed_ids.is_empty()
    }
}

/// Applies a mixed batch to `g` by adjacency splicing, returning the new
/// graph and the edge-id remaps.
///
/// Semantics match [`GraphBuilder`](crate::GraphBuilder)-based rebuilds
/// exactly: self-loops and duplicate inserts are dropped, inserting a
/// present edge is a no-op, removing an absent edge is a no-op, and an
/// edge both removed and inserted in one batch ends up present (counted
/// as one removal plus one insertion, like a rebuild would). The vertex
/// set grows to cover inserted endpoints and never shrinks.
pub fn apply_edge_batch(
    g: &CsrGraph,
    insert: &[(VertexId, VertexId)],
    remove: &[(VertexId, VertexId)],
) -> (CsrGraph, CsrDelta) {
    let old_m = g.num_edges();
    let old_n = g.num_vertices();

    // Removals: resolve to old edge ids (absent edges are no-ops).
    let mut removed_ids: Vec<EdgeId> =
        remove.iter().filter_map(|&(u, v)| g.edge_id(u, v)).collect();
    removed_ids.sort_unstable();
    removed_ids.dedup();
    let mut removed_mask = vec![false; old_m];
    for &e in &removed_ids {
        removed_mask[e as usize] = true;
    }

    // Insertions: canonicalize, dedup, keep only edges absent from the
    // post-removal graph (an edge removed and re-inserted in one batch is
    // kept here, mirroring what a rebuild does).
    let mut ins: Vec<(VertexId, VertexId)> =
        insert.iter().filter(|&&(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v))).collect();
    ins.sort_unstable();
    ins.dedup();
    ins.retain(|&(u, v)| match g.edge_id(u, v) {
        Some(e) => removed_mask[e as usize],
        None => true,
    });

    // Merge old (minus removed) with inserted into the new canonical edge
    // list, recording both remap directions. Keys collide only for
    // removed-and-reinserted edges, and the old side is skipped first.
    let new_m = old_m - removed_ids.len() + ins.len();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(new_m);
    let mut old_to_new = vec![NO_ID; old_m];
    let mut new_to_old: Vec<EdgeId> = Vec::with_capacity(new_m);
    let mut inserted_ids: Vec<EdgeId> = Vec::with_capacity(ins.len());
    let old_edges = g.edges();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old_m || j < ins.len() {
        let take_old = match (old_edges.get(i), ins.get(j)) {
            (Some(oe), Some(ie)) => oe <= ie,
            (Some(_), None) => true,
            _ => false,
        };
        if take_old {
            if !removed_mask[i] {
                old_to_new[i] = edges.len() as EdgeId;
                new_to_old.push(i as EdgeId);
                edges.push(old_edges[i]);
            }
            i += 1;
        } else {
            inserted_ids.push(edges.len() as EdgeId);
            new_to_old.push(NO_ID);
            edges.push(ins[j]);
            j += 1;
        }
    }
    debug_assert_eq!(edges.len(), new_m);
    assert!(new_m <= EdgeId::MAX as usize, "edge count {new_m} exceeds u32 edge-id space");

    // Vertex set: grows to cover every *requested* insert endpoint — even
    // ones whose edge is dropped as a duplicate or self-loop — and never
    // shrinks (bit-identical to a `GraphBuilder` rebuild pinned to the
    // old vertex count).
    let new_n = insert.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0).max(old_n);

    // Per-vertex insert partners, sorted by neighbor (each inserted edge
    // contributes to both endpoint rows).
    let mut ins_adj: Vec<(VertexId, VertexId, EdgeId)> = Vec::with_capacity(ins.len() * 2);
    for (k, &(u, v)) in ins.iter().enumerate() {
        let e = inserted_ids[k];
        ins_adj.push((u, v, e));
        ins_adj.push((v, u, e));
    }
    ins_adj.sort_unstable();

    // Offsets: old degrees adjusted by the batch.
    let mut deg = vec![0usize; new_n];
    for v in 0..old_n as VertexId {
        deg[v as usize] = g.degree(v);
    }
    for &e in &removed_ids {
        let (u, v) = g.edge_endpoints(e);
        deg[u as usize] -= 1;
        deg[v as usize] -= 1;
    }
    for &(u, v) in &ins {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let mut offsets = vec![0usize; new_n + 1];
    for v in 0..new_n {
        offsets[v + 1] = offsets[v] + deg[v];
    }

    // Rows: copy-and-remap untouched entries, merge-splice insert partners.
    let total = offsets[new_n];
    let mut neighbors = vec![0 as VertexId; total];
    let mut adj_edge_ids = vec![0 as EdgeId; total];
    let mut ins_at = 0usize;
    for v in 0..new_n {
        let mut at = offsets[v];
        let mut row_ins = ins_at;
        while row_ins < ins_adj.len() && ins_adj[row_ins].0 as usize == v {
            row_ins += 1;
        }
        let mut pending = &ins_adj[ins_at..row_ins];
        ins_at = row_ins;
        if v < old_n {
            let va = v as VertexId;
            for (w, e) in g.neighbors(va).iter().copied().zip(g.neighbor_edge_ids(va)) {
                let ne = old_to_new[*e as usize];
                if ne == NO_ID {
                    continue; // removed
                }
                while let Some(&(_, iw, ie)) = pending.first() {
                    if iw < w {
                        neighbors[at] = iw;
                        adj_edge_ids[at] = ie;
                        at += 1;
                        pending = &pending[1..];
                    } else {
                        break;
                    }
                }
                neighbors[at] = w;
                adj_edge_ids[at] = ne;
                at += 1;
            }
        }
        for &(_, iw, ie) in pending {
            neighbors[at] = iw;
            adj_edge_ids[at] = ie;
            at += 1;
        }
        debug_assert_eq!(at, offsets[v + 1], "row splice mismatch at vertex {v}");
    }

    let graph = CsrGraph::from_parts(offsets, neighbors, adj_edge_ids, edges);
    (graph, CsrDelta { old_to_new, new_to_old, inserted_ids, removed_ids })
}

/// Triangle-id remaps for one applied batch, plus the maintained list.
#[derive(Clone, Debug)]
pub struct TriangleDelta {
    /// The new graph's triangle list, ids canonical (bit-identical to
    /// `TriangleList::build(new_graph)`).
    pub list: TriangleList,
    /// Old triangle id → new triangle id (`NO_ID` for destroyed).
    pub old_to_new: Vec<u32>,
    /// New triangle id → old triangle id (`NO_ID` for created).
    pub new_to_old: Vec<u32>,
    /// New ids of created triangles, ascending.
    pub created: Vec<u32>,
    /// Old ids of destroyed triangles, ascending.
    pub destroyed: Vec<u32>,
}

/// Maintains `old_tl` across the batch described by `d` (which produced
/// `new_g`).
///
/// Destroyed triangles are read straight off the old incidence lists of
/// the removed edges; created triangles are found by intersecting the new
/// adjacency of each inserted edge (deduplicated by lowest inserted edge
/// id). Survivors keep their relative order, so a linear merge with the
/// sorted created set reproduces canonical ids exactly.
pub fn triangle_delta(old_tl: &TriangleList, new_g: &CsrGraph, d: &CsrDelta) -> TriangleDelta {
    let old_t = old_tl.len();

    // Destroyed: any old triangle incident to a removed edge.
    let mut destroyed_mask = vec![false; old_t];
    for &e in &d.removed_ids {
        for &t in old_tl.triangles_of_edge(e) {
            destroyed_mask[t as usize] = true;
        }
    }
    let destroyed: Vec<u32> = (0..old_t as u32).filter(|&t| destroyed_mask[t as usize]).collect();

    // Created: triangles of the new graph containing an inserted edge,
    // each counted at its lowest-id inserted edge.
    let mut created_tris: Vec<([VertexId; 3], [EdgeId; 3])> = Vec::new();
    for &e in &d.inserted_ids {
        let (u, v) = new_g.edge_endpoints(e);
        let (nu, eu) = (new_g.neighbors(u), new_g.neighbor_edge_ids(u));
        let (nv, ev) = (new_g.neighbors(v), new_g.neighbor_edge_ids(v));
        let (mut a, mut b) = (0usize, 0usize);
        while a < nu.len() && b < nv.len() {
            match nu[a].cmp(&nv[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    let w = nu[a];
                    let (e_uw, e_vw) = (eu[a], ev[b]);
                    a += 1;
                    b += 1;
                    let dup = |x: EdgeId| d.new_to_old[x as usize] == NO_ID && x < e;
                    if dup(e_uw) || dup(e_vw) {
                        continue; // counted at a lower inserted edge
                    }
                    let mut vs = [u, v, w];
                    vs.sort_unstable();
                    let mut es = [0 as EdgeId; 3];
                    for &(x, y, exy) in &[(u, v, e), (u, w, e_uw), (v, w, e_vw)] {
                        let key = (x.min(y), x.max(y));
                        let slot = if key == (vs[0], vs[1]) {
                            0
                        } else if key == (vs[0], vs[2]) {
                            1
                        } else {
                            debug_assert_eq!(key, (vs[1], vs[2]));
                            2
                        };
                        es[slot] = exy;
                    }
                    created_tris.push((vs, es));
                }
            }
        }
    }
    created_tris.sort_unstable_by_key(|&(vs, _)| vs);

    // Merge survivors (old order, edge ids remapped) with created.
    let new_t = old_t - destroyed.len() + created_tris.len();
    let mut tri_verts: Vec<[VertexId; 3]> = Vec::with_capacity(new_t);
    let mut tri_edges: Vec<[EdgeId; 3]> = Vec::with_capacity(new_t);
    let mut old_to_new = vec![NO_ID; old_t];
    let mut new_to_old: Vec<u32> = Vec::with_capacity(new_t);
    let mut created: Vec<u32> = Vec::with_capacity(created_tris.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < old_t || j < created_tris.len() {
        let take_old = match (old_tl.tri_verts.get(i), created_tris.get(j)) {
            // A destroyed triangle and an identical re-created one can
            // collide on the key; skip the old side first.
            (Some(&ov), Some(&(cv, _))) => ov <= cv,
            (Some(_), None) => true,
            _ => false,
        };
        if take_old {
            if !destroyed_mask[i] {
                old_to_new[i] = tri_verts.len() as u32;
                new_to_old.push(i as u32);
                tri_verts.push(old_tl.tri_verts[i]);
                let es = old_tl.tri_edges[i];
                let remap = |e: EdgeId| {
                    let ne = d.old_to_new[e as usize];
                    debug_assert_ne!(ne, NO_ID, "surviving triangle lost an edge");
                    ne
                };
                tri_edges.push([remap(es[0]), remap(es[1]), remap(es[2])]);
            }
            i += 1;
        } else {
            created.push(tri_verts.len() as u32);
            new_to_old.push(NO_ID);
            let (vs, es) = created_tris[j];
            tri_verts.push(vs);
            tri_edges.push(es);
            j += 1;
        }
    }
    debug_assert_eq!(tri_verts.len(), new_t);

    let list = TriangleList::from_sorted_parts(new_g.num_edges(), tri_verts, tri_edges);
    TriangleDelta { list, old_to_new, new_to_old, created, destroyed }
}

/// Marks the new-id triangles whose 4-clique membership the batch changed:
/// members of destroyed K4s that survived, members of created K4s, and all
/// created triangles. Everything unmarked keeps its old K4 containers
/// verbatim (modulo id remap), which is what lets the (3,4) container
/// cache splice instead of re-enumerating.
pub fn mark_k4_touched(
    old_g: &CsrGraph,
    old_tl: &TriangleList,
    new_g: &CsrGraph,
    new_tl: &TriangleList,
    d: &CsrDelta,
    td: &TriangleDelta,
) -> Vec<bool> {
    let mut touched = vec![false; new_tl.len()];
    for &t in &td.created {
        touched[t as usize] = true;
    }

    // Destroyed K4s: for each removed edge (u, v), every pair of common
    // triangles whose thirds (w, x) are themselves adjacent in the old
    // graph closes a K4 {u, v, w, x}.
    let mark_old = |t: u32, touched: &mut Vec<bool>| {
        let nt = td.old_to_new[t as usize];
        if nt != NO_ID {
            touched[nt as usize] = true;
        }
    };
    for &e in &d.removed_ids {
        let (u, v) = old_g.edge_endpoints(e);
        let thirds = old_tl.thirds_of_edge(e);
        let tris = old_tl.triangles_of_edge(e);
        for (iw, &w) in thirds.iter().enumerate() {
            // Intersect old neighbors of w with the higher thirds.
            let nw = old_g.neighbors(w);
            let rest = &thirds[iw + 1..];
            let (mut a, mut b) = (0usize, 0usize);
            while a < nw.len() && b < rest.len() {
                match nw[a].cmp(&rest[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        let x = nw[a];
                        a += 1;
                        b += 1;
                        mark_old(tris[iw], &mut touched);
                        mark_old(tris[iw + 1 + (b - 1)], &mut touched);
                        for &(p, q, r) in &[(u, w, x), (v, w, x)] {
                            if let Some(t) = old_tl.triangle_id(old_g, p, q, r) {
                                mark_old(t, &mut touched);
                            }
                        }
                    }
                }
            }
        }
    }

    // Created K4s: same pattern around each inserted edge, in the new
    // graph. No dedup needed — marking is idempotent.
    for &e in &d.inserted_ids {
        let (u, v) = new_g.edge_endpoints(e);
        let thirds = new_tl.thirds_of_edge(e);
        let tris = new_tl.triangles_of_edge(e);
        for (iw, &w) in thirds.iter().enumerate() {
            let nw = new_g.neighbors(w);
            let rest = &thirds[iw + 1..];
            let (mut a, mut b) = (0usize, 0usize);
            while a < nw.len() && b < rest.len() {
                match nw[a].cmp(&rest[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        let x = nw[a];
                        a += 1;
                        b += 1;
                        touched[tris[iw] as usize] = true;
                        touched[tris[iw + 1 + (b - 1)] as usize] = true;
                        for &(p, q, r) in &[(u, w, x), (v, w, x)] {
                            if let Some(t) = new_tl.triangle_id(new_g, p, q, r) {
                                touched[t as usize] = true;
                            }
                        }
                    }
                }
            }
        }
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};

    /// Rebuild-from-scratch reference for the same batch semantics.
    fn rebuilt(
        g: &CsrGraph,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> CsrGraph {
        let drop: std::collections::HashSet<(u32, u32)> =
            remove.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let n = insert
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(g.num_vertices());
        let mut b = GraphBuilder::with_capacity(g.num_edges() + insert.len()).with_num_vertices(n);
        for &(u, v) in g.edges() {
            if !drop.contains(&(u, v)) {
                b.add_edge(u, v);
            }
        }
        for &(u, v) in insert {
            b.add_edge(u, v);
        }
        b.build()
    }

    fn assert_same_graph(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.edges(), b.edges());
        for v in a.vertices() {
            assert_eq!(a.neighbors(v), b.neighbors(v), "neighbors of {v}");
            assert_eq!(a.neighbor_edge_ids(v), b.neighbor_edge_ids(v), "edge ids of {v}");
        }
    }

    fn two_k4s() -> CsrGraph {
        graph_from_edges([
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

    #[test]
    fn splice_matches_rebuild_on_mixed_batch() {
        let g = two_k4s();
        let ins = [(0, 6), (1, 4), (6, 7), (7, 8)];
        let rm = [(2, 3), (5, 6), (9, 9), (0, 6)]; // (0,6) absent, (9,9) loop
        let (g2, d) = apply_edge_batch(&g, &ins, &rm);
        assert_same_graph(&g2, &rebuilt(&g, &ins, &rm));
        assert_eq!(d.inserted(), 4);
        assert_eq!(d.removed(), 2);
        // Remaps are mutually inverse on survivors.
        for (old, &new) in d.old_to_new.iter().enumerate() {
            if new != NO_ID {
                assert_eq!(d.new_to_old[new as usize] as usize, old);
                assert_eq!(g.edge_endpoints(old as EdgeId), g2.edge_endpoints(new));
            }
        }
        for &e in &d.inserted_ids {
            assert_eq!(d.new_to_old[e as usize], NO_ID);
        }
    }

    #[test]
    fn noop_and_duplicate_batches() {
        let g = two_k4s();
        // Inserting present edges / removing absent ones changes nothing.
        let (g2, d) = apply_edge_batch(&g, &[(0, 1), (1, 0), (3, 3)], &[(0, 6), (6, 0)]);
        assert!(d.is_noop());
        assert_same_graph(&g2, &g);
        assert!(d.old_to_new.iter().enumerate().all(|(i, &e)| e as usize == i));
        // Empty batch.
        let (g3, d3) = apply_edge_batch(&g, &[], &[]);
        assert!(d3.is_noop());
        assert_same_graph(&g3, &g);
    }

    #[test]
    fn remove_and_reinsert_same_edge() {
        let g = two_k4s();
        let (g2, d) = apply_edge_batch(&g, &[(2, 3)], &[(3, 2)]);
        assert_same_graph(&g2, &g);
        assert_eq!(d.inserted(), 1);
        assert_eq!(d.removed(), 1);
        let e_old = g.edge_id(2, 3).unwrap();
        assert_eq!(d.old_to_new[e_old as usize], NO_ID);
        assert_eq!(d.inserted_ids, vec![g2.edge_id(2, 3).unwrap()]);
    }

    #[test]
    fn vertex_set_grows_but_never_shrinks() {
        let g = graph_from_edges([(0, 1), (1, 2)]);
        let (g2, _) = apply_edge_batch(&g, &[(4, 5)], &[(1, 2)]);
        assert_eq!(g2.num_vertices(), 6);
        assert_eq!(g2.degree(2), 0);
        let (g3, _) = apply_edge_batch(&g2, &[], &[(4, 5)]);
        assert_eq!(g3.num_vertices(), 6);
    }

    #[test]
    fn triangle_delta_matches_from_scratch() {
        let g = two_k4s();
        let tl = TriangleList::build(&g);
        let ins = [(0, 4), (1, 6), (0, 6)];
        let rm = [(2, 3), (4, 5)];
        let (g2, d) = apply_edge_batch(&g, &ins, &rm);
        let td = triangle_delta(&tl, &g2, &d);
        let fresh = TriangleList::build(&g2);
        assert_eq!(td.list.tri_verts, fresh.tri_verts);
        assert_eq!(td.list.tri_edges, fresh.tri_edges);
        for e in 0..g2.num_edges() as EdgeId {
            assert_eq!(td.list.triangles_of_edge(e), fresh.triangles_of_edge(e));
            assert_eq!(td.list.thirds_of_edge(e), fresh.thirds_of_edge(e));
        }
        // Remap consistency: survivors keep their vertex triple.
        for (old, &new) in td.old_to_new.iter().enumerate() {
            if new != NO_ID {
                assert_eq!(tl.tri_verts[old], td.list.tri_verts[new as usize]);
                assert_eq!(td.new_to_old[new as usize] as usize, old);
            }
        }
        for &t in &td.created {
            assert_eq!(td.new_to_old[t as usize], NO_ID);
        }
        // Destroyed triangles all contained a removed edge.
        for &t in &td.destroyed {
            let es = tl.tri_edges[t as usize];
            assert!(es.iter().any(|&e| d.old_to_new[e as usize] == NO_ID), "triangle {t}");
        }
    }

    #[test]
    fn k4_touched_covers_all_k4_changes() {
        let g = two_k4s();
        let tl = TriangleList::build(&g);
        // Removing (0,1) destroys the first K4; inserting (1,4),(1,5)
        // creates K4 {1,2,3,4}? (needs 1-4, 2-4, 3-4, 2-3, 1-2, 1-3: yes)
        let ins = [(1, 4), (1, 5)];
        let rm = [(0, 1)];
        let (g2, d) = apply_edge_batch(&g, &ins, &rm);
        let td = triangle_delta(&tl, &g2, &d);
        let touched = mark_k4_touched(&g, &tl, &g2, &td.list, &d, &td);
        // Ground truth: compare K4 counts per surviving triangle.
        let old_counts = crate::cliques4::count_k4_per_triangle(&g, &tl);
        let new_counts = crate::cliques4::count_k4_per_triangle(&g2, &td.list);
        for (new_t, &old_t) in td.new_to_old.iter().enumerate() {
            if old_t != NO_ID && new_counts[new_t] != old_counts[old_t as usize] {
                assert!(touched[new_t], "triangle {new_t} changed K4 count but is unmarked");
            }
        }
        for &t in &td.created {
            assert!(touched[t as usize]);
        }
    }
}
