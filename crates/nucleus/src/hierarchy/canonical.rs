//! Canonical forms for forest equivalence.
//!
//! Two [`Hierarchy`] values built by different routes ([`super::build_hierarchy`]
//! vs a naive reference, or two builds over differently numbered or
//! ordered inputs) represent the same
//! forest but differ in node numbering and in the order of `children` /
//! `own_cliques` / `roots` — all artifacts of construction order. Node ids
//! are renumbering-dependent, so `==` on the raw structs is meaningless
//! across routes. [`Hierarchy::canonical`] quotients those artifacts away:
//!
//! * `own_cliques` and `roots`/`children` orders are sorted;
//! * siblings are ordered by their subtree's minimum member clique (member
//!   sets of sibling subtrees are disjoint, so the key is a total order);
//! * nodes are renumbered by a DFS preorder over the sorted roots.
//!
//! After canonicalization, structural identity **is** `==` — which is what
//! [`assert_forest_eq`] checks, with a first-difference diagnostic for the
//! property suites.

use super::{Hierarchy, HierarchyNode};

impl Hierarchy {
    /// The canonical form: same forest, construction-order artifacts
    /// removed (see the module docs). Idempotent; two hierarchies are
    /// structurally equivalent iff their canonical forms are `==`.
    pub fn canonical(&self) -> Hierarchy {
        let n = self.nodes.len();
        // Subtree sort key: the minimum member clique id of the subtree
        // (disjoint across siblings and across roots, hence a total order
        // wherever it is used; u32::MAX only for memberless subtrees,
        // which build_hierarchy never produces).
        let mut min_member = vec![u32::MAX; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut stack: Vec<(u32, usize)> = self.roots.iter().map(|&r| (r, 0)).collect();
        while let Some((x, child_at)) = stack.pop() {
            let node = &self.nodes[x as usize];
            if child_at < node.children.len() {
                stack.push((x, child_at + 1));
                stack.push((node.children[child_at], 0));
            } else {
                let own = node.own_cliques.iter().copied().min().unwrap_or(u32::MAX);
                let kids =
                    node.children.iter().map(|&c| min_member[c as usize]).min().unwrap_or(u32::MAX);
                min_member[x as usize] = own.min(kids);
                order.push(x);
            }
        }
        assert_eq!(order.len(), n, "roots do not cover every node exactly once");

        // DFS preorder over sorted roots with children sorted by key.
        let mut sorted_roots = self.roots.clone();
        sorted_roots.sort_unstable_by_key(|&r| min_member[r as usize]);
        let mut remap = vec![u32::MAX; n];
        let mut preorder: Vec<u32> = Vec::with_capacity(n);
        let mut dfs: Vec<u32> = sorted_roots.iter().rev().copied().collect();
        while let Some(x) = dfs.pop() {
            remap[x as usize] = preorder.len() as u32;
            preorder.push(x);
            let mut kids = self.nodes[x as usize].children.clone();
            kids.sort_unstable_by_key(|&c| min_member[c as usize]);
            dfs.extend(kids.iter().rev());
        }

        let nodes: Vec<HierarchyNode> = preorder
            .iter()
            .map(|&x| {
                let node = &self.nodes[x as usize];
                let mut children: Vec<u32> =
                    node.children.iter().map(|&c| remap[c as usize]).collect();
                children.sort_unstable();
                let mut own_cliques = node.own_cliques.clone();
                own_cliques.sort_unstable();
                HierarchyNode {
                    k: node.k,
                    parent: node.parent.map(|p| remap[p as usize]),
                    children,
                    own_cliques,
                    size: node.size,
                }
            })
            .collect();
        let roots: Vec<u32> = sorted_roots.iter().map(|&r| remap[r as usize]).collect();
        Hierarchy { nodes, roots, rs: self.rs }
    }
}

/// Asserts structural equivalence of two forests (canonical-form
/// equality), with a first-difference diagnostic naming the node and field
/// that diverge.
///
/// # Panics
/// Panics (like `assert_eq!`) when the forests are not equivalent.
#[track_caller]
pub fn assert_forest_eq(actual: &Hierarchy, expected: &Hierarchy) {
    let a = actual.canonical();
    let b = expected.canonical();
    if a == b {
        return;
    }
    assert_eq!(a.rs, b.rs, "forests decompose different (r, s) spaces");
    assert_eq!(
        a.nodes.len(),
        b.nodes.len(),
        "node counts differ: {} vs {} (roots {} vs {})",
        a.nodes.len(),
        b.nodes.len(),
        a.roots.len(),
        b.roots.len()
    );
    assert_eq!(a.roots, b.roots, "root sets differ");
    for (id, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
        assert_eq!(na.k, nb.k, "canonical node {id}: k differs ({} vs {})", na.k, nb.k);
        assert_eq!(na.parent, nb.parent, "canonical node {id} (k={}): parent differs", na.k);
        assert_eq!(na.children, nb.children, "canonical node {id} (k={}): children differ", na.k);
        assert_eq!(
            na.own_cliques, nb.own_cliques,
            "canonical node {id} (k={}): own_cliques differ",
            na.k
        );
        assert_eq!(na.size, nb.size, "canonical node {id} (k={}): size differs", na.k);
    }
    unreachable!("canonical forms differ but no field mismatch was found");
}

#[cfg(test)]
mod tests {
    use super::super::build_hierarchy;
    use super::*;
    use crate::peel::peel;
    use crate::space::{CachedSpace, CoreSpace};

    fn sample_forest() -> Hierarchy {
        let g = hdsd_datasets::holme_kim(100, 4, 0.5, 11);
        let sp = CachedSpace::build(&CoreSpace::new(&g));
        let kappa = peel(&sp).kappa;
        build_hierarchy(&sp, &kappa)
    }

    #[test]
    fn canonical_is_idempotent_and_equivalent() {
        let h = sample_forest();
        let c = h.canonical();
        assert_eq!(c.canonical(), c, "canonicalization must be idempotent");
        assert_forest_eq(&h, &c);
        // The canonical form preserves every structural aggregate.
        assert_eq!(c.len(), h.len());
        assert_eq!(c.depth(), h.depth());
        let sizes = |f: &Hierarchy| {
            let mut v: Vec<usize> = f.nodes.iter().map(|n| n.size).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&c), sizes(&h));
        // Parent/child links stay mutually consistent after renumbering.
        for (i, node) in c.nodes.iter().enumerate() {
            for &ch in &node.children {
                assert_eq!(c.nodes[ch as usize].parent, Some(i as u32));
            }
            if let Some(p) = node.parent {
                assert!(c.nodes[p as usize].children.contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn canonical_erases_permutation_artifacts() {
        let h = sample_forest();
        // Permute node ids and shuffle child/own orders: still equivalent.
        let n = h.nodes.len() as u32;
        let perm: Vec<u32> = (0..n).map(|i| (i + n / 2 + 1) % n).collect();
        let mut nodes: Vec<HierarchyNode> = vec![
            HierarchyNode {
                k: 0,
                parent: None,
                children: Vec::new(),
                own_cliques: Vec::new(),
                size: 0
            };
            n as usize
        ];
        for (i, node) in h.nodes.iter().enumerate() {
            let mut clone = node.clone();
            clone.parent = clone.parent.map(|p| perm[p as usize]);
            for c in &mut clone.children {
                *c = perm[*c as usize];
            }
            clone.children.reverse();
            clone.own_cliques.reverse();
            nodes[perm[i] as usize] = clone;
        }
        let mut roots: Vec<u32> = h.roots.iter().map(|&r| perm[r as usize]).collect();
        roots.reverse();
        let permuted = Hierarchy { nodes, roots, rs: h.rs };
        assert_forest_eq(&permuted, &h);
    }

    #[test]
    #[should_panic(expected = "k differs")]
    fn assert_forest_eq_catches_threshold_changes() {
        let h = sample_forest();
        let mut broken = h.clone();
        broken.nodes[0].k += 1;
        assert_forest_eq(&broken, &h);
    }

    #[test]
    #[should_panic]
    fn assert_forest_eq_catches_member_moves() {
        let h = sample_forest();
        let mut broken = h.clone();
        // Move one own clique to a different node.
        let donor = (0..broken.nodes.len())
            .find(|&i| broken.nodes[i].own_cliques.len() > 1)
            .expect("some node owns two cliques");
        let taker = (0..broken.nodes.len()).find(|&i| i != donor).unwrap();
        let c = broken.nodes[donor].own_cliques.pop().unwrap();
        broken.nodes[taker].own_cliques.push(c);
        assert_forest_eq(&broken, &h);
    }
}
