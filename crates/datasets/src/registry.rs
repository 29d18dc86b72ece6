//! The paper's dataset registry (its Table 3) with synthetic stand-ins.
//!
//! Every dataset the evaluation uses is available by its paper short name.
//! Calling [`Dataset::generate`] produces a deterministic synthetic graph
//! whose *class* matches the original (heavy-tailed social graph, web
//! graph, trust network, …) at a laptop-friendly scale; `scale > 1.0`
//! grows each stand-in toward the original size on bigger machines. If the
//! original SNAP file is present on disk, [`Dataset::load_or_generate`]
//! prefers it, so the harness reproduces the paper's exact inputs when they
//! are available.

use hdsd_graph::{io, CsrGraph};
use std::path::Path;

use crate::generators::{holme_kim, rmat};

/// A named dataset from the paper's Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// as-skitter: internet topology (1.7M / 11.1M in the paper).
    Ask,
    /// facebook: NIPS ego networks (4K / 88.2K) — reproduced at full scale.
    Fb,
    /// soc-LiveJournal (4.8M / 68.5M).
    Slj,
    /// soc-orkut (2.9M / 106.3M).
    Ork,
    /// soc-sign-epinions: trust network (131.8K / 711.2K).
    Sse,
    /// soc-twitter-higgs: follower network (456.6K / 12.5M).
    Hg,
    /// twitter: follower network (81.3K / 1.3M).
    Tw,
    /// web-Google (916.4K / 4.3M).
    Wgo,
    /// web-NotreDame (325.7K / 1.1M).
    Wnd,
    /// wikipedia-200611 (3.1M / 37.0M).
    Wiki,
}

/// All ten datasets, in the paper's Table 3 order.
pub const ALL_DATASETS: [Dataset; 10] = [
    Dataset::Ask,
    Dataset::Fb,
    Dataset::Slj,
    Dataset::Ork,
    Dataset::Sse,
    Dataset::Hg,
    Dataset::Tw,
    Dataset::Wgo,
    Dataset::Wnd,
    Dataset::Wiki,
];

/// The five graphs of the paper's Figure 1a convergence plot.
pub const CONVERGENCE_SET: [Dataset; 5] =
    [Dataset::Fb, Dataset::Sse, Dataset::Tw, Dataset::Wnd, Dataset::Wiki];

/// The graphs of the paper's Figure 1b scalability plot (FRI/friendster is
/// not in Table 3; the paper's slot is filled by its closest stand-in SLJ).
pub const SCALABILITY_SET: [Dataset; 6] =
    [Dataset::Ask, Dataset::Slj, Dataset::Hg, Dataset::Ork, Dataset::Slj, Dataset::Wiki];

/// Paper-reported statistics (printed beside the stand-ins by `repro t3`).
#[derive(Clone, Copy, Debug)]
pub struct DatasetStats {
    /// Vertices in the original graph.
    pub vertices: u64,
    /// Edges in the original graph.
    pub edges: u64,
    /// Triangles in the original graph.
    pub triangles: u64,
    /// Four-cliques in the original graph.
    pub k4: u64,
}

impl Dataset {
    /// Paper short name (Table 3).
    pub fn short_name(self) -> &'static str {
        match self {
            Dataset::Ask => "ask",
            Dataset::Fb => "fb",
            Dataset::Slj => "slj",
            Dataset::Ork => "ork",
            Dataset::Sse => "sse",
            Dataset::Hg => "hg",
            Dataset::Tw => "tw",
            Dataset::Wgo => "wgo",
            Dataset::Wnd => "wnd",
            Dataset::Wiki => "wiki",
        }
    }

    /// Full name as printed in the paper.
    pub fn full_name(self) -> &'static str {
        match self {
            Dataset::Ask => "as-skitter",
            Dataset::Fb => "facebook",
            Dataset::Slj => "soc-LiveJournal",
            Dataset::Ork => "soc-orkut",
            Dataset::Sse => "soc-sign-epinions",
            Dataset::Hg => "soc-twitter-higgs",
            Dataset::Tw => "twitter",
            Dataset::Wgo => "web-Google",
            Dataset::Wnd => "web-NotreDame",
            Dataset::Wiki => "wikipedia-200611",
        }
    }

    /// Parses a paper short name.
    pub fn from_short_name(s: &str) -> Option<Dataset> {
        ALL_DATASETS.iter().copied().find(|d| d.short_name() == s)
    }

    /// The statistics the paper reports for the *original* graph.
    pub fn paper_stats(self) -> DatasetStats {
        let (v, e, t, k) = match self {
            Dataset::Ask => (1_700_000, 11_100_000, 28_800_000, 148_800_000),
            Dataset::Fb => (4_000, 88_200, 1_600_000, 30_000_000),
            Dataset::Slj => (4_800_000, 68_500_000, 285_700_000, 9_900_000_000),
            Dataset::Ork => (2_900_000, 106_300_000, 524_600_000, 2_400_000_000),
            Dataset::Sse => (131_800, 711_200, 4_900_000, 58_600_000),
            Dataset::Hg => (456_600, 12_500_000, 83_000_000, 429_700_000),
            Dataset::Tw => (81_300, 1_300_000, 13_100_000, 104_900_000),
            Dataset::Wgo => (916_400, 4_300_000, 13_400_000, 39_900_000),
            Dataset::Wnd => (325_700, 1_100_000, 8_900_000, 231_900_000),
            Dataset::Wiki => (3_100_000, 37_000_000, 88_800_000, 162_900_000),
        };
        DatasetStats { vertices: v, edges: e, triangles: t, k4: k }
    }

    /// Deterministic synthetic stand-in. `scale = 1.0` is the default
    /// laptop size; larger values grow the vertex count proportionally
    /// while keeping the average degree of the model.
    pub fn generate(self, scale: f64) -> CsrGraph {
        let scale = scale.max(0.05);
        let n = |base: u32| -> u32 { ((base as f64 * scale) as u32).max(64) };
        let rmat_scale = |base_pow: u32| -> u32 {
            let target = (1u64 << base_pow) as f64 * scale;
            (target.log2().round() as u32).clamp(6, 26)
        };
        let seed = 0x5eed_0000 + self as u64;
        // Attachment models are thinned (each edge kept w.p. 0.72) so the
        // degree distribution gains the low-degree tail of real social
        // graphs; without it the k-core decomposition would be constant.
        let social = |nv: u32, m: u32, pt: f64| {
            crate::generators::thin_edges(&holme_kim(nv, m, pt, seed), 0.72, seed ^ 0xA5A5)
        };
        match self {
            // Internet topology: skewed, moderately clustered.
            Dataset::Ask => rmat(rmat_scale(14), 7, (0.57, 0.19, 0.19, 0.05), seed),
            // facebook is small enough to reproduce at its true scale:
            // 4K vertices, ~88K edges, very triangle-dense.
            Dataset::Fb => social(n(4_000), 31, 0.6),
            Dataset::Slj => rmat(rmat_scale(14), 14, (0.57, 0.19, 0.19, 0.05), seed),
            Dataset::Ork => social(n(10_000), 42, 0.4),
            Dataset::Sse => social(n(13_000), 7, 0.35),
            Dataset::Hg => social(n(9_000), 19, 0.45),
            Dataset::Tw => social(n(8_000), 22, 0.5),
            Dataset::Wgo => rmat(rmat_scale(14), 5, (0.6, 0.18, 0.18, 0.04), seed),
            Dataset::Wnd => rmat(rmat_scale(13), 4, (0.65, 0.15, 0.15, 0.05), seed),
            Dataset::Wiki => rmat(rmat_scale(15), 12, (0.55, 0.2, 0.2, 0.05), seed),
        }
    }

    /// Loads the original SNAP file from `data_dir/<full_name>.txt` when
    /// present, otherwise generates the stand-in.
    pub fn load_or_generate(self, data_dir: impl AsRef<Path>, scale: f64) -> CsrGraph {
        let path = data_dir.as_ref().join(format!("{}.txt", self.full_name()));
        if path.exists() {
            match io::read_edge_list(&path) {
                Ok(g) => return g,
                Err(e) => eprintln!(
                    "warning: failed to read {} ({}); falling back to synthetic stand-in",
                    path.display(),
                    e
                ),
            }
        }
        self.generate(scale)
    }

    /// Whether the (3,4) decomposition is run on this dataset in the
    /// default harness (K4 enumeration cost grows steeply with density).
    pub fn k34_feasible(self) -> bool {
        matches!(self, Dataset::Fb | Dataset::Sse | Dataset::Tw | Dataset::Wnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for d in ALL_DATASETS {
            assert_eq!(Dataset::from_short_name(d.short_name()), Some(d));
        }
        assert_eq!(Dataset::from_short_name("nope"), None);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Sse.generate(0.1);
        let b = Dataset::Sse.generate(0.1);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn scale_grows_graphs() {
        let small = Dataset::Tw.generate(0.05);
        let large = Dataset::Tw.generate(0.2);
        assert!(large.num_vertices() > small.num_vertices());
        assert!(large.num_edges() > small.num_edges());
    }

    #[test]
    fn fb_standin_matches_paper_scale() {
        let g = Dataset::Fb.generate(1.0);
        // the original: 4K vertices, 88.2K edges
        assert_eq!(g.num_vertices(), 4_000);
        let m = g.num_edges() as f64;
        assert!((70_000.0..110_000.0).contains(&m), "fb edges {m}");
    }

    #[test]
    fn all_standins_generate_at_tiny_scale() {
        for d in ALL_DATASETS {
            let g = d.generate(0.05);
            assert!(g.num_vertices() >= 64, "{}", d.short_name());
            assert!(g.num_edges() > 0, "{}", d.short_name());
        }
    }

    #[test]
    fn load_or_generate_falls_back() {
        let g = Dataset::Fb.load_or_generate("/nonexistent-dir", 0.05);
        assert!(g.num_edges() > 0);
    }
}
