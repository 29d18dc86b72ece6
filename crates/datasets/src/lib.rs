#![warn(missing_docs)]
//! # hdsd-datasets
//!
//! Workload generation for the experiments.
//!
//! The paper evaluates on ten real-world graphs (its Table 3): internet
//! topology, social networks, trust and follower networks, web graphs and
//! Wikipedia. Those inputs aren't redistributable here, so this crate
//! provides
//!
//! * seeded **synthetic generators** whose degree/clustering shapes match
//!   the classes the paper draws from — R-MAT and Barabási–Albert for
//!   heavy-tailed social/web graphs, planted-partition and nested
//!   communities for graphs with strong hierarchical structure, plus
//!   Erdős–Rényi and Watts–Strogatz controls; and
//! * a [`registry`] mapping each paper dataset name (`fb`, `sse`, `tw`, …)
//!   to a deterministic stand-in at laptop scale, with a `--scale` factor
//!   for growing toward paper scale on bigger hardware.
//!
//! All generators are deterministic given a seed, so every experiment the
//! `repro` binary regenerates is reproducible bit-for-bit.

pub mod generators;
pub mod registry;

pub use generators::{
    barabasi_albert, complete_graph, erdos_renyi_gnm, holme_kim, nested_communities,
    planted_partition, rmat, thin_edges, watts_strogatz, NestedCommunitySpec,
};
pub use registry::{Dataset, DatasetStats, ALL_DATASETS, CONVERGENCE_SET, SCALABILITY_SET};
