//! # rf-topo — network topologies for the reproduction
//!
//! The paper evaluates on **ring topologies of varying size** (Fig. 3)
//! and demonstrates on an **emulated pan-European topology of 28
//! nodes** (Section 3, citing Maesschalck et al., *Pan-European optical
//! transport networks*, 2003). This crate provides:
//!
//! * a minimal undirected multigraph ([`Topology`]) with the queries
//!   the experiments need (connectivity, degrees, BFS distances,
//!   diameter);
//! * deterministic generators ([`generators`]): ring, line, star, grid,
//!   full mesh, fat-tree and leaf–spine fabrics, Erdős–Rényi and
//!   Waxman random graphs;
//! * the 28-node / 41-link pan-European reference network
//!   ([`pan_european::pan_european`]) with city names and geographic
//!   coordinates, from which per-link propagation latencies are derived
//!   (fiber at ~200 km/ms);
//! * a checked-in corpus of classic WAN topologies ([`corpus`]) and a
//!   typed, name-round-tripping specification API ([`spec::TopoSpec`])
//!   that reaches every family above.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod generators;
pub mod graph;
pub mod pan_european;
pub mod spec;

pub use generators::{
    erdos_renyi, fat_tree, full_mesh, grid, leaf_spine, line, ring, star, waxman,
};
pub use graph::{Edge, NodeId, NodeInfo, Topology};
pub use pan_european::pan_european;
pub use spec::{SeededKind, TopoParseError, TopoSpec};
