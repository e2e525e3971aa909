//! Network topologies for the gradient clock-synchronization reproduction.
//!
//! The paper models a distributed system as a connected, undirected graph
//! `G = (V, E)` of diameter `D`; every skew bound is stated in terms of graph
//! distances (`d(v, w)`) and `D`. This crate provides:
//!
//! * [`Graph`] — a validated, connected, undirected simple graph with
//!   BFS-based distance queries, eccentricities, diameter, and shortest
//!   paths (needed by the lower-bound constructions of the paper's
//!   Section 7, which walk shortest paths between chosen node pairs),
//! * [`NodeId`] — a typed node index,
//! * topology generators in [`topology`] — paths, cycles, stars, complete
//!   graphs, balanced trees, 2-D grids and tori, hypercubes, and seeded
//!   random graphs (Erdős–Rényi and random geometric), the workloads used by
//!   the experiment harness.
//!
//! # Example
//!
//! ```
//! use gcs_graph::{topology, NodeId};
//!
//! let g = topology::grid(4, 5);
//! assert_eq!(g.len(), 20);
//! assert_eq!(g.diameter(), 7); // (4-1) + (5-1)
//! let d = g.distance(NodeId(0), NodeId(19));
//! assert_eq!(d, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
pub mod topology;

pub use build::{Graph, GraphError, NodeId};
