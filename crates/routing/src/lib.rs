//! Shortest-path routing substrate for the RTR reproduction.
//!
//! Link-state intra-domain routing (OSPF/IS-IS-style) as assumed by the
//! paper's §II-A: every router shares a consistent topology view and
//! forwards along shortest paths with deterministic tie-breaking.
//!
//! * [`dijkstra`](crate::dijkstra::dijkstra) — single-source shortest paths
//!   over any [`rtr_topology::GraphView`];
//! * [`IncrementalSpt`] — Narvaez-style dynamic SPT repair after link
//!   removals, the recomputation engine of RTR's second phase (§III-D);
//! * [`RoutingTable`] — the per-router default next hops;
//! * [`SourceRoute`] — the strict hop list carried in recovered packets.
//!
//! # Examples
//!
//! ```
//! use rtr_topology::{generate, FullView, NodeId};
//! use rtr_routing::{dijkstra, RoutingTable};
//!
//! let topo = generate::grid(3, 3, 10.0);
//! let sp = dijkstra::dijkstra(&topo, &FullView, NodeId(0));
//! assert_eq!(sp.distance(NodeId(8)), Some(4));
//!
//! let table = RoutingTable::compute(&topo, &FullView);
//! assert!(table.next_hop(NodeId(0), NodeId(8)).is_some());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod dial;
pub mod dijkstra;
pub mod path;
pub mod source_route;
pub mod spt;
pub mod table;

pub use dijkstra::{bfs_hops, shortest_path, DijkstraScratch, ShortestPaths};
pub use path::Path;
pub use source_route::{SourceRoute, BYTES_PER_HOP};
pub use spt::{IncrementalSpt, SptScratch};
pub use table::RoutingTable;

/// Accepted and ignored; exists only because `perfbench/` names it;
/// delete with ROADMAP item 2.
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy)]
pub struct Kernels;
