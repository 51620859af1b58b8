//! Network topology substrate for the RTR reproduction.
//!
//! This crate provides everything below the routing layer for reproducing
//! *"Optimal Recovery from Large-Scale Failures in IP Networks"* (ICDCS
//! 2012):
//!
//! * [`geometry`] — points, segments, circles, polygons, proper-crossing
//!   tests, and the counterclockwise angular sweep used by RTR's right-hand
//!   rule;
//! * [`graph`] — the network model: routers with coordinates, links with
//!   (possibly asymmetric) positive costs;
//! * [`generate`] — deterministic topology generators: the ISP-like
//!   generator behind the synthetic Table II twins, plus Waxman,
//!   Barabási–Albert and hierarchical-PoP models for 10k–100k-node
//!   scale runs;
//! * [`grid`] — uniform-grid spatial indexes ([`SegmentGrid`],
//!   [`PointGrid`]) behind cross-link construction, region harvests and
//!   generator nearest-neighbor queries;
//! * [`isp`] — the paper's Table II topology inventory and a plain-text
//!   topology interchange format;
//! * [`failure`] — geographic failure regions, ground-truth failure
//!   scenarios, and the [`GraphView`] abstraction separating what the
//!   *simulator* knows from what a *router* knows;
//! * [`crosslinks`] — the precomputed link-crossing table required by
//!   Constraints 1 and 2 of RTR's first phase.
//!
//! # Quick start
//!
//! ```
//! use rtr_topology::{isp, Region, FailureScenario};
//!
//! // The paper's AS1239 twin: 52 routers, 84 links in a 2000×2000 area.
//! let topo = isp::profile("AS1239").unwrap().synthesize();
//! assert!(topo.is_connected());
//!
//! // A disaster: a circular area of radius 250 centred in the plane.
//! let region = Region::circle((1000.0, 1000.0), 250.0);
//! let scenario = FailureScenario::from_region(&topo, &region);
//!
//! // The simulator knows the ground truth; routers will have to discover it.
//! let failed = scenario.failed_node_count();
//! assert!(failed < topo.node_count());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod crosslinks;
pub mod failure;
pub mod generate;
pub mod geometry;
pub mod graph;
pub mod grid;
pub mod isp;
pub mod kernels;
pub mod pa;
pub mod timeline;

pub use bitset::LinkBitSet;
pub use crosslinks::CrossLinkTable;
pub use failure::{
    is_reachable, reachable_set, FailureScenario, FullView, GraphView, LinkMask, Region,
};
pub use generate::GenerateError;
pub use geometry::{Circle, Point, Polygon, Segment};
pub use graph::{Link, LinkId, NodeId, Topology, TopologyBuilder, TopologyError, MAX_IDS};
pub use grid::{PointGrid, SegmentGrid};
pub use kernels::MaskKernel;
pub use timeline::{Timeline, TimelineEvent};
