//! The network model: an undirected multigraph-free graph of routers and
//! links with geometric embedding and (possibly asymmetric) link costs.
//!
//! This mirrors the paper's §II-A model: the network is an undirected graph;
//! the link from `vi` to `vj` has a cost `c(i,j)` which may differ from
//! `c(j,i)`; every node knows the full topology and the coordinates of all
//! nodes. The evaluation (§IV-A) uses hop-count routing, i.e. all costs 1.

use crate::geometry::{Point, Segment};
use std::fmt;

/// Maximum number of nodes or links in one topology (2²⁴).
///
/// Ids are assigned densely from zero, and several structures index by id:
/// the CSR adjacency keeps `u32` offsets (entry count is `2 · links`, safe
/// below 2²⁵), and per-link bitsets stay addressable. The paper's packet
/// headers encode ids in 16 bits (§III-B) — the Table II topologies sit
/// far inside that — but the scale sweep (`BENCH_scale.json`) drives the
/// substrate to 100k+ nodes, so construction accepts the full 24-bit
/// space; header-byte accounting remains exact for topologies within the
/// 16-bit wire format.
pub const MAX_IDS: usize = 1 << 24;

/// Identifier of a node (router). Indexes into [`Topology`] storage.
///
/// The paper's packet headers encode node ids in 16 bits; the substrate
/// itself accepts up to [`MAX_IDS`] nodes for scale experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index of this node in the topology's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an undirected link. Indexes into [`Topology`] storage.
///
/// The paper's packet headers encode link ids in 16 bits (§III-B); the
/// substrate itself accepts up to [`MAX_IDS`] links for scale experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The index of this link in the topology's link table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected link with per-direction costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    a: NodeId,
    b: NodeId,
    /// Cost in the a→b direction.
    cost_ab: u32,
    /// Cost in the b→a direction (may differ; the model allows asymmetry).
    cost_ba: u32,
}

impl Link {
    /// The endpoint with the smaller id at construction time.
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// The other endpoint.
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// Both endpoints as a pair `(a, b)`.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// Cost of traversing the link starting at `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    // Documented contract panic: callers obtain `from` from this link's own
    // endpoints; a mismatch is a caller bug, not a recoverable condition.
    #[allow(clippy::panic)]
    pub fn cost_from(&self, from: NodeId) -> u32 {
        if from == self.a {
            self.cost_ab
        } else if from == self.b {
            self.cost_ba
        } else {
            panic!("{from} is not an endpoint of this link");
        }
    }

    /// The endpoint opposite to `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    // Documented contract panic: see `cost_from`.
    #[allow(clippy::panic)]
    pub fn other_end(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("{from} is not an endpoint of this link");
        }
    }

    /// Returns true when `n` is one of the link's endpoints.
    pub fn is_incident_to(&self, n: NodeId) -> bool {
        self.a == n || self.b == n
    }
}

/// Errors produced while building or loading a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link referenced a node id not present in the topology.
    UnknownNode(NodeId),
    /// A self-loop was added; the model is a simple graph.
    SelfLoop(NodeId),
    /// A duplicate link between the same pair of nodes was added.
    DuplicateLink(NodeId, NodeId),
    /// A node coordinate was NaN or infinite.
    BadCoordinate(usize),
    /// A link cost of zero was supplied; costs must be positive.
    ZeroCost(NodeId, NodeId),
    /// Too many nodes or links for the topology id space ([`MAX_IDS`]).
    TooLarge(&'static str),
    /// A topology file could not be parsed.
    Parse(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link between {a} and {b}"),
            TopologyError::BadCoordinate(i) => {
                write!(f, "non-finite coordinate for node index {i}")
            }
            TopologyError::ZeroCost(a, b) => write!(f, "zero cost on link between {a} and {b}"),
            TopologyError::TooLarge(what) => {
                write!(f, "too many {what} for the 24-bit topology id space")
            }
            TopologyError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable network topology: routers with coordinates plus links.
///
/// Build one with [`TopologyBuilder`]:
///
/// ```
/// use rtr_topology::{Topology, Point};
/// # fn main() -> Result<(), rtr_topology::TopologyError> {
/// let mut b = Topology::builder();
/// let v0 = b.add_node(Point::new(0.0, 0.0));
/// let v1 = b.add_node(Point::new(1.0, 0.0));
/// b.add_link(v0, v1, 1)?;
/// let topo = b.build()?;
/// assert_eq!(topo.node_count(), 2);
/// assert_eq!(topo.link_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point>,
    links: Vec<Link>,
    /// CSR adjacency: node `n`'s `(neighbor, link)` pairs live at
    /// `adj_entries[adj_offsets[n] .. adj_offsets[n + 1]]`, in insertion
    /// order. One flat allocation keeps the per-node neighbor scans of the
    /// shortest-path kernels on contiguous memory instead of chasing a
    /// `Vec<Vec<_>>` pointer per node.
    adj_offsets: Vec<u32>,
    /// Flat `(neighbor, link)` entries backing [`Topology::neighbors`].
    adj_entries: Vec<(NodeId, LinkId)>,
    /// Absolute direction of each adjacency entry, parallel to
    /// `adj_entries`, backing [`Topology::neighbor_angles`].
    adj_angles: Vec<f64>,
    /// Largest per-direction link cost, fixed at build time. Bounds the
    /// key span of any Dijkstra frontier (see [`Topology::max_link_cost`]).
    max_link_cost: u32,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::new()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all node ids, in increasing order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// Iterator over all link ids, in increasing order.
    pub fn link_ids(&self) -> impl ExactSizeIterator<Item = LinkId> {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    // Documented contract panic: `NodeId`s are only minted by the builder of
    // the topology they index, so out-of-range means a cross-topology mixup.
    #[allow(clippy::indexing_slicing)]
    pub fn position(&self, n: NodeId) -> Point {
        self.positions[n.index()]
    }

    /// The link record for `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    // Documented contract panic: see `position`.
    #[allow(clippy::indexing_slicing)]
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    /// Geometric embedding of link `l` as a straight segment.
    pub fn segment(&self, l: LinkId) -> Segment {
        let link = self.link(l);
        Segment::new(self.position(link.a), self.position(link.b))
    }

    /// Neighbors of `n` as `(neighbor, link)` pairs, in insertion order.
    /// An out-of-range node has no neighbors.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        self.adj_entries.get(self.adj_range(n)).unwrap_or(&[])
    }

    /// Absolute direction (radians, in `[-π, π]`) from `n` toward each of
    /// its neighbors, parallel to [`neighbors`](Self::neighbors): entry `i`
    /// is `(q.y - p.y).atan2(q.x - p.x)` for `p = position(n)` and `q` the
    /// position of `neighbors(n)[i].0`. Computed once at build time so the
    /// phase-1 sweep ranks candidates without trigonometry.
    pub fn neighbor_angles(&self, n: NodeId) -> &[f64] {
        self.adj_angles.get(self.adj_range(n)).unwrap_or(&[])
    }

    /// Node `n`'s slots in the CSR arrays (empty when out of range).
    fn adj_range(&self, n: NodeId) -> std::ops::Range<usize> {
        let i = n.index();
        match (self.adj_offsets.get(i), self.adj_offsets.get(i + 1)) {
            (Some(&start), Some(&end)) => start as usize..end as usize,
            _ => 0..0,
        }
    }

    /// Degree of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// The link between `a` and `b`, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.neighbors(a)
            .iter()
            .find(|&&(nbr, _)| nbr == b)
            .map(|&(_, l)| l)
    }

    /// Cost of traversing link `l` starting from node `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `l`.
    pub fn cost_from(&self, l: LinkId, from: NodeId) -> u32 {
        self.link(l).cost_from(from)
    }

    /// The largest per-direction link cost in the topology, or 0 when it
    /// has no links. Computed once at build time.
    ///
    /// Because all costs are positive and bounded by this value, every key
    /// pushed by a Dijkstra run lies within `max_link_cost` of the key
    /// being settled — the monotonicity bound that sizes the Dial bucket
    /// queue in `rtr-routing`.
    pub fn max_link_cost(&self) -> u32 {
        self.max_link_cost
    }

    /// Euclidean length of link `l`'s embedding.
    pub fn link_length(&self, l: LinkId) -> f64 {
        self.segment(l).length()
    }

    /// Returns true when the whole graph is connected (ignoring failures).
    pub fn is_connected(&self) -> bool {
        if self.positions.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![NodeId(0)];
        if let Some(s) = seen.first_mut() {
            *s = true;
        }
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(nbr, _) in self.neighbors(n) {
                if let Some(s) = seen.get_mut(nbr.index()) {
                    if !*s {
                        *s = true;
                        count += 1;
                        stack.push(nbr);
                    }
                }
            }
        }
        count == self.node_count()
    }

    /// Returns true when no two link embeddings properly cross, i.e. the
    /// embedding is planar as drawn.
    pub fn is_planar_embedding(&self) -> bool {
        use crate::geometry::segments_cross;
        for i in 0..self.links.len() {
            for j in (i + 1)..self.links.len() {
                if segments_cross(
                    self.segment(LinkId(i as u32)),
                    self.segment(LinkId(j as u32)),
                ) {
                    return false;
                }
            }
        }
        true
    }
}

/// Incremental builder for [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    positions: Vec<Point>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at `pos` and returns its id.
    pub fn add_node(&mut self, pos: impl Into<Point>) -> NodeId {
        let id = NodeId(self.positions.len() as u32);
        self.positions.push(pos.into());
        self.adjacency.push(Vec::new());
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of links added so far.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns true when a link between `a` and `b` was already added.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency
            .get(a.index())
            .is_some_and(|adj| adj.iter().any(|&(nbr, _)| nbr == b))
    }

    /// Adds an undirected link with a symmetric cost.
    ///
    /// # Errors
    ///
    /// See [`TopologyBuilder::add_link_asymmetric`].
    pub fn add_link(&mut self, a: NodeId, b: NodeId, cost: u32) -> Result<LinkId, TopologyError> {
        self.add_link_asymmetric(a, b, cost, cost)
    }

    /// Adds an undirected link with per-direction costs (`cost_ab` for a→b).
    ///
    /// # Errors
    ///
    /// Fails on unknown endpoints, self-loops, duplicate links, or a zero
    /// cost in either direction.
    pub fn add_link_asymmetric(
        &mut self,
        a: NodeId,
        b: NodeId,
        cost_ab: u32,
        cost_ba: u32,
    ) -> Result<LinkId, TopologyError> {
        if a.index() >= self.positions.len() {
            return Err(TopologyError::UnknownNode(a));
        }
        if b.index() >= self.positions.len() {
            return Err(TopologyError::UnknownNode(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if self.has_link(a, b) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        if cost_ab == 0 || cost_ba == 0 {
            return Err(TopologyError::ZeroCost(a, b));
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            cost_ab,
            cost_ba,
        });
        if let Some(adj) = self.adjacency.get_mut(a.index()) {
            adj.push((b, id));
        }
        if let Some(adj) = self.adjacency.get_mut(b.index()) {
            adj.push((a, id));
        }
        Ok(id)
    }

    /// Finalizes the topology.
    ///
    /// # Errors
    ///
    /// Fails if any coordinate is non-finite or if node/link counts exceed
    /// the 24-bit topology id space ([`MAX_IDS`]).
    pub fn build(self) -> Result<Topology, TopologyError> {
        if let Some(i) = self.positions.iter().position(|p| !p.is_finite()) {
            return Err(TopologyError::BadCoordinate(i));
        }
        if self.positions.len() > MAX_IDS {
            return Err(TopologyError::TooLarge("nodes"));
        }
        if self.links.len() > MAX_IDS {
            return Err(TopologyError::TooLarge("links"));
        }
        // Flatten the builder's per-node lists into the CSR layout. Entry
        // counts are bounded by 2 * links <= 2^25, so offsets fit in u32.
        let mut adj_offsets = Vec::with_capacity(self.adjacency.len() + 1);
        let mut adj_entries = Vec::with_capacity(2 * self.links.len());
        let mut adj_angles = Vec::with_capacity(2 * self.links.len());
        adj_offsets.push(0u32);
        for (list, p) in self.adjacency.iter().zip(&self.positions) {
            adj_entries.extend_from_slice(list);
            adj_angles.extend(list.iter().map(|&(nbr, _)| {
                let q = self.positions.get(nbr.index()).copied().unwrap_or(*p);
                (q.y - p.y).atan2(q.x - p.x)
            }));
            adj_offsets.push(adj_entries.len() as u32);
        }
        let max_link_cost = self
            .links
            .iter()
            .map(|l| l.cost_ab.max(l.cost_ba))
            .max()
            .unwrap_or(0);
        Ok(Topology {
            positions: self.positions,
            links: self.links,
            adj_offsets,
            adj_entries,
            adj_angles,
            max_link_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(2.0, 0.0));
        let v2 = b.add_node(Point::new(1.0, 2.0));
        b.add_link(v0, v1, 1).unwrap();
        b.add_link(v1, v2, 1).unwrap();
        b.add_link(v2, v0, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_counts() {
        let topo = triangle();
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.link_count(), 3);
        assert_eq!(topo.node_ids().count(), 3);
        assert_eq!(topo.link_ids().count(), 3);
    }

    #[test]
    fn neighbors_and_degree() {
        let topo = triangle();
        assert_eq!(topo.degree(NodeId(0)), 2);
        let nbrs: Vec<NodeId> = topo.neighbors(NodeId(0)).iter().map(|&(n, _)| n).collect();
        assert_eq!(nbrs, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn out_of_range_node_has_no_neighbors() {
        let topo = triangle();
        assert!(topo.neighbors(NodeId(99)).is_empty());
        assert_eq!(topo.degree(NodeId(99)), 0);
    }

    #[test]
    fn csr_neighbors_match_builder_insertion_order() {
        // A star inserted hub-last: every rim node's first neighbor is the
        // next rim node (ring links first), then the hub.
        let mut b = Topology::builder();
        let hub = b.add_node(Point::new(0.0, 0.0));
        let mut rim = Vec::new();
        for i in 0..4 {
            rim.push(b.add_node(Point::new(1.0 + i as f64, 0.0)));
        }
        for i in 0..4usize {
            b.add_link(rim[i], rim[(i + 1) % 4], 1).unwrap();
        }
        for &r in &rim {
            b.add_link(hub, r, 1).unwrap();
        }
        let topo = b.build().unwrap();
        let hub_nbrs: Vec<NodeId> = topo.neighbors(hub).iter().map(|&(n, _)| n).collect();
        assert_eq!(hub_nbrs, rim);
        let r0: Vec<NodeId> = topo.neighbors(rim[0]).iter().map(|&(n, _)| n).collect();
        assert_eq!(r0, vec![rim[1], rim[3], hub]);
    }

    #[test]
    fn link_between_both_directions() {
        let topo = triangle();
        let l = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(topo.link_between(NodeId(1), NodeId(0)), Some(l));
        assert_eq!(topo.link_between(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn link_endpoints_and_other_end() {
        let topo = triangle();
        let l = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let link = topo.link(l);
        assert!(link.is_incident_to(NodeId(1)));
        assert!(link.is_incident_to(NodeId(2)));
        assert!(!link.is_incident_to(NodeId(0)));
        assert_eq!(link.other_end(NodeId(1)), NodeId(2));
        assert_eq!(link.other_end(NodeId(2)), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_end_panics_for_non_endpoint() {
        let topo = triangle();
        let l = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let _ = topo.link(l).other_end(NodeId(0));
    }

    #[test]
    fn asymmetric_costs() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let l = b.add_link_asymmetric(v0, v1, 3, 7).unwrap();
        let topo = b.build().unwrap();
        assert_eq!(topo.cost_from(l, v0), 3);
        assert_eq!(topo.cost_from(l, v1), 7);
    }

    #[test]
    fn max_link_cost_tracks_both_directions() {
        assert_eq!(triangle().max_link_cost(), 1);
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(2.0, 0.0));
        b.add_link(v0, v1, 3).unwrap();
        b.add_link_asymmetric(v1, v2, 2, 9).unwrap();
        assert_eq!(b.build().unwrap().max_link_cost(), 9);
        assert_eq!(Topology::builder().build().unwrap().max_link_cost(), 0);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        assert_eq!(b.add_link(v0, v0, 1), Err(TopologyError::SelfLoop(v0)));
    }

    #[test]
    fn rejects_duplicate_link() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_link(v0, v1, 1).unwrap();
        assert_eq!(
            b.add_link(v1, v0, 1),
            Err(TopologyError::DuplicateLink(v1, v0))
        );
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        assert_eq!(
            b.add_link(v0, NodeId(9), 1),
            Err(TopologyError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn rejects_zero_cost() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        assert_eq!(b.add_link(v0, v1, 0), Err(TopologyError::ZeroCost(v0, v1)));
    }

    #[test]
    fn rejects_bad_coordinates_at_build() {
        let mut b = Topology::builder();
        b.add_node(Point::new(f64::NAN, 0.0));
        assert_eq!(b.build().unwrap_err(), TopologyError::BadCoordinate(0));
    }

    #[test]
    fn connectivity() {
        let topo = triangle();
        assert!(topo.is_connected());

        let mut b = Topology::builder();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        let disconnected = b.build().unwrap();
        assert!(!disconnected.is_connected());

        let empty = Topology::builder().build().unwrap();
        assert!(empty.is_connected());
    }

    #[test]
    fn planar_embedding_detection() {
        assert!(triangle().is_planar_embedding());

        // An X of two crossing links.
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(2.0, 2.0));
        let v2 = b.add_node(Point::new(0.0, 2.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_link(v0, v1, 1).unwrap();
        b.add_link(v2, v3, 1).unwrap();
        let x = b.build().unwrap();
        assert!(!x.is_planar_embedding());
    }

    #[test]
    fn segment_embedding_matches_positions() {
        let topo = triangle();
        let l = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let s = topo.segment(l);
        assert_eq!(s.a, topo.position(topo.link(l).a()));
        assert_eq!(s.b, topo.position(topo.link(l).b()));
        assert_eq!(topo.link_length(l), 2.0);
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(4).to_string(), "v4");
        assert_eq!(LinkId(7).to_string(), "e7");
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(
            TopologyError::SelfLoop(NodeId(3)).to_string(),
            "self-loop at node v3"
        );
        assert_eq!(
            TopologyError::TooLarge("nodes").to_string(),
            "too many nodes for the 24-bit topology id space"
        );
    }
}
