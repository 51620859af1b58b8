//! The right-hand rule: counterclockwise sweep selection of the next hop.
//!
//! §III-B: at node `v_m` that received the packet from `v_n`, "take link
//! `e_{m,n}` as the sweeping line and rotate it counterclockwise until
//! reaching a live neighbor; take this live neighbor as the next hop". The
//! recovery initiator sweeps from its failed default next-hop link instead.
//!
//! §III-C adds the exclusion: a candidate link that properly crosses any
//! link recorded in the packet's `cross_link` field must be skipped
//! (Constraints 1 and 2). The previous hop itself sits at angle 2π, making
//! it the last resort — this is what lets a packet back out of a dead end
//! and underpins the loop-freedom proof of Theorem 1.

use rtr_sim::LinkIdSet;
use rtr_topology::geometry::ccw_turn;
use rtr_topology::{CrossLinkTable, GraphView, LinkId, NodeId, Topology};

/// Borrowed context for the crossing-exclusion probes of one sweep: the
/// precomputed [`CrossLinkTable`] and the packet's current excluded set.
///
/// Constructing one is two pointer copies; phase 1 builds a fresh context
/// per selection because the header's excluded set grows between
/// selections.
#[derive(Debug, Clone, Copy)]
pub struct SweepContext<'a> {
    crosslinks: &'a CrossLinkTable,
    excluded: &'a LinkIdSet,
}

impl<'a> SweepContext<'a> {
    /// A context probing `excluded` against `crosslinks`.
    pub fn new(crosslinks: &'a CrossLinkTable, excluded: &'a LinkIdSet) -> Self {
        SweepContext {
            crosslinks,
            excluded,
        }
    }

    /// The crossing table this context probes against.
    pub fn crosslinks(&self) -> &'a CrossLinkTable {
        self.crosslinks
    }

    /// The excluded link set carried by the packet header.
    pub fn excluded(&self) -> &'a LinkIdSet {
        self.excluded
    }

    /// Returns true when `link` properly crosses any link in the excluded
    /// set (and therefore must not be selected by the sweep).
    ///
    /// On dense-mask tables this is word-parallel — the excluded set's
    /// bitset is ANDed against `link`'s precomputed crossing-mask row
    /// in 4×u64 chunks — so the cost is a handful of word
    /// operations regardless of how many links the header has recorded. On
    /// sparse tables (above the dense-mask link threshold) it walks
    /// `link`'s crossing list with O(1) bitset membership probes instead.
    #[inline]
    pub fn is_excluded(&self, link: LinkId) -> bool {
        self.crosslinks.crosses_any(link, self.excluded.bits())
    }
}

/// Selects the next hop at `at`, sweeping counterclockwise from the
/// direction of `reference` (the previous hop, or the unreachable default
/// next hop when `at` is the recovery initiator starting the phase).
///
/// A neighbor is eligible when:
/// * it is reachable from `at` in `view` (the link and the neighbor are
///   live), and
/// * its link does not properly cross any link in `ctx`'s excluded set.
///
/// Ties in angle break by node id so selection is deterministic. Returns
/// `None` only when *no* neighbor is eligible (the initiator is isolated).
///
/// # Panics
///
/// Panics if `reference` is not a neighbor of `at` (the sweeping line is
/// always one of `at`'s incident links).
pub fn select_next_hop(
    topo: &Topology,
    view: &impl GraphView,
    at: NodeId,
    reference: NodeId,
    ctx: &SweepContext<'_>,
) -> Option<(NodeId, LinkId)> {
    // Absolute directions were cached at build time (parallel to
    // `neighbors`), so each candidate costs one subtraction plus the
    // fixed `ccw_turn` normalisation — bit for bit `ccw_angle` of the
    // two position differences.
    let neighbors = topo.neighbors(at);
    let angles = topo.neighbor_angles(at);
    let ref_angle = neighbors
        .iter()
        .zip(angles)
        .find(|&(&(nbr, _), _)| nbr == reference)
        .map(|(_, &a)| a);
    assert!(
        ref_angle.is_some(),
        "sweep reference {reference} must be a neighbor of {at}"
    );
    let ref_angle = ref_angle.unwrap_or_default();

    let mut best: Option<(f64, NodeId, LinkId)> = None;
    for (&(nbr, link), &abs) in neighbors.iter().zip(angles) {
        if !view.is_link_usable(topo, link) {
            continue;
        }
        if ctx.is_excluded(link) {
            continue;
        }
        let candidate = (ccw_turn(ref_angle, abs), nbr, link);
        match best {
            None => best = Some(candidate),
            Some(cur) => {
                if (candidate.0, candidate.1) < (cur.0, cur.1) {
                    best = Some(candidate);
                }
            }
        }
    }
    best.map(|(_, nbr, link)| (nbr, link))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{FailureScenario, FullView, Point, Topology};

    /// A hub at the origin with four axis-aligned spokes:
    /// east v1, north v2, west v3, south v4.
    fn compass() -> Topology {
        let mut b = Topology::builder();
        b.add_node(Point::new(0.0, 0.0)); // v0 hub
        b.add_node(Point::new(10.0, 0.0)); // v1 east
        b.add_node(Point::new(0.0, 10.0)); // v2 north
        b.add_node(Point::new(-10.0, 0.0)); // v3 west
        b.add_node(Point::new(0.0, -10.0)); // v4 south
        for i in 1..=4 {
            b.add_link(NodeId(0), NodeId(i), 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn sweeps_counterclockwise_from_reference() {
        let topo = compass();
        let xl = CrossLinkTable::new(&topo);
        let none = LinkIdSet::new();
        let ctx = SweepContext::new(&xl, &none);
        // Sweeping from east: first CCW neighbor is north.
        let (nbr, _) = select_next_hop(&topo, &FullView, NodeId(0), NodeId(1), &ctx).unwrap();
        assert_eq!(nbr, NodeId(2));
        // Sweeping from north: first CCW neighbor is west.
        let (nbr, _) = select_next_hop(&topo, &FullView, NodeId(0), NodeId(2), &ctx).unwrap();
        assert_eq!(nbr, NodeId(3));
    }

    #[test]
    fn skips_dead_neighbors() {
        let topo = compass();
        let xl = CrossLinkTable::new(&topo);
        let none = LinkIdSet::new();
        let ctx = SweepContext::new(&xl, &none);
        // North dead: sweeping from east lands on west.
        let s = FailureScenario::from_parts(&topo, [NodeId(2)], []);
        let (nbr, _) = select_next_hop(&topo, &s, NodeId(0), NodeId(1), &ctx).unwrap();
        assert_eq!(nbr, NodeId(3));
    }

    #[test]
    fn reference_itself_is_last_resort() {
        let topo = compass();
        let xl = CrossLinkTable::new(&topo);
        let none = LinkIdSet::new();
        let ctx = SweepContext::new(&xl, &none);
        // Everything but the reference neighbor is dead: sweep returns the
        // reference (angle 2π) — the packet travels back where it came from.
        let s = FailureScenario::from_parts(&topo, [NodeId(2), NodeId(3), NodeId(4)], []);
        let (nbr, _) = select_next_hop(&topo, &s, NodeId(0), NodeId(1), &ctx).unwrap();
        assert_eq!(nbr, NodeId(1));
    }

    #[test]
    fn returns_none_when_isolated() {
        let topo = compass();
        let xl = CrossLinkTable::new(&topo);
        let none = LinkIdSet::new();
        let ctx = SweepContext::new(&xl, &none);
        let s =
            FailureScenario::from_parts(&topo, [NodeId(1), NodeId(2), NodeId(3), NodeId(4)], []);
        assert_eq!(select_next_hop(&topo, &s, NodeId(0), NodeId(1), &ctx), None);
    }

    #[test]
    fn excluded_crossing_link_is_skipped() {
        // Hub v0 at origin; reference v1 east; candidate v2 northeast whose
        // link crosses a separate link v3-v4; that link is in the excluded
        // set, so the sweep must skip v2 and pick v5 (north).
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(10.0, 0.0));
        let v2 = b.add_node(Point::new(8.0, 8.0));
        let v3 = b.add_node(Point::new(2.0, 6.0));
        let v4 = b.add_node(Point::new(8.0, 0.5));
        let v5 = b.add_node(Point::new(0.0, 10.0));
        b.add_link(v0, v1, 1).unwrap();
        let candidate = b.add_link(v0, v2, 1).unwrap();
        let barrier = b.add_link(v3, v4, 1).unwrap();
        b.add_link(v0, v5, 1).unwrap();
        let topo = b.build().unwrap();
        let xl = CrossLinkTable::new(&topo);
        assert!(
            xl.crosses(candidate, barrier),
            "fixture: v0-v2 crosses v3-v4"
        );

        let mut excluded = LinkIdSet::new();
        excluded.insert(barrier);
        let ctx = SweepContext::new(&xl, &excluded);
        let (nbr, _) = select_next_hop(&topo, &FullView, v0, v1, &ctx).unwrap();
        assert_eq!(nbr, v5, "crossing candidate must be skipped");

        // Without the exclusion, v2 wins the sweep.
        let none = LinkIdSet::new();
        let ctx = SweepContext::new(&xl, &none);
        let (nbr, _) = select_next_hop(&topo, &FullView, v0, v1, &ctx).unwrap();
        assert_eq!(nbr, v2);
    }

    #[test]
    fn is_excluded_checks_all_entries() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(10.0, 10.0));
        let v2 = b.add_node(Point::new(0.0, 10.0));
        let v3 = b.add_node(Point::new(10.0, 0.0));
        let diag1 = b.add_link(v0, v1, 1).unwrap();
        let diag2 = b.add_link(v2, v3, 1).unwrap();
        let topo = b.build().unwrap();
        let xl = CrossLinkTable::new(&topo);
        let mut excluded = LinkIdSet::new();
        assert!(!SweepContext::new(&xl, &excluded).is_excluded(diag1));
        excluded.insert(diag2);
        let ctx = SweepContext::new(&xl, &excluded);
        assert!(ctx.is_excluded(diag1));
        // A link in the excluded set is not itself excluded from selection
        // (it may be part of the forwarding path).
        assert!(!ctx.is_excluded(diag2));
        assert_eq!(ctx.crosslinks() as *const _, &xl as *const _);
        assert_eq!(ctx.excluded() as *const _, &excluded as *const _);
    }

    #[test]
    #[should_panic(expected = "must be a neighbor")]
    fn panics_on_non_neighbor_reference() {
        let topo = compass();
        let xl = CrossLinkTable::new(&topo);
        let none = LinkIdSet::new();
        let ctx = SweepContext::new(&xl, &none);
        let _ = select_next_hop(&topo, &FullView, NodeId(1), NodeId(2), &ctx);
    }

    #[test]
    fn deterministic_tie_break_by_node_id() {
        // Two neighbors in exactly the same direction from the hub at
        // different distances: equal sweep angle, smaller id wins.
        let mut b = Topology::builder();
        let hub = b.add_node(Point::new(0.0, 0.0));
        let r = b.add_node(Point::new(10.0, 0.0)); // reference, east
        let near = b.add_node(Point::new(0.0, 5.0)); // north, id 2
        let far = b.add_node(Point::new(0.0, 9.0)); // north, id 3
        b.add_link(hub, r, 1).unwrap();
        b.add_link(hub, near, 1).unwrap();
        b.add_link(hub, far, 1).unwrap();
        let topo = b.build().unwrap();
        let xl = CrossLinkTable::new(&topo);
        let none = LinkIdSet::new();
        let ctx = SweepContext::new(&xl, &none);
        let (nbr, _) = select_next_hop(&topo, &FullView, hub, r, &ctx).unwrap();
        assert_eq!(nbr, near);
    }
}
