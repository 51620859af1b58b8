//! FCP — Failure-Carrying Packets (Lakshminarayanan et al., SIGCOMM 2007),
//! source-routing variant.
//!
//! The comparator used throughout the paper's evaluation (§IV-A: "For FCP,
//! we use the source routing version, which reduces the computational
//! overhead of the original FCP").
//!
//! Behaviour: the packet header carries the set of failed links the packet
//! has *encountered*. Whenever the node holding the packet finds the next
//! source-route hop unreachable, it appends that link to the header,
//! recomputes a shortest path to the destination over the topology minus
//! (header links ∪ its own locally observed failed incident links), writes
//! the new source route, and forwards. The packet is discarded only when a
//! recomputation finds no path — which under large-scale failures makes FCP
//! "try every possible link to reach the destination before discarding
//! packets" (§IV-D).

use rtr_routing::{DijkstraScratch, Path};
use rtr_sim::{ForwardingTrace, LinkIdSet, LINK_ID_BYTES, NODE_ID_BYTES};
use rtr_topology::{GraphView, LinkId, LinkMask, NodeId, Topology};

/// Reusable buffers for repeated [`fcp_route_in`] calls: the Dijkstra
/// scratch plus the believed-view mask rebuilt at every encounter.
#[derive(Debug, Clone, Default)]
pub struct FcpScratch {
    sp: DijkstraScratch,
    mask: LinkMask,
}

/// Why an FCP packet stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FcpOutcome {
    /// The packet reached the destination.
    Delivered,
    /// A recomputation found no path; the packet was discarded where it
    /// stood.
    Discarded,
}

/// The result of routing one FCP packet.
#[derive(Debug, Clone)]
pub struct FcpAttempt {
    /// Delivery or discard.
    pub outcome: FcpOutcome,
    /// Shortest-path calculations performed (the computational-overhead
    /// metric; ≥ 1 since the initiator always computes once).
    pub sp_calculations: usize,
    /// Hop-by-hop walk from the initiator, with header bytes (failed-link
    /// ids plus remaining source route) at every hop.
    pub trace: ForwardingTrace,
    /// Total routing cost actually traversed (for the stretch metric).
    pub cost_traversed: u64,
    /// Failed links the packet carried when it stopped.
    pub carried_failures: LinkIdSet,
}

impl FcpAttempt {
    /// Returns true when the packet was delivered.
    pub fn is_delivered(&self) -> bool {
        self.outcome == FcpOutcome::Delivered
    }

    /// Hops actually traversed.
    pub fn hops(&self) -> usize {
        self.trace.hops()
    }
}

/// Header bytes of an FCP packet: carried failed-link ids plus the
/// remaining source route (16-bit ids each).
fn header_bytes(failures: &LinkIdSet, remaining_route_hops: usize) -> usize {
    failures.len() * LINK_ID_BYTES + remaining_route_hops * NODE_ID_BYTES
}

/// Computes the FCP view at `node` into `mask`: the full topology minus
/// carried failures and minus the node's locally observed failed incident
/// links.
fn believed_view_into(
    mask: &mut LinkMask,
    topo: &Topology,
    ground_truth: &impl GraphView,
    node: NodeId,
    carried: &LinkIdSet,
) {
    mask.reset(topo);
    for l in carried.iter() {
        mask.remove(l);
    }
    for &(_, l) in topo.neighbors(node) {
        if !ground_truth.is_link_usable(topo, l) {
            mask.remove(l);
        }
    }
}

/// Routes one packet from `initiator` to `dest` with FCP over the ground
/// truth `view`. `initial_failed_link` is the unreachable default next-hop
/// link that triggered recovery (it seeds the carried failure set).
///
/// Reuses the caller's [`FcpScratch`], so the per-encounter recomputation
/// allocates nothing after warm-up (beyond the recomputed source-route
/// path itself). Uniform callers route through the
/// [`RecoveryScheme`](crate::RecoveryScheme) trait via [`crate::Fcp`]
/// instead.
///
/// # Panics
///
/// Panics if `initial_failed_link` is not incident to `initiator` or is
/// still usable in `view`.
pub fn fcp_route_in(
    topo: &Topology,
    view: &impl GraphView,
    initiator: NodeId,
    initial_failed_link: LinkId,
    dest: NodeId,
    scratch: &mut FcpScratch,
) -> FcpAttempt {
    fcp_route_scratch(
        topo,
        view,
        initiator,
        initial_failed_link,
        dest,
        &mut scratch.sp,
        &mut scratch.mask,
    )
}

/// The FCP routing loop over explicitly split buffers, so callers holding
/// a combined scratch bundle (`rtr-core`'s `SchemeScratch`) can lend its
/// pieces without owning an [`FcpScratch`].
pub(crate) fn fcp_route_scratch(
    topo: &Topology,
    view: &impl GraphView,
    initiator: NodeId,
    initial_failed_link: LinkId,
    dest: NodeId,
    sp_scratch: &mut DijkstraScratch,
    mask: &mut LinkMask,
) -> FcpAttempt {
    assert!(
        topo.link(initial_failed_link).is_incident_to(initiator),
        "the triggering link must be incident to the initiator"
    );
    assert!(
        !view.is_link_usable(topo, initial_failed_link),
        "FCP recovery starts only when the default next hop is unreachable"
    );

    let mut carried = LinkIdSet::new();
    carried.insert(initial_failed_link);

    let mut sp_calculations = 0usize;
    let mut cost_traversed = 0u64;
    let mut cur = initiator;
    let mut trace = ForwardingTrace::start(initiator, header_bytes(&carried, 0));

    // Each recomputation adds at least one newly encountered link to the
    // carried set, so at most `link_count` recomputations can happen.
    loop {
        believed_view_into(mask, topo, view, cur, &carried);
        // Early-exit at `dest`: only `path_to(dest)` is consumed below.
        let sp = sp_scratch.run_to(topo, &*mask, cur, dest);
        sp_calculations += 1;
        let Some(path): Option<Path> = sp.path_to(dest) else {
            return FcpAttempt {
                outcome: FcpOutcome::Discarded,
                sp_calculations,
                trace,
                cost_traversed,
                carried_failures: carried,
            };
        };

        // Walk the new source route until delivery or the next encounter.
        let mut encountered = None;
        let hops = path
            .links()
            .iter()
            .zip(path.nodes())
            .zip(path.nodes().iter().skip(1));
        for (i, ((&l, &from), &to)) in hops.enumerate() {
            if !view.is_link_usable(topo, l) {
                encountered = Some((from, l));
                break;
            }
            cost_traversed += u64::from(topo.cost_from(l, from));
            cur = to;
            let remaining = path.links().len() - (i + 1);
            trace.record_hop(cur, header_bytes(&carried, remaining));
        }
        match encountered {
            None => {
                debug_assert_eq!(cur, dest);
                return FcpAttempt {
                    outcome: FcpOutcome::Delivered,
                    sp_calculations,
                    trace,
                    cost_traversed,
                    carried_failures: carried,
                };
            }
            Some((at, l)) => {
                let was_new = carried.insert(l);
                debug_assert!(
                    was_new,
                    "an encountered link cannot already be carried: the path avoided carried links"
                );
                cur = at;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, FailureScenario, Region};

    #[test]
    fn delivers_with_one_calculation_when_detour_is_clean() {
        // Diamond: 0-1-3 and 0-2-3; link 0-2 fails; FCP at 0 computes once
        // and delivers via 1.
        let mut b = Topology::builder();
        let v0 = b.add_node(rtr_topology::Point::new(0.0, 0.0));
        let v1 = b.add_node(rtr_topology::Point::new(1.0, 1.0));
        let v2 = b.add_node(rtr_topology::Point::new(1.0, -1.0));
        let v3 = b.add_node(rtr_topology::Point::new(2.0, 0.0));
        b.add_link(v0, v1, 1).unwrap();
        b.add_link(v1, v3, 1).unwrap();
        let short = b.add_link(v0, v2, 1).unwrap();
        b.add_link(v2, v3, 1).unwrap();
        let topo = b.build().unwrap();
        let s = FailureScenario::single_link(&topo, short);
        let a = fcp_route_in(&topo, &s, v0, short, v3, &mut FcpScratch::default());
        assert!(a.is_delivered());
        assert_eq!(a.sp_calculations, 1);
        assert_eq!(a.hops(), 2);
        assert_eq!(a.cost_traversed, 2);
        assert_eq!(a.carried_failures.len(), 1);
    }

    #[test]
    fn recomputes_on_each_encounter() {
        // Path 0-1-2-3 with detour 1-4-2 and second detour 2-5-3:
        // fail 1-2 and 2-3; FCP from 1: compute (avoid 1-2) -> 1-4-2-3,
        // encounter 2-3 at node 2, recompute -> 2-5-3, deliver. 2 calcs.
        let mut b = Topology::builder();
        let v0 = b.add_node(rtr_topology::Point::new(0.0, 0.0));
        let v1 = b.add_node(rtr_topology::Point::new(10.0, 0.0));
        let v2 = b.add_node(rtr_topology::Point::new(20.0, 0.0));
        let v3 = b.add_node(rtr_topology::Point::new(30.0, 0.0));
        let v4 = b.add_node(rtr_topology::Point::new(15.0, 8.0));
        let v5 = b.add_node(rtr_topology::Point::new(25.0, 8.0));
        b.add_link(v0, v1, 1).unwrap();
        let l12 = b.add_link(v1, v2, 1).unwrap();
        let l23 = b.add_link(v2, v3, 1).unwrap();
        b.add_link(v1, v4, 1).unwrap();
        b.add_link(v4, v2, 1).unwrap();
        b.add_link(v2, v5, 1).unwrap();
        b.add_link(v5, v3, 1).unwrap();
        let topo = b.build().unwrap();
        let s = FailureScenario::from_parts(&topo, [], [l12, l23]);
        let a = fcp_route_in(&topo, &s, v1, l12, v3, &mut FcpScratch::default());
        assert!(a.is_delivered());
        assert_eq!(a.sp_calculations, 2);
        assert_eq!(a.hops(), 4); // 1-4-2-5-3
        assert!(a.carried_failures.contains(l12));
        assert!(a.carried_failures.contains(l23));
    }

    #[test]
    fn discards_when_no_path_remains() {
        let topo = generate::path(4, 10.0).unwrap();
        let s = FailureScenario::from_parts(&topo, [NodeId(2)], []);
        let l = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let a = fcp_route_in(
            &topo,
            &s,
            NodeId(1),
            l,
            NodeId(3),
            &mut FcpScratch::default(),
        );
        assert_eq!(a.outcome, FcpOutcome::Discarded);
        assert_eq!(a.sp_calculations, 1);
        assert_eq!(a.hops(), 0);
    }

    #[test]
    fn wanders_before_discarding_on_partition() {
        // Irrecoverable case on a richer graph: FCP probes alternatives
        // before giving up, burning several SP calculations.
        let topo = generate::isp_like(30, 70, 2000.0, 99).unwrap();
        let region = Region::circle((1000.0, 1000.0), 450.0);
        let s = FailureScenario::from_region(&topo, &region);
        // Find an irrecoverable entry point.
        let mut found = false;
        'outer: for n in topo.node_ids() {
            if s.is_node_failed(n) {
                continue;
            }
            for &(_, l) in topo.neighbors(n) {
                if s.is_neighbor_reachable(&topo, n, l) {
                    continue;
                }
                for dest in topo.node_ids() {
                    if dest == n || rtr_topology::is_reachable(&topo, &s, n, dest) {
                        continue;
                    }
                    let a = fcp_route_in(&topo, &s, n, l, dest, &mut FcpScratch::default());
                    assert_eq!(a.outcome, FcpOutcome::Discarded);
                    assert!(a.sp_calculations >= 1);
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "fixture should contain an irrecoverable case");
    }

    #[test]
    fn header_bytes_track_failures_and_route() {
        let mut f = LinkIdSet::new();
        f.insert(LinkId(0));
        f.insert(LinkId(1));
        assert_eq!(header_bytes(&f, 3), 2 * LINK_ID_BYTES + 3 * NODE_ID_BYTES);
    }

    #[test]
    #[should_panic(expected = "default next hop is unreachable")]
    fn rejects_live_trigger_link() {
        let topo = generate::path(3, 10.0).unwrap();
        let s = FailureScenario::none(&topo);
        let l = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let _ = fcp_route_in(
            &topo,
            &s,
            NodeId(0),
            l,
            NodeId(2),
            &mut FcpScratch::default(),
        );
    }
}
