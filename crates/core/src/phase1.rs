//! RTR phase 1: forwarding data packets around the failure area to collect
//! failure information (§III-B on planar graphs, §III-C on general graphs).
//!
//! The recovery initiator starts a counterclockwise right-hand-rule walk
//! from its failed default next-hop link. Every router on the walk records
//! its failed incident links (except those incident to the initiator, which
//! the initiator already knows) in the packet's `failed_link` field. Two
//! constraints keep the walk enclosing the failure area on general graphs:
//!
//! * **Constraint 1** — never cross a link between the initiator and one of
//!   its unreachable neighbors (those links seed `cross_link`);
//! * **Constraint 2** — never cross a link already traversed: whenever a
//!   selected link is crossed by some still-selectable link, the selected
//!   link is recorded in `cross_link` too.
//!
//! The walk terminates when the packet returns to the initiator and the
//! initiator's sweep re-selects its original first hop (§III-C step 3).

use crate::error::Phase1Error;
use crate::sweep::{select_next_hop, SweepContext};
use rtr_obs::{Event, NoopSink, TraceSink};
use rtr_sim::{CollectionHeader, ForwardingTrace};
use rtr_topology::{CrossLinkTable, GraphView, LinkId, NodeId, Topology};

/// Why phase 1 stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase1Termination {
    /// The packet returned to the initiator and the sweep re-selected the
    /// first hop: the loop around the failure area is complete.
    Completed,
    /// The step budget was exhausted — never expected (Theorem 1); kept as
    /// a defensive bound so a bug cannot hang the simulation.
    StepBudgetExhausted,
}

/// The outcome of a phase-1 collection walk.
#[derive(Debug, Clone)]
pub struct Phase1Result {
    /// Final packet header: collected `failed_link` and `cross_link` sets.
    pub header: CollectionHeader,
    /// The hop-by-hop walk, starting and (normally) ending at the
    /// initiator, with variable header bytes at each hop.
    pub trace: ForwardingTrace,
    /// How the walk ended.
    pub termination: Phase1Termination,
    /// The first hop selected by the initiator.
    pub first_hop: (NodeId, LinkId),
}

impl Phase1Result {
    /// Returns true when the walk completed its loop.
    pub fn is_complete(&self) -> bool {
        self.termination == Phase1Termination::Completed
    }
}

/// Runs phase 1 from recovery initiator `initiator`, whose default next hop
/// across `failed_default_link` was found unreachable.
///
/// `view` is the ground-truth failure state (routers *observe* it hop by
/// hop; nothing is read globally: every decision uses only the local
/// liveness of the current node's incident links plus the packet header).
///
/// # Errors
///
/// * [`Phase1Error::LinkNotIncident`] / [`Phase1Error::LinkStillUsable`]
///   when the claimed failed default link is not one the initiator could
///   have observed failing (there would be nothing to recover from);
/// * [`Phase1Error::NoLiveNeighbor`] when the initiator is fully isolated
///   and no collection packet can be sent;
/// * [`Phase1Error::WalkStuck`] when `view` is inconsistent mid-walk
///   (impossible under a static scenario).
pub fn collect_failure_info(
    topo: &Topology,
    crosslinks: &CrossLinkTable,
    view: &impl GraphView,
    initiator: NodeId,
    failed_default_link: LinkId,
) -> Result<Phase1Result, Phase1Error> {
    collect_failure_info_traced(
        topo,
        crosslinks,
        view,
        initiator,
        failed_default_link,
        &mut NoopSink,
    )
}

/// [`collect_failure_info`] with an observability [`TraceSink`].
///
/// Emits [`Event::SweepHop`] once per recorded hop (so the event count
/// equals [`ForwardingTrace::hops`]), [`Event::CrossLinkExcluded`] /
/// [`Event::FailedLinkAppended`] once per link *newly* recorded in the
/// header (duplicates are silent, so event count × `LINK_ID_BYTES` is
/// exactly the header overhead). With [`NoopSink`] this monomorphizes to
/// the untraced walk.
///
/// # Errors
///
/// Exactly those of [`collect_failure_info`].
pub fn collect_failure_info_traced<S: TraceSink>(
    topo: &Topology,
    crosslinks: &CrossLinkTable,
    view: &impl GraphView,
    initiator: NodeId,
    failed_default_link: LinkId,
    sink: &mut S,
) -> Result<Phase1Result, Phase1Error> {
    if !topo.link(failed_default_link).is_incident_to(initiator) {
        return Err(Phase1Error::LinkNotIncident {
            initiator,
            link: failed_default_link,
        });
    }
    if view.is_link_usable(topo, failed_default_link) {
        return Err(Phase1Error::LinkStillUsable {
            link: failed_default_link,
        });
    }

    let mut header = CollectionHeader::new(initiator);

    // §III-C step 1: seed cross_link with the initiator's links to
    // unreachable neighbors that cross other links (Constraint 1).
    for &(_, l) in topo.neighbors(initiator) {
        if !view.is_link_usable(topo, l)
            && !crosslinks.is_cross_free(l)
            && header.record_cross_link(l)
        {
            sink.emit(Event::CrossLinkExcluded { link: l });
        }
    }

    let mut trace = ForwardingTrace::start(initiator, header.overhead_bytes());

    // First hop: sweep from the failed default next hop. The context is
    // rebuilt per selection (two pointer copies) because the header's
    // excluded set may grow after each one.
    let sweep_ref = topo.link(failed_default_link).other_end(initiator);
    let Some(first_hop) = select_next_hop(
        topo,
        view,
        initiator,
        sweep_ref,
        &SweepContext::new(crosslinks, header.cross_links()),
    ) else {
        return Err(Phase1Error::NoLiveNeighbor { initiator });
    };
    record_selection_crossing(crosslinks, &mut header, first_hop.1, sink);

    // Defensive bound: Theorem 1 shows each link is traversed at most a
    // constant number of times; 4·m + 8 is far beyond any legal walk.
    let max_steps = 4 * topo.link_count() + 8;

    let (mut prev, mut cur) = (initiator, first_hop.0);
    trace.record_hop(cur, header.overhead_bytes());
    sink.emit(Event::SweepHop {
        node: cur,
        header_bytes: header.overhead_bytes(),
    });

    for _ in 0..max_steps {
        if cur == initiator {
            // §III-C step 3: the initiator re-selects; if the selection is
            // the first hop, the loop around the failure area is closed.
            let Some(next) = select_next_hop(
                topo,
                view,
                cur,
                prev,
                &SweepContext::new(crosslinks, header.cross_links()),
            ) else {
                // A live neighbor vanishing mid-walk cannot happen in a
                // static scenario: the previous hop is always eligible.
                return Err(Phase1Error::WalkStuck { at: cur });
            };
            if next == first_hop {
                return Ok(Phase1Result {
                    header,
                    trace,
                    termination: Phase1Termination::Completed,
                    first_hop,
                });
            }
            record_selection_crossing(crosslinks, &mut header, next.1, sink);
            prev = cur;
            cur = next.0;
            trace.record_hop(cur, header.overhead_bytes());
            sink.emit(Event::SweepHop {
                node: cur,
                header_bytes: header.overhead_bytes(),
            });
            continue;
        }

        // §III-C step 2: record this node's failed incident links, except
        // links incident to the initiator (it already knows those).
        for &(_, l) in topo.neighbors(cur) {
            if !view.is_link_usable(topo, l)
                && !topo.link(l).is_incident_to(initiator)
                && header.record_failed_link(l)
            {
                sink.emit(Event::FailedLinkAppended { link: l });
            }
        }

        let Some(next) = select_next_hop(
            topo,
            view,
            cur,
            prev,
            &SweepContext::new(crosslinks, header.cross_links()),
        ) else {
            return Err(Phase1Error::WalkStuck { at: cur });
        };
        record_selection_crossing(crosslinks, &mut header, next.1, sink);
        prev = cur;
        cur = next.0;
        trace.record_hop(cur, header.overhead_bytes());
        sink.emit(Event::SweepHop {
            node: cur,
            header_bytes: header.overhead_bytes(),
        });
    }

    Ok(Phase1Result {
        header,
        trace,
        termination: Phase1Termination::StepBudgetExhausted,
        first_hop,
    })
}

/// Constraint 2 bookkeeping: after selecting `link`, if some link crossing
/// it is not yet excluded by the header (and could therefore be selected
/// later, crossing the forwarding path), record `link` in `cross_link`.
fn record_selection_crossing<S: TraceSink>(
    crosslinks: &CrossLinkTable,
    header: &mut CollectionHeader,
    link: LinkId,
    sink: &mut S,
) {
    if header.cross_links().contains(link) {
        return;
    }
    let ctx = SweepContext::new(crosslinks, header.cross_links());
    let threatened = crosslinks
        .crossings_of(link)
        .iter()
        .any(|&other| !ctx.is_excluded(other));
    if threatened && header.record_cross_link(link) {
        sink.emit(Event::CrossLinkExcluded { link });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{FailureScenario, Point, Topology};

    /// A wheel: hub v0 at the origin, 6 rim nodes around it, rim cycle plus
    /// spokes. Killing the hub leaves the rim, and phase 1 must walk the
    /// whole rim and return.
    fn wheel6() -> Topology {
        let mut b = Topology::builder();
        b.add_node(Point::new(0.0, 0.0)); // hub v0
        for i in 0..6 {
            let theta = std::f64::consts::TAU * i as f64 / 6.0;
            b.add_node(Point::new(10.0 * theta.cos(), 10.0 * theta.sin()));
        }
        for i in 1..=6u32 {
            b.add_link(NodeId(0), NodeId(i), 1).unwrap();
            let next = if i == 6 { 1 } else { i + 1 };
            b.add_link(NodeId(i), NodeId(next), 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn walks_around_a_dead_hub_and_completes() {
        let topo = wheel6();
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(0)], []);
        // v1's spoke to the hub failed; v1 initiates.
        let spoke = topo.link_between(NodeId(1), NodeId(0)).unwrap();
        let r = collect_failure_info(&topo, &xl, &s, NodeId(1), spoke).unwrap();
        assert!(r.is_complete());
        // The walk visits every rim node and returns to v1.
        let visited: std::collections::HashSet<NodeId> = r.trace.nodes().collect();
        for i in 1..=6 {
            assert!(visited.contains(&NodeId(i)), "rim node v{i} not visited");
        }
        assert_eq!(r.trace.current_node(), NodeId(1));
        // All spokes except v1's own are collected.
        assert_eq!(r.header.failed_links().len(), 5);
        for i in 2..=6u32 {
            let l = topo.link_between(NodeId(i), NodeId(0)).unwrap();
            assert!(r.header.failed_links().contains(l), "spoke of v{i} missing");
        }
        // v1's own spoke is not recorded (the initiator knows it).
        assert!(!r.header.failed_links().contains(spoke));
        // Planar wheel: no cross links recorded.
        assert!(r.header.cross_links().is_empty());
    }

    #[test]
    fn single_link_failure_walk_is_short_and_records_nothing() {
        let topo = wheel6();
        let xl = CrossLinkTable::new(&topo);
        let rim = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let s = FailureScenario::single_link(&topo, rim);
        let r = collect_failure_info(&topo, &xl, &s, NodeId(1), rim).unwrap();
        assert!(r.is_complete());
        // The only failed link is incident to the initiator: nothing to
        // record, and the initiator can see it locally.
        assert!(r.header.failed_links().is_empty());
    }

    #[test]
    fn isolated_initiator_is_a_typed_error() {
        let topo = wheel6();
        let xl = CrossLinkTable::new(&topo);
        // Everything around v1 dead.
        let s = FailureScenario::from_parts(&topo, [NodeId(0), NodeId(2), NodeId(6)], []);
        let spoke = topo.link_between(NodeId(1), NodeId(0)).unwrap();
        let r = collect_failure_info(&topo, &xl, &s, NodeId(1), spoke);
        assert_eq!(
            r.unwrap_err(),
            Phase1Error::NoLiveNeighbor {
                initiator: NodeId(1)
            }
        );
    }

    #[test]
    fn rejects_live_default_link() {
        let topo = wheel6();
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::none(&topo);
        let spoke = topo.link_between(NodeId(1), NodeId(0)).unwrap();
        let r = collect_failure_info(&topo, &xl, &s, NodeId(1), spoke);
        assert_eq!(r.unwrap_err(), Phase1Error::LinkStillUsable { link: spoke });
    }

    #[test]
    fn rejects_non_incident_link() {
        let topo = wheel6();
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(0)], []);
        let far = topo.link_between(NodeId(3), NodeId(4)).unwrap();
        let r = collect_failure_info(&topo, &xl, &s, NodeId(1), far);
        assert_eq!(
            r.unwrap_err(),
            Phase1Error::LinkNotIncident {
                initiator: NodeId(1),
                link: far
            }
        );
    }

    #[test]
    fn trace_bytes_grow_monotonically_with_recordings() {
        let topo = wheel6();
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(0)], []);
        let spoke = topo.link_between(NodeId(1), NodeId(0)).unwrap();
        let r = collect_failure_info(&topo, &xl, &s, NodeId(1), spoke).unwrap();
        let bytes: Vec<usize> = r.trace.steps().iter().map(|s| s.header_bytes).collect();
        assert!(
            bytes.windows(2).all(|w| w[0] <= w[1]),
            "header only grows in phase 1"
        );
        assert_eq!(*bytes.last().unwrap(), r.header.overhead_bytes());
    }

    #[test]
    fn traced_walk_events_match_trace_and_header() {
        let topo = wheel6();
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(0)], []);
        let spoke = topo.link_between(NodeId(1), NodeId(0)).unwrap();
        let mut sink = rtr_obs::CollectingSink::new();
        let r = collect_failure_info_traced(&topo, &xl, &s, NodeId(1), spoke, &mut sink).unwrap();
        // One SweepHop per recorded hop.
        let hops = sink
            .events()
            .iter()
            .filter(|e| matches!(e, Event::SweepHop { .. }))
            .count();
        assert_eq!(hops, r.trace.hops());
        // Recording events are bijective with header bytes.
        let recorded = sink
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::FailedLinkAppended { .. } | Event::CrossLinkExcluded { .. }
                )
            })
            .count();
        assert_eq!(recorded * rtr_sim::LINK_ID_BYTES, r.header.overhead_bytes());
        // The traced walk equals the untraced one.
        let u = collect_failure_info(&topo, &xl, &s, NodeId(1), spoke).unwrap();
        assert_eq!(u.header.overhead_bytes(), r.header.overhead_bytes());
        assert_eq!(u.trace.hops(), r.trace.hops());
    }

    /// Fig. 4's failure mode: a chord that crosses the initiator's failed
    /// link would lead the walk the wrong way around the failure area;
    /// Constraint 1 must exclude it.
    #[test]
    fn constraint1_blocks_chord_crossing_failed_link() {
        // Initiator v0 at origin. Failed default next hop v1 to the east.
        // A long chord v0-v2 whose segment crosses v0-v1? A chord from v0
        // cannot cross its own link, so model the Fig. 4 shape: the chord
        // is v3-v4 crossing v0-v1; the walk starts at v0 and reaches v3,
        // where the chord to v4 must be skipped because it crosses the
        // initiator's failed link.
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0)); // initiator
        let v1 = b.add_node(Point::new(10.0, 0.0)); // failed next hop
        let v3 = b.add_node(Point::new(5.0, 5.0)); // above the failed link
        let v4 = b.add_node(Point::new(5.0, -5.0)); // below the failed link
        let v5 = b.add_node(Point::new(12.0, 6.0)); // detour node above
        b.add_link(v0, v1, 1).unwrap(); // will fail
        b.add_link(v0, v3, 1).unwrap();
        let chord = b.add_link(v3, v4, 1).unwrap(); // crosses v0-v1
        b.add_link(v3, v5, 1).unwrap();
        b.add_link(v5, v1, 1).unwrap();
        b.add_link(v4, v0, 1).unwrap();
        let topo = b.build().unwrap();
        let xl = CrossLinkTable::new(&topo);
        let failed = topo.link_between(v0, v1).unwrap();
        assert!(
            xl.crosses(chord, failed),
            "fixture: chord crosses the failed link"
        );

        let s = FailureScenario::single_link(&topo, failed);
        let r = collect_failure_info(&topo, &xl, &s, v0, failed).unwrap();
        assert!(r.is_complete());
        // Constraint 1 seeded cross_link with the failed link.
        assert!(r.header.cross_links().contains(failed));
        // The chord was never traversed.
        let hops: Vec<NodeId> = r.trace.nodes().collect();
        for w in hops.windows(2) {
            let l = topo.link_between(w[0], w[1]).unwrap();
            assert_ne!(l, chord, "walk must not traverse the crossing chord");
        }
    }
}

/// Merged result of running the collection walk once per distinct
/// unreachable neighbor of the initiator (the "thorough" variant).
#[derive(Debug, Clone)]
pub struct ThoroughCollection {
    /// Union of the headers of all sweeps (failed and cross links merged).
    pub header: CollectionHeader,
    /// Total hops walked across all sweeps (the cost of thoroughness).
    pub total_hops: usize,
    /// Number of sweeps run (= the initiator's unreachable-neighbor count).
    pub sweeps: usize,
}

/// The extension the paper weighs and rejects in §III-C ("recording all
/// failed links requires visiting every node adjacent to the failure area
/// … a much longer forwarding path"): sweep once per unreachable neighbor
/// of the initiator instead of once total, merging everything collected.
/// Each sweep is the unmodified single-walk protocol, so soundness
/// (E1 ⊆ E2) is preserved; coverage grows at the price of `total_hops`.
///
/// # Errors
///
/// [`Phase1Error::NoFailedIncidentLink`] when the initiator has no
/// unreachable neighbor (there is nothing to recover from), plus every
/// error the underlying single-sweep walk can report.
pub fn collect_failure_info_thorough(
    topo: &Topology,
    crosslinks: &CrossLinkTable,
    view: &impl GraphView,
    initiator: NodeId,
) -> Result<ThoroughCollection, Phase1Error> {
    let dead: Vec<LinkId> = topo
        .neighbors(initiator)
        .iter()
        .filter(|&&(_, l)| !view.is_link_usable(topo, l))
        .map(|&(_, l)| l)
        .collect();
    if dead.is_empty() {
        return Err(Phase1Error::NoFailedIncidentLink { initiator });
    }

    let mut header = CollectionHeader::new(initiator);
    let mut total_hops = 0;
    for &l in &dead {
        let r = collect_failure_info(topo, crosslinks, view, initiator, l)?;
        total_hops += r.trace.hops();
        for f in r.header.failed_links() {
            header.record_failed_link(f);
        }
        for c in r.header.cross_links() {
            header.record_cross_link(c);
        }
    }
    Ok(ThoroughCollection {
        header,
        total_hops,
        sweeps: dead.len(),
    })
}
