//! The complete RTR recovery session: phase 1 + phase 2 from one recovery
//! initiator, serving every destination whose failed routing path crosses
//! that initiator (§III-A: "The first phase of RTR needs to run only once
//! at a recovery initiator and can benefit all destinations").

use crate::error::Phase1Error;
use crate::phase1::{collect_failure_info, collect_failure_info_traced, Phase1Result};
use crate::phase2::{
    source_route_walk_reusing, source_route_walk_traced, DeliveryOutcome, RecoveryComputer,
    RecoveryScratch,
};
use rtr_obs::{NoopSink, TraceSink};
use rtr_routing::{Path, ShortestPaths};
use rtr_sim::{CollectionHeader, ForwardingTrace};
use rtr_topology::{CrossLinkTable, GraphView, LinkId, NodeId, Topology};

/// One recovery attempt for a destination.
#[derive(Debug, Clone)]
pub struct RecoveryAttempt {
    /// What happened to the packet.
    pub outcome: DeliveryOutcome,
    /// The believed recovery path, when the initiator's view had one.
    pub path: Option<Path>,
    /// The phase-2 source-routed walk (empty when no path existed).
    pub trace: ForwardingTrace,
}

impl RecoveryAttempt {
    /// Returns true when the destination was reached.
    pub fn is_delivered(&self) -> bool {
        self.outcome == DeliveryOutcome::Delivered
    }
}

/// An RTR session at one recovery initiator: the phase-1 walk has run, the
/// repaired view and SPT are built, and recovery paths are served from the
/// per-destination cache.
#[derive(Debug)]
pub struct RtrSession<'a, V> {
    topo: &'a Topology,
    view: &'a V,
    phase1: Phase1Result,
    computer: RecoveryComputer<'a>,
}

impl<'a, V: GraphView> RtrSession<'a, V> {
    /// Starts RTR at `initiator`, whose default next hop over
    /// `failed_default_link` is unreachable: runs the phase-1 collection
    /// walk, merges the collected failures with the initiator's local
    /// knowledge, and computes the recovery SPT.
    ///
    /// # Errors
    ///
    /// Everything [`collect_failure_info`] reports: a precondition
    /// violation ([`Phase1Error::LinkNotIncident`],
    /// [`Phase1Error::LinkStillUsable`]) or an initiator with no live
    /// neighbor ([`Phase1Error::NoLiveNeighbor`]).
    pub fn start(
        topo: &'a Topology,
        crosslinks: &CrossLinkTable,
        view: &'a V,
        initiator: NodeId,
        failed_default_link: LinkId,
    ) -> Result<Self, Phase1Error> {
        Self::start_in(
            topo,
            crosslinks,
            view,
            initiator,
            failed_default_link,
            &mut RecoveryScratch::default(),
        )
    }

    /// Like [`start`](Self::start), but builds the recovery computer from
    /// recycled buffers (see [`RecoveryScratch`]) so the evaluation hot
    /// loop starts sessions without transient allocations. Hand the
    /// buffers back with [`recycle`](Self::recycle) when the session is
    /// done. When phase 1 fails, `scratch` is left untouched.
    ///
    /// # Errors
    ///
    /// Same contract as [`RtrSession::start`].
    pub fn start_in(
        topo: &'a Topology,
        crosslinks: &CrossLinkTable,
        view: &'a V,
        initiator: NodeId,
        failed_default_link: LinkId,
        scratch: &mut RecoveryScratch,
    ) -> Result<Self, Phase1Error> {
        Self::start_traced_in(
            topo,
            crosslinks,
            view,
            initiator,
            failed_default_link,
            scratch,
            &mut NoopSink,
        )
    }

    /// [`start_in`](Self::start_in) with an observability
    /// [`TraceSink`] receiving the phase-1 sweep events and the phase-2
    /// [`SptRecompute`](rtr_obs::Event::SptRecompute). With [`NoopSink`]
    /// this monomorphizes to `start_in`.
    ///
    /// # Errors
    ///
    /// Same contract as [`RtrSession::start`].
    pub fn start_traced_in<S: TraceSink>(
        topo: &'a Topology,
        crosslinks: &CrossLinkTable,
        view: &'a V,
        initiator: NodeId,
        failed_default_link: LinkId,
        scratch: &mut RecoveryScratch,
        sink: &mut S,
    ) -> Result<Self, Phase1Error> {
        Self::start_with(
            topo,
            crosslinks,
            view,
            initiator,
            failed_default_link,
            sink,
            |header, sink| {
                RecoveryComputer::new_traced_in(topo, view, initiator, header, scratch, sink)
            },
        )
    }

    /// Like [`start_traced_in`](Self::start_traced_in), but the
    /// initiator's believed topology starts from `believed_base` — the
    /// (possibly stale) converged link view its IGP last gave it —
    /// instead of the intact topology. This is the churn-timeline entry
    /// point: phase 1 still sweeps the ground truth `view`, while the
    /// phase-2 recovery SPT excludes the base view's known-dead links
    /// *plus* everything the sweep collected. With
    /// [`FullView`](rtr_topology::FullView) as the base this is exactly
    /// `start_traced_in`.
    ///
    /// # Errors
    ///
    /// Same contract as [`RtrSession::start`].
    #[allow(clippy::too_many_arguments)] // start_traced_in plus the one base-view knob.
    pub fn start_based_traced_in<S: TraceSink>(
        topo: &'a Topology,
        crosslinks: &CrossLinkTable,
        view: &'a V,
        believed_base: &impl GraphView,
        initiator: NodeId,
        failed_default_link: LinkId,
        scratch: &mut RecoveryScratch,
        sink: &mut S,
    ) -> Result<Self, Phase1Error> {
        Self::start_with(
            topo,
            crosslinks,
            view,
            initiator,
            failed_default_link,
            sink,
            |header, sink| {
                RecoveryComputer::new_based_traced_in(
                    topo,
                    believed_base,
                    view,
                    initiator,
                    header,
                    scratch,
                    sink,
                )
            },
        )
    }

    /// Like [`start_in`](Self::start_in), but the phase-2 tree starts
    /// from `seed`, the initiator's converged intact-topology tree (its
    /// [`RoutingTable::tree`](rtr_routing::RoutingTable::tree)), instead
    /// of being recomputed — see [`RecoveryComputer::new_seeded_in`].
    /// Every result is identical to `start_in`'s.
    ///
    /// # Errors
    ///
    /// Same contract as [`RtrSession::start`].
    pub fn start_seeded_in(
        topo: &'a Topology,
        crosslinks: &CrossLinkTable,
        view: &'a V,
        seed: &ShortestPaths,
        initiator: NodeId,
        failed_default_link: LinkId,
        scratch: &mut RecoveryScratch,
    ) -> Result<Self, Phase1Error> {
        Self::start_with(
            topo,
            crosslinks,
            view,
            initiator,
            failed_default_link,
            &mut NoopSink,
            |header, _| {
                RecoveryComputer::new_seeded_in(topo, seed, view, initiator, header, scratch)
            },
        )
    }

    /// Runs phase 1, then hands its collected header to `computer` to
    /// build the phase-2 view: the body every `start*` constructor shares.
    fn start_with<S: TraceSink>(
        topo: &'a Topology,
        crosslinks: &CrossLinkTable,
        view: &'a V,
        initiator: NodeId,
        failed_default_link: LinkId,
        sink: &mut S,
        computer: impl FnOnce(&CollectionHeader, &mut S) -> RecoveryComputer<'a>,
    ) -> Result<Self, Phase1Error> {
        let phase1 = collect_failure_info_traced(
            topo,
            crosslinks,
            view,
            initiator,
            failed_default_link,
            sink,
        )?;
        let computer = computer(&phase1.header, sink);
        Ok(RtrSession {
            topo,
            view,
            phase1,
            computer,
        })
    }

    /// Returns this session's computer buffers to `scratch` for the next
    /// case.
    pub fn recycle(self, scratch: &mut RecoveryScratch) {
        self.computer.recycle(scratch);
    }

    /// The recovery initiator.
    pub fn initiator(&self) -> NodeId {
        self.computer.initiator()
    }

    /// The phase-1 result (walk trace, collected header, termination).
    pub fn phase1(&self) -> &Phase1Result {
        &self.phase1
    }

    /// Shortest-path calculations performed so far (always 1; §IV-C).
    pub fn sp_calculations(&self) -> usize {
        self.computer.sp_calculations()
    }

    /// The believed recovery path to `dest` (cached per destination).
    pub fn recovery_path(&mut self, dest: NodeId) -> Option<Path> {
        self.computer.recovery_path(dest)
    }

    /// Recovers traffic toward `dest`: computes (or fetches) the believed
    /// shortest path and source-routes one packet along it over the ground
    /// truth.
    pub fn recover(&mut self, dest: NodeId) -> RecoveryAttempt {
        self.recover_traced(dest, &mut NoopSink)
    }

    /// [`recover`](Self::recover) with an observability [`TraceSink`]
    /// receiving the packet's
    /// [`SourceRouteInstalled`](rtr_obs::Event::SourceRouteInstalled) /
    /// [`PacketDiscarded`](rtr_obs::Event::PacketDiscarded) events. With
    /// [`NoopSink`] this monomorphizes to `recover`.
    pub fn recover_traced<S: TraceSink>(&mut self, dest: NodeId, sink: &mut S) -> RecoveryAttempt {
        let path = self.computer.recovery_path(dest);
        let (outcome, trace) =
            source_route_walk_traced(self.topo, self.view, self.initiator(), path.as_ref(), sink);
        RecoveryAttempt {
            outcome,
            path,
            trace,
        }
    }

    /// Steady-state form of [`recover`](Self::recover): looks the believed
    /// path up by reference (no clone) and walks it into the caller-owned
    /// `trace`. After one warm-up pass has grown the path cache and the
    /// trace's step buffer, repeated calls perform **zero** heap
    /// allocations — the contract proven by the counting-allocator test in
    /// `crates/core/tests/alloc_discipline.rs`.
    pub fn recover_reusing<S: TraceSink>(
        &mut self,
        dest: NodeId,
        trace: &mut ForwardingTrace,
        sink: &mut S,
    ) -> DeliveryOutcome {
        let initiator = self.computer.initiator();
        let path = self.computer.recovery_path_ref(dest);
        source_route_walk_reusing(self.topo, self.view, initiator, path, trace, sink)
    }

    /// Access to the underlying recovery computer (for extensions such as
    /// multi-area recovery that need to seed further sessions).
    pub fn computer(&self) -> &RecoveryComputer<'a> {
        &self.computer
    }
}

impl<'a, V: GraphView> RtrSession<'a, V> {
    /// Starts an RTR session using the *thorough* first phase: one
    /// collection walk per unreachable neighbor of the initiator (see
    /// [`crate::phase1::collect_failure_info_thorough`]). Better failure
    /// coverage, longer total walk — the trade-off §III-C discusses. The
    /// stored phase-1 result is the sweep from `failed_default_link`.
    ///
    /// Returns the session plus the total hops across all sweeps.
    ///
    /// # Errors
    ///
    /// Same contract as [`RtrSession::start`].
    pub fn start_thorough(
        topo: &'a Topology,
        crosslinks: &CrossLinkTable,
        view: &'a V,
        initiator: NodeId,
        failed_default_link: LinkId,
    ) -> Result<(Self, usize), Phase1Error> {
        let phase1 = collect_failure_info(topo, crosslinks, view, initiator, failed_default_link)?;
        let thorough =
            crate::phase1::collect_failure_info_thorough(topo, crosslinks, view, initiator)?;
        let computer = RecoveryComputer::new(topo, view, initiator, &thorough.header);
        let total_hops = thorough.total_hops;
        Ok((
            RtrSession {
                topo,
                view,
                phase1,
                computer,
            },
            total_hops,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, FailureScenario, Point, Region};

    /// Wheel with dead hub: every rim-to-rim recovery succeeds optimally.
    #[test]
    fn end_to_end_recovery_on_wheel() {
        let mut b = rtr_topology::Topology::builder();
        b.add_node(Point::new(0.0, 0.0));
        for i in 0..8 {
            let theta = std::f64::consts::TAU * i as f64 / 8.0;
            b.add_node(Point::new(10.0 * theta.cos(), 10.0 * theta.sin()));
        }
        for i in 1..=8u32 {
            b.add_link(NodeId(0), NodeId(i), 1).unwrap();
            let next = if i == 8 { 1 } else { i + 1 };
            b.add_link(NodeId(i), NodeId(next), 1).unwrap();
        }
        let topo = b.build().unwrap();
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(0)], []);
        let spoke = topo.link_between(NodeId(1), NodeId(0)).unwrap();
        let mut session = RtrSession::start(&topo, &xl, &s, NodeId(1), spoke).unwrap();
        assert!(session.phase1().is_complete());
        assert_eq!(session.initiator(), NodeId(1));

        // Recover to the node diametrically opposite (old route was via
        // the hub, 2 hops; now 4 hops around the rim).
        let attempt = session.recover(NodeId(5));
        assert!(attempt.is_delivered());
        let p = attempt.path.unwrap();
        assert_eq!(p.cost(), 4);
        // Theorem 2: the recovery path equals the ground-truth optimum.
        let optimal = rtr_routing::shortest_path(&topo, &s, NodeId(1), NodeId(5)).unwrap();
        assert_eq!(p.cost(), optimal.cost());

        // One SP calculation regardless of how many destinations recover.
        for i in 2..=8 {
            let a = session.recover(NodeId(i));
            assert!(a.is_delivered(), "v{i}");
        }
        assert_eq!(session.sp_calculations(), 1);
    }

    #[test]
    fn recover_reusing_matches_recover() {
        let topo = generate::grid(3, 3, 10.0);
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(4)], []);
        let failed = topo.link_between(NodeId(3), NodeId(4)).unwrap();
        let mut session = RtrSession::start(&topo, &xl, &s, NodeId(3), failed).unwrap();
        let mut trace = ForwardingTrace::default();
        for dest in topo.node_ids() {
            if dest == NodeId(3) {
                continue;
            }
            let outcome = session.recover_reusing(dest, &mut trace, &mut rtr_obs::NoopSink);
            let attempt = session.recover(dest);
            assert_eq!(outcome, attempt.outcome, "outcome mismatch for {dest}");
            assert_eq!(trace, attempt.trace, "trace mismatch for {dest}");
        }
        assert_eq!(session.sp_calculations(), 1);
    }

    #[test]
    fn based_start_with_full_view_matches_plain_start() {
        let topo = generate::grid(4, 4, 10.0);
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(5)], []);
        let failed = topo.link_between(NodeId(4), NodeId(5)).unwrap();
        let mut scratch = crate::phase2::RecoveryScratch::default();
        let mut based = RtrSession::start_based_traced_in(
            &topo,
            &xl,
            &s,
            &rtr_topology::FullView,
            NodeId(4),
            failed,
            &mut scratch,
            &mut rtr_obs::NoopSink,
        )
        .unwrap();
        let mut plain = RtrSession::start(&topo, &xl, &s, NodeId(4), failed).unwrap();
        for dest in topo.node_ids() {
            if dest == NodeId(4) {
                continue;
            }
            let a = based.recover(dest);
            let b = plain.recover(dest);
            assert_eq!(a.outcome, b.outcome, "outcome for {dest}");
            assert_eq!(a.path, b.path, "path for {dest}");
        }
    }

    #[test]
    fn stale_base_excludes_known_dead_links_from_believed_view() {
        // Ring of 6: node 0 recovers toward node 3. Ground truth: links
        // 0-1 and 4-5 are down. The stale converged base already knows
        // about 4-5 (it went down in an earlier timeline event), so the
        // believed recovery path must avoid it even though the phase-1
        // sweep from the 0-1 failure may never observe it.
        let topo = generate::ring(6, 100.0).unwrap();
        let xl = CrossLinkTable::new(&topo);
        let l01 = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let l45 = topo.link_between(NodeId(4), NodeId(5)).unwrap();
        let truth = rtr_topology::LinkMask::from_links(&topo, [l01, l45]);
        let stale_base = rtr_topology::LinkMask::from_links(&topo, [l45]);
        let mut scratch = crate::phase2::RecoveryScratch::default();
        let mut session = RtrSession::start_based_traced_in(
            &topo,
            &xl,
            &truth,
            &stale_base,
            NodeId(0),
            l01,
            &mut scratch,
            &mut rtr_obs::NoopSink,
        )
        .unwrap();
        // With both ring cuts, 3 is unreachable from 0... only via 5-4?
        // 0-5 and 1-2-3 survive: 0 can reach 5 (dead end) and nothing
        // else; 3 is unreachable in truth from 0. A reachable target:
        // none across the cut — so recover toward 5, the only live arc.
        let attempt = session.recover(NodeId(5));
        assert!(attempt.is_delivered());
        let p = attempt.path.unwrap();
        assert!(
            !p.links().contains(&l45),
            "believed path may not use the stale-known dead link"
        );
        // And an unreachable destination is recognized from the believed
        // view alone (no packet launched into the known-dead arc).
        let blocked = session.recover(NodeId(3));
        assert_eq!(blocked.outcome, DeliveryOutcome::NoPath);
    }

    #[test]
    fn recovery_to_unreachable_destination_discards_immediately() {
        let topo = generate::path(4, 10.0).unwrap();
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(2)], []);
        let failed = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let mut session = RtrSession::start(&topo, &xl, &s, NodeId(1), failed).unwrap();
        let attempt = session.recover(NodeId(3));
        assert_eq!(attempt.outcome, DeliveryOutcome::NoPath);
        assert_eq!(attempt.trace.hops(), 0);
        assert!(!attempt.is_delivered());
    }

    #[test]
    fn region_failure_recovery_on_isp_twin() {
        let topo = rtr_topology::isp::profile("AS1239").unwrap().synthesize();
        let xl = CrossLinkTable::new(&topo);
        let region = Region::circle((1000.0, 1000.0), 250.0);
        let s = FailureScenario::from_region(&topo, &region);
        // Find some live node with an unreachable neighbor.
        let initiator = topo
            .node_ids()
            .find(|&n| {
                !s.is_node_failed(n)
                    && topo
                        .neighbors(n)
                        .iter()
                        .any(|&(_, l)| !s.is_neighbor_reachable(&topo, n, l))
            })
            .expect("a radius-250 circle at the centre hits something");
        let failed = topo
            .neighbors(initiator)
            .iter()
            .find(|&&(_, l)| !s.is_neighbor_reachable(&topo, initiator, l))
            .map(|&(_, l)| l)
            .unwrap();
        let mut session = RtrSession::start(&topo, &xl, &s, initiator, failed).unwrap();
        assert!(session.phase1().is_complete());

        // Every delivered recovery is optimal (Theorem 2).
        for dest in topo.node_ids() {
            if dest == initiator {
                continue;
            }
            let attempt = session.recover(dest);
            if attempt.is_delivered() {
                let got = attempt.path.unwrap().cost();
                let optimal = session
                    .computer()
                    .initiator()
                    .pipe_optimal(&topo, &s, dest)
                    .expect("delivered implies reachable");
                assert_eq!(got, optimal, "stretch must be 1 for {dest}");
            }
        }
        assert_eq!(session.sp_calculations(), 1);
    }

    /// Helper trait so the test above reads linearly.
    trait PipeOptimal {
        fn pipe_optimal(
            self,
            topo: &rtr_topology::Topology,
            s: &FailureScenario,
            dest: NodeId,
        ) -> Option<u64>;
    }
    impl PipeOptimal for NodeId {
        fn pipe_optimal(
            self,
            topo: &rtr_topology::Topology,
            s: &FailureScenario,
            dest: NodeId,
        ) -> Option<u64> {
            rtr_routing::shortest_path(topo, s, self, dest).map(|p| p.cost())
        }
    }
}
