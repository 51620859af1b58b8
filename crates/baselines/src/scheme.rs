//! The multi-backend recovery-scheme API: one object-safe trait that RTR
//! and every comparator implement, so the evaluation driver, the scenario
//! matrix, and the serving layer select backends as *data*.
//!
//! A scheme is precomputed once per topology (from whatever pre-failure
//! artifacts it needs — routing tables, MRC configurations, FEP detours)
//! and then answers independent per-packet attempts through
//! [`RecoveryScheme::route_in`], drawing all transient buffers from a
//! caller-owned [`SchemeScratch`] (checked out of `rtr-core`'s
//! `SessionPool` in the hot loops). Attempts never mutate the scheme, so
//! one `Arc<dyn RecoveryScheme>` serves any number of workers.

use crate::fcp::FcpOutcome;
use crate::mrc::{mrc_recover_in, Mrc, MrcOutcome};
use rtr_core::phase2::DeliveryOutcome;
use rtr_core::{RtrSession, SchemeScratch};
use rtr_routing::RoutingTable;
use rtr_sim::{ForwardingTrace, CONFIG_ID_BYTES};
use rtr_topology::{CrossLinkTable, GraphView, LinkId, NodeId, Topology};

/// Stable identifier of a recovery backend. The discriminant doubles as
/// the wire code of `rtr-serve`'s scheme-selector byte (0 = RTR, the
/// protocol default old clients implicitly request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SchemeId {
    /// Two-phase Reactive Topology Repair (the paper's scheme).
    Rtr = 0,
    /// Failure-Carrying Packets, source-routing variant.
    Fcp = 1,
    /// Multiple Routing Configurations (one switch, then drop).
    Mrc = 2,
    /// Enhanced MRC: backtracking-free re-switching on each new failure.
    Emrc = 3,
    /// Fast Emergency Paths: precomputed per-link detours.
    Fep = 4,
}

impl SchemeId {
    /// Number of known schemes.
    pub const COUNT: usize = 5;

    /// All schemes in id order (the canonical evaluation/report order).
    pub const ALL: [SchemeId; SchemeId::COUNT] = [
        SchemeId::Rtr,
        SchemeId::Fcp,
        SchemeId::Mrc,
        SchemeId::Emrc,
        SchemeId::Fep,
    ];

    /// The wire code of this scheme (the serve protocol's selector byte).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a wire code; `None` for unknown ids.
    pub fn from_code(code: u8) -> Option<SchemeId> {
        SchemeId::ALL.into_iter().find(|s| s.code() == code)
    }

    /// Dense index into per-scheme arrays (`== code()` today).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable short name, as used in report headers.
    pub fn name(self) -> &'static str {
        match self {
            SchemeId::Rtr => "RTR",
            SchemeId::Fcp => "FCP",
            SchemeId::Mrc => "MRC",
            SchemeId::Emrc => "eMRC",
            SchemeId::Fep => "FEP",
        }
    }

    /// True for schemes that precompute state and spend no shortest-path
    /// calculations at failure time (MRC, eMRC, FEP).
    pub fn is_proactive(self) -> bool {
        matches!(self, SchemeId::Mrc | SchemeId::Emrc | SchemeId::Fep)
    }
}

/// A set of schemes, threaded as data through `ExperimentConfig` down to
/// the driver and reports. Iteration always yields [`SchemeId::ALL`]
/// order, so scheme selection never perturbs evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemeMask(u8);

impl SchemeMask {
    /// All five schemes.
    pub const ALL: SchemeMask = SchemeMask(0b1_1111);

    /// The empty set.
    pub fn none() -> SchemeMask {
        SchemeMask(0)
    }

    /// This set plus `id`.
    #[must_use]
    pub fn with(self, id: SchemeId) -> SchemeMask {
        SchemeMask(self.0 | (1 << id.index()))
    }

    /// This set minus `id`.
    #[must_use]
    pub fn without(self, id: SchemeId) -> SchemeMask {
        SchemeMask(self.0 & !(1 << id.index()))
    }

    /// Membership test.
    pub fn contains(self, id: SchemeId) -> bool {
        self.0 & (1 << id.index()) != 0
    }

    /// Members in [`SchemeId::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = SchemeId> {
        SchemeId::ALL.into_iter().filter(move |&s| self.contains(s))
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no scheme is selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Default for SchemeMask {
    fn default() -> Self {
        SchemeMask::ALL
    }
}

impl FromIterator<SchemeId> for SchemeMask {
    fn from_iter<T: IntoIterator<Item = SchemeId>>(iter: T) -> Self {
        iter.into_iter()
            .fold(SchemeMask::none(), |acc, id| acc.with(id))
    }
}

/// The shared pre-failure context every attempt routes against: the
/// topology, RTR's crossing table, and the intact routing table. All three
/// come straight from `rtr-eval`'s `Baseline` (or `rtr-serve`'s fleet
/// entries) — schemes never recompute them.
#[derive(Debug, Clone, Copy)]
pub struct SchemeCtx<'a> {
    /// The topology under test.
    pub topo: &'a Topology,
    /// Link-crossing table (used by the RTR adapter's phase 1).
    pub crosslinks: &'a CrossLinkTable,
    /// Intact all-pairs routing table (used by FEP's primary forwarding).
    pub table: &'a RoutingTable,
}

/// What happened to one routed packet, scheme-agnostically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The packet reached the destination.
    Delivered,
    /// The packet ran into an unusable link it could not route around and
    /// was dropped there.
    Dropped {
        /// The dead link the packet hit.
        at_link: LinkId,
    },
    /// The scheme found no (further) route and discarded the packet where
    /// it stood.
    NoRoute,
}

/// The result of one [`RecoveryScheme::route_in`] attempt.
#[derive(Debug, Clone)]
pub struct SchemeAttempt {
    /// Delivery, drop-at-link, or discard.
    pub outcome: RouteOutcome,
    /// Routing cost actually traversed (for the stretch metric; partial
    /// when the packet stopped early).
    pub cost_traversed: u64,
    /// Shortest-path calculations spent at failure time (0 for proactive
    /// schemes).
    pub sp_calculations: usize,
    /// Hop-by-hop walk from the initiator with per-hop header bytes (for
    /// the transmission-overhead metrics).
    pub trace: ForwardingTrace,
}

impl SchemeAttempt {
    /// Returns true when the packet was delivered.
    pub fn is_delivered(&self) -> bool {
        self.outcome == RouteOutcome::Delivered
    }

    /// Hops actually traversed.
    pub fn hops(&self) -> usize {
        self.trace.hops()
    }
}

/// An object-safe recovery backend.
///
/// Implementations are immutable after construction; `route_in` takes
/// `&self` plus a caller-owned [`SchemeScratch`], so schemes can be shared
/// behind `Arc` across worker threads while each worker leases its own
/// scratch from a `SessionPool`.
///
/// # Contract
///
/// `failed_link` must be incident to `initiator` and unusable in `view`
/// (it is the observed default next-hop failure that triggered recovery —
/// the same precondition as [`fcp_route_in`](crate::fcp_route_in) and RTR's phase 1).
/// Implementations may panic on violations; the serving layer validates
/// requests before dispatching.
///
/// # Examples
///
/// ```
/// use rtr_baselines::{Fcp, RecoveryScheme, SchemeCtx};
/// use rtr_core::SessionPool;
/// use rtr_routing::RoutingTable;
/// use rtr_topology::{generate, CrossLinkTable, FullView, LinkMask, NodeId};
///
/// // Pre-failure artifacts, computed once per topology.
/// let topo = generate::grid(3, 3, 100.0);
/// let crosslinks = CrossLinkTable::new_all_pairs(&topo);
/// let table = RoutingTable::compute(&topo, &FullView);
/// let ctx = SchemeCtx { topo: &topo, crosslinks: &crosslinks, table: &table };
///
/// // Corner node v0 observes its first incident link die; route one
/// // packet to the opposite corner with the FCP backend.
/// let (_, failed) = topo.neighbors(NodeId(0))[0];
/// let truth = LinkMask::from_links(&topo, [failed]);
/// let pool = SessionPool::new();
/// let mut scratch = pool.scheme_scratch();
/// let attempt = Fcp.route_in(ctx, &truth, NodeId(0), failed, NodeId(8), &mut scratch);
/// assert!(attempt.is_delivered());
/// ```
pub trait RecoveryScheme: std::fmt::Debug + Send + Sync {
    /// Which backend this is.
    fn id(&self) -> SchemeId;

    /// Human-readable short name.
    fn name(&self) -> &'static str {
        self.id().name()
    }

    /// Routes one packet from `initiator` (whose default next hop over
    /// `failed_link` is unreachable) toward `dest` over ground truth
    /// `view`, drawing every transient buffer from `scratch`.
    fn route_in(
        &self,
        ctx: SchemeCtx<'_>,
        view: &dyn GraphView,
        initiator: NodeId,
        failed_link: LinkId,
        dest: NodeId,
        scratch: &mut SchemeScratch,
    ) -> SchemeAttempt;
}

/// FCP as a [`RecoveryScheme`]: per-encounter recomputation over the
/// believed topology, exactly [`fcp_route_in`](crate::fcp_route_in).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcp;

impl RecoveryScheme for Fcp {
    fn id(&self) -> SchemeId {
        SchemeId::Fcp
    }

    fn route_in(
        &self,
        ctx: SchemeCtx<'_>,
        view: &dyn GraphView,
        initiator: NodeId,
        failed_link: LinkId,
        dest: NodeId,
        scratch: &mut SchemeScratch,
    ) -> SchemeAttempt {
        let attempt = crate::fcp::fcp_route_scratch(
            ctx.topo,
            &view,
            initiator,
            failed_link,
            dest,
            &mut scratch.sp,
            &mut scratch.mask,
        );
        SchemeAttempt {
            outcome: match attempt.outcome {
                FcpOutcome::Delivered => RouteOutcome::Delivered,
                FcpOutcome::Discarded => RouteOutcome::NoRoute,
            },
            cost_traversed: attempt.cost_traversed,
            sp_calculations: attempt.sp_calculations,
            trace: attempt.trace,
        }
    }
}

/// Synthesizes the hop-by-hop trace of an MRC-family walk: after the
/// configuration switch every packet carries the configuration id
/// ([`CONFIG_ID_BYTES`]) until routing reconverges.
pub(crate) fn config_walk_trace(initiator: NodeId, nodes: &[NodeId]) -> ForwardingTrace {
    let mut trace = ForwardingTrace::start(initiator, CONFIG_ID_BYTES);
    for &n in nodes {
        trace.record_hop(n, CONFIG_ID_BYTES);
    }
    trace
}

impl RecoveryScheme for Mrc {
    fn id(&self) -> SchemeId {
        SchemeId::Mrc
    }

    fn route_in(
        &self,
        ctx: SchemeCtx<'_>,
        view: &dyn GraphView,
        initiator: NodeId,
        failed_link: LinkId,
        dest: NodeId,
        scratch: &mut SchemeScratch,
    ) -> SchemeAttempt {
        let attempt = mrc_recover_in(
            ctx.topo,
            self,
            &view,
            initiator,
            failed_link,
            dest,
            &mut scratch.sp,
        );
        let walked = attempt
            .path
            .as_ref()
            .map(|p| {
                p.nodes()
                    .iter()
                    .copied()
                    .skip(1)
                    .take(attempt.hops_traversed)
            })
            .into_iter()
            .flatten()
            .collect::<Vec<_>>();
        SchemeAttempt {
            outcome: match attempt.outcome {
                MrcOutcome::Delivered => RouteOutcome::Delivered,
                MrcOutcome::HitSecondFailure { at_link } => RouteOutcome::Dropped { at_link },
                MrcOutcome::NoBackupPath => RouteOutcome::NoRoute,
            },
            cost_traversed: attempt.cost_traversed,
            sp_calculations: 0,
            trace: config_walk_trace(initiator, &walked),
        }
    }
}

/// RTR behind the [`RecoveryScheme`] trait: a full session (phase-1
/// collection walk + phase-2 source-routed walk) per attempt.
///
/// The evaluation driver keeps using `RtrSession` directly so phase 1 is
/// shared across all destinations of one initiator; this adapter serves
/// the uniform callers — the scenario matrix, the serving layer's scheme
/// dispatch, and cross-scheme property tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rtr;

impl RecoveryScheme for Rtr {
    fn id(&self) -> SchemeId {
        SchemeId::Rtr
    }

    fn route_in(
        &self,
        ctx: SchemeCtx<'_>,
        view: &dyn GraphView,
        initiator: NodeId,
        failed_link: LinkId,
        dest: NodeId,
        scratch: &mut SchemeScratch,
    ) -> SchemeAttempt {
        let session = RtrSession::start_in(
            ctx.topo,
            ctx.crosslinks,
            &view,
            initiator,
            failed_link,
            &mut scratch.recovery,
        );
        let Ok(mut session) = session else {
            // No live neighbor: phase 1 cannot even start, the packet is
            // discarded at the initiator.
            return SchemeAttempt {
                outcome: RouteOutcome::NoRoute,
                cost_traversed: 0,
                sp_calculations: 0,
                trace: ForwardingTrace::start(initiator, 0),
            };
        };
        let attempt = session.recover(dest);
        let sp_calculations = session.sp_calculations();
        let mut trace = session.phase1().trace.clone();
        trace.extend_with(&attempt.trace);
        let outcome = match attempt.outcome {
            DeliveryOutcome::Delivered => RouteOutcome::Delivered,
            DeliveryOutcome::HitFailure { at_link } => RouteOutcome::Dropped { at_link },
            DeliveryOutcome::NoPath => RouteOutcome::NoRoute,
        };
        // Cost actually traversed along the believed path, up to the drop.
        let mut cost_traversed = 0u64;
        if let Some(path) = &attempt.path {
            for (&l, &from) in path.links().iter().zip(path.nodes()) {
                if let RouteOutcome::Dropped { at_link } = outcome {
                    if l == at_link {
                        break;
                    }
                }
                cost_traversed += u64::from(ctx.topo.cost_from(l, from));
            }
        }
        session.recycle(&mut scratch.recovery);
        SchemeAttempt {
            outcome,
            cost_traversed,
            sp_calculations,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, FailureScenario, FullView};

    #[test]
    fn ids_round_trip_and_name() {
        for id in SchemeId::ALL {
            assert_eq!(SchemeId::from_code(id.code()), Some(id));
            assert_eq!(SchemeId::ALL[id.index()], id);
            assert!(!id.name().is_empty());
        }
        assert_eq!(SchemeId::from_code(5), None);
        assert_eq!(SchemeId::from_code(255), None);
        assert_eq!(SchemeId::Rtr.code(), 0, "wire default must stay RTR");
        assert!(!SchemeId::Rtr.is_proactive());
        assert!(!SchemeId::Fcp.is_proactive());
        assert!(SchemeId::Mrc.is_proactive());
        assert!(SchemeId::Emrc.is_proactive());
        assert!(SchemeId::Fep.is_proactive());
    }

    #[test]
    fn mask_set_operations() {
        let all = SchemeMask::default();
        assert_eq!(all, SchemeMask::ALL);
        assert_eq!(all.len(), SchemeId::COUNT);
        assert!(!all.is_empty());
        assert_eq!(all.iter().collect::<Vec<_>>(), SchemeId::ALL);

        let two = SchemeMask::none().with(SchemeId::Fep).with(SchemeId::Rtr);
        assert_eq!(two.len(), 2);
        assert!(two.contains(SchemeId::Rtr) && two.contains(SchemeId::Fep));
        assert!(!two.contains(SchemeId::Mrc));
        // Iteration is id-ordered regardless of insertion order.
        assert_eq!(
            two.iter().collect::<Vec<_>>(),
            vec![SchemeId::Rtr, SchemeId::Fep]
        );
        assert_eq!(
            two.without(SchemeId::Rtr).iter().next(),
            Some(SchemeId::Fep)
        );
        assert_eq!([SchemeId::Mrc].into_iter().collect::<SchemeMask>().len(), 1);
        assert!(SchemeMask::none().is_empty());
    }

    fn diamond() -> (Topology, LinkId) {
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
        (topo, short)
    }

    #[test]
    fn fcp_and_rtr_adapters_deliver_on_the_diamond() {
        let (topo, failed) = diamond();
        let crosslinks = CrossLinkTable::new(&topo);
        let table = RoutingTable::compute(&topo, &FullView);
        let ctx = SchemeCtx {
            topo: &topo,
            crosslinks: &crosslinks,
            table: &table,
        };
        let scenario = FailureScenario::single_link(&topo, failed);
        let mut scratch = SchemeScratch::new();
        for scheme in [&Fcp as &dyn RecoveryScheme, &Rtr] {
            let a = scheme.route_in(ctx, &scenario, NodeId(0), failed, NodeId(3), &mut scratch);
            assert!(a.is_delivered(), "{} failed on the diamond", scheme.name());
            assert_eq!(a.cost_traversed, 2, "{}", scheme.name());
            assert!(a.hops() >= 2, "{}", scheme.name());
        }
    }

    #[test]
    fn rtr_adapter_reports_no_route_when_stranded() {
        // Path 0-1-2: node 1 fails, initiator 0 has no live neighbor.
        let topo = generate::path(3, 10.0).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let table = RoutingTable::compute(&topo, &FullView);
        let ctx = SchemeCtx {
            topo: &topo,
            crosslinks: &crosslinks,
            table: &table,
        };
        let s = FailureScenario::from_parts(&topo, [NodeId(1)], []);
        let failed = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut scratch = SchemeScratch::new();
        let a = Rtr.route_in(ctx, &s, NodeId(0), failed, NodeId(2), &mut scratch);
        assert_eq!(a.outcome, RouteOutcome::NoRoute);
        assert_eq!(a.cost_traversed, 0);
    }

    #[test]
    fn mrc_scheme_matches_mrc_recover_in() {
        let topo = generate::isp_like(25, 60, 2000.0, 7).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let table = RoutingTable::compute(&topo, &FullView);
        let ctx = SchemeCtx {
            topo: &topo,
            crosslinks: &crosslinks,
            table: &table,
        };
        let mrc = Mrc::build(&topo, 4).unwrap();
        let l = topo
            .link_ids()
            .find(|&l| mrc.link_configuration(l).is_some())
            .unwrap();
        let (a, b) = topo.link(l).endpoints();
        let s = FailureScenario::single_link(&topo, l);
        let mut scratch = SchemeScratch::new();
        let got = mrc.route_in(ctx, &s, a, l, b, &mut scratch);
        let reference = crate::mrc::mrc_recover_in(
            &topo,
            &mrc,
            &s,
            a,
            l,
            b,
            &mut rtr_routing::DijkstraScratch::new(),
        );
        assert_eq!(got.is_delivered(), reference.is_delivered());
        assert_eq!(got.cost_traversed, reference.cost_traversed);
        assert_eq!(got.sp_calculations, 0);
        assert_eq!(got.hops(), reference.hops_traversed);
        // Every hop after the switch carries the configuration id.
        assert!(got
            .trace
            .steps()
            .iter()
            .all(|st| st.header_bytes == CONFIG_ID_BYTES));
    }
}
