//! Per-test-case evaluation of the five schemes (RTR, FCP, MRC, eMRC,
//! FEP) and the derived §IV metrics.
//!
//! RTR — the system under test — runs through its native
//! [`RtrSession`] so phase 1 is shared across the initiator's
//! destinations exactly as §III-A prescribes. Every comparator runs
//! behind the [`RecoveryScheme`] trait, so adding a sixth scheme means
//! implementing the trait and listing it in [`build_comparators`] —
//! the per-case loop never changes. Schemes are evaluated independently
//! per case (never influencing each other), so restricting the
//! [`SchemeMask`] never changes the numbers of the schemes that remain.

use crate::testcase::TestCase;
use rtr_baselines::{
    Emrc, Fcp, Fep, Mrc, MrcError, RecoveryScheme, SchemeAttempt, SchemeCtx, SchemeId, SchemeMask,
};
use rtr_core::{RtrSession, SchemeScratch};
use rtr_routing::ShortestPaths;
use rtr_sim::{DelayModel, ForwardingTrace, SimTime, PAYLOAD_BYTES};
use rtr_topology::{FailureScenario, Topology};

/// Transmission overhead of one scheme over time: the packet's hop-by-hop
/// header bytes while its recovery is in flight, then a steady per-packet
/// value once the scheme's state has converged.
///
/// * RTR: the in-flight part is phase 1 followed by the first source-routed
///   packet; afterwards every packet carries only the (shrinking) source
///   route, so the steady value is the mean source-route bytes.
/// * Comparators: every packet independently repeats the recovery walk
///   (routers keep no per-flow state in any of the reference encodings),
///   so the steady value is the mean header bytes over the whole walk.
#[derive(Debug, Clone)]
pub struct OverheadSeries {
    trace: ForwardingTrace,
    steady: f64,
}

impl OverheadSeries {
    /// Builds a series from a trace and its post-trace steady value.
    pub fn new(trace: ForwardingTrace, steady: f64) -> Self {
        OverheadSeries { trace, steady }
    }

    /// Header overhead (bytes) observed at simulated time `t`.
    pub fn sample(&self, delay: &DelayModel, t: SimTime) -> f64 {
        if t < self.trace.duration(delay) {
            self.trace.header_bytes_at(delay, t) as f64
        } else {
            self.steady
        }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &ForwardingTrace {
        &self.trace
    }
}

/// Per-hop wasted transmission of a discarded packet: each traversed hop
/// costs the payload plus the header bytes carried over that hop (§IV-D's
/// `s × h` with exact per-hop header accounting).
pub fn wasted_transmission(trace: &ForwardingTrace) -> u64 {
    trace
        .steps()
        .iter()
        .take(trace.steps().len().saturating_sub(1))
        .map(|s| (PAYLOAD_BYTES + s.header_bytes) as u64)
        .sum()
}

/// One scheme's result on a recoverable case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeOutcome {
    /// Did the packet reach the destination?
    pub delivered: bool,
    /// Was the traversed path a ground-truth shortest path?
    pub optimal: bool,
    /// Traversed cost ÷ optimal cost, when delivered.
    pub stretch: Option<f64>,
    /// Shortest-path calculations spent (0 for the proactive schemes).
    pub sp_calculations: usize,
}

/// Everything measured on one recoverable test case: one slot per
/// [`SchemeId`], `None` for schemes outside the evaluated mask.
#[derive(Debug, Clone)]
pub struct RecoverableRow {
    /// Hops of RTR's phase-1 collection walk.
    pub phase1_hops: usize,
    /// Per-scheme outcomes, indexed by [`SchemeId::index`].
    pub outcomes: [Option<SchemeOutcome>; SchemeId::COUNT],
}

impl RecoverableRow {
    /// The outcome of `id`, if that scheme was evaluated.
    pub fn outcome(&self, id: SchemeId) -> Option<SchemeOutcome> {
        self.outcomes[id.index()]
    }

    /// RTR's outcome (always evaluated by the driver).
    pub fn rtr(&self) -> SchemeOutcome {
        self.outcome(SchemeId::Rtr)
            .expect("driver always evaluates RTR")
    }

    /// FCP's outcome, when in the mask.
    pub fn fcp(&self) -> Option<SchemeOutcome> {
        self.outcome(SchemeId::Fcp)
    }

    /// MRC's outcome, when in the mask.
    pub fn mrc(&self) -> Option<SchemeOutcome> {
        self.outcome(SchemeId::Mrc)
    }
}

/// What one scheme wasted on an irrecoverable case (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WastedWork {
    /// Wasted shortest-path calculations (always 1 for RTR; 0 for the
    /// proactive schemes).
    pub computation: usize,
    /// Wasted transmission: bytes × hops from the initiator to the
    /// discarding node.
    pub transmission: u64,
}

/// Everything measured on one irrecoverable test case: one slot per
/// [`SchemeId`], `None` for schemes outside the evaluated mask.
#[derive(Debug, Clone, Copy)]
pub struct IrrecoverableRow {
    /// Hops of RTR's phase-1 collection walk.
    pub phase1_hops: usize,
    /// Per-scheme wasted work, indexed by [`SchemeId::index`].
    pub wasted: [Option<WastedWork>; SchemeId::COUNT],
}

impl IrrecoverableRow {
    /// The wasted work of `id`, if that scheme was evaluated.
    pub fn of(&self, id: SchemeId) -> Option<WastedWork> {
        self.wasted[id.index()]
    }

    /// RTR's wasted work (always evaluated by the driver).
    pub fn rtr(&self) -> WastedWork {
        self.of(SchemeId::Rtr).expect("driver always evaluates RTR")
    }

    /// FCP's wasted work, when in the mask.
    pub fn fcp(&self) -> Option<WastedWork> {
        self.of(SchemeId::Fcp)
    }
}

/// Per-scheme overhead series of one recoverable case, indexed by
/// [`SchemeId::index`] (Fig. 10's input).
pub type CaseSeries = [Option<OverheadSeries>; SchemeId::COUNT];

fn stretch_of(cost: u64, optimal: u64) -> f64 {
    debug_assert!(optimal > 0);
    cost as f64 / optimal as f64
}

fn outcome_of(attempt: &SchemeAttempt, optimal_cost: u64) -> SchemeOutcome {
    let delivered = attempt.is_delivered();
    SchemeOutcome {
        delivered,
        optimal: delivered && attempt.cost_traversed == optimal_cost,
        stretch: delivered.then(|| stretch_of(attempt.cost_traversed, optimal_cost)),
        sp_calculations: attempt.sp_calculations,
    }
}

/// Builds the comparator backends selected by `mask` for one topology, in
/// [`SchemeId`] order (RTR is excluded — the driver runs it natively).
/// MRC's configuration assignment is built at most once and shared between
/// MRC and eMRC.
///
/// This is the uncached builder: every call recomputes the backends.
/// Consumers that hold a `Baseline` take them from its memo instead,
/// [`Baseline::comparators`](crate::baseline::Baseline::comparators).
///
/// # Errors
///
/// Propagates [`MrcError`] from `Mrc::build` when the mask requests MRC or
/// eMRC on a topology they cannot cover.
pub fn build_comparators(
    topo: &Topology,
    mask: SchemeMask,
    mrc_configurations: usize,
) -> Result<Vec<Box<dyn RecoveryScheme>>, MrcError> {
    let mrc = if mask.contains(SchemeId::Mrc) || mask.contains(SchemeId::Emrc) {
        Some(Mrc::build(topo, mrc_configurations)?)
    } else {
        None
    };
    let mut out: Vec<Box<dyn RecoveryScheme>> = Vec::new();
    for id in mask.iter() {
        match id {
            SchemeId::Rtr => {}
            SchemeId::Fcp => out.push(Box::new(Fcp)),
            SchemeId::Mrc => out.push(Box::new(
                mrc.clone().expect("built above when MRC is in the mask"),
            )),
            SchemeId::Emrc => out.push(Box::new(Emrc::from_mrc(
                mrc.clone().expect("built above when eMRC is in the mask"),
            ))),
            SchemeId::Fep => out.push(Box::new(Fep::build(topo))),
        }
    }
    Ok(out)
}

/// Evaluates RTR plus every comparator on one *recoverable* case.
///
/// `session` must be an [`RtrSession`] started at `case.initiator` for this
/// scenario (reuse it across all destinations of the initiator — that
/// sharing is exactly RTR's once-per-initiator phase 1). `optimal` must be
/// the ground-truth shortest-path tree rooted at the initiator.
/// `comparators` come from the baseline's memo,
/// [`Baseline::comparators`](crate::baseline::Baseline::comparators), or
/// from [`build_comparators`].
///
/// Returns the row plus the per-scheme overhead series used by Fig. 10.
#[allow(clippy::too_many_arguments)]
pub fn eval_recoverable_in(
    ctx: SchemeCtx<'_>,
    scenario: &FailureScenario,
    session: &mut RtrSession<'_, FailureScenario>,
    comparators: &[impl AsRef<dyn RecoveryScheme>],
    optimal: &ShortestPaths,
    case: &TestCase,
    scratch: &mut SchemeScratch,
) -> (RecoverableRow, CaseSeries) {
    debug_assert_eq!(session.initiator(), case.initiator);
    let optimal_cost = optimal
        .distance(case.dest)
        .expect("recoverable case: destination reachable from initiator");

    let mut outcomes: [Option<SchemeOutcome>; SchemeId::COUNT] = Default::default();
    let mut series: CaseSeries = Default::default();

    // --- RTR (native session; phase 1 amortised per initiator) ---
    let attempt = session.recover(case.dest);
    let phase1_hops = session.phase1().trace.hops();
    let rtr_delivered = attempt.is_delivered();
    let rtr_cost = attempt.path.as_ref().map(|p| p.cost());
    outcomes[SchemeId::Rtr.index()] = Some(SchemeOutcome {
        delivered: rtr_delivered,
        optimal: rtr_delivered && rtr_cost == Some(optimal_cost),
        stretch: rtr_delivered.then(|| stretch_of(rtr_cost.unwrap(), optimal_cost)),
        sp_calculations: session.sp_calculations(),
    });
    let mut rtr_trace = session.phase1().trace.clone();
    let steady = attempt.trace.mean_header_bytes();
    rtr_trace.extend_with(&attempt.trace);
    series[SchemeId::Rtr.index()] = Some(OverheadSeries::new(rtr_trace, steady));

    // --- Comparators, in SchemeId order ---
    for scheme in comparators {
        let scheme = scheme.as_ref();
        let attempt = scheme.route_in(
            ctx,
            scenario,
            case.initiator,
            case.failed_link,
            case.dest,
            scratch,
        );
        let i = scheme.id().index();
        outcomes[i] = Some(outcome_of(&attempt, optimal_cost));
        let steady = attempt.trace.mean_header_bytes();
        series[i] = Some(OverheadSeries::new(attempt.trace, steady));
    }

    (
        RecoverableRow {
            phase1_hops,
            outcomes,
        },
        series,
    )
}

/// Like [`eval_recoverable_in`], allocating throw-away scratch (tests and
/// one-shot callers; the driver's hot loop pools its buffers instead).
pub fn eval_recoverable(
    ctx: SchemeCtx<'_>,
    scenario: &FailureScenario,
    session: &mut RtrSession<'_, FailureScenario>,
    comparators: &[impl AsRef<dyn RecoveryScheme>],
    optimal: &ShortestPaths,
    case: &TestCase,
) -> (RecoverableRow, CaseSeries) {
    eval_recoverable_in(
        ctx,
        scenario,
        session,
        comparators,
        optimal,
        case,
        &mut SchemeScratch::new(),
    )
}

/// Evaluates RTR plus every comparator on one *irrecoverable* case
/// (§IV-D): nothing can deliver, so the measurements are what each scheme
/// wastes before giving up.
pub fn eval_irrecoverable_in(
    ctx: SchemeCtx<'_>,
    scenario: &FailureScenario,
    session: &mut RtrSession<'_, FailureScenario>,
    comparators: &[impl AsRef<dyn RecoveryScheme>],
    case: &TestCase,
    scratch: &mut SchemeScratch,
) -> IrrecoverableRow {
    debug_assert_eq!(session.initiator(), case.initiator);

    let mut wasted: [Option<WastedWork>; SchemeId::COUNT] = Default::default();

    let attempt = session.recover(case.dest);
    debug_assert!(!attempt.is_delivered(), "case is irrecoverable");
    wasted[SchemeId::Rtr.index()] = Some(WastedWork {
        computation: session.sp_calculations(),
        transmission: wasted_transmission(&attempt.trace),
    });

    for scheme in comparators {
        let scheme = scheme.as_ref();
        let attempt = scheme.route_in(
            ctx,
            scenario,
            case.initiator,
            case.failed_link,
            case.dest,
            scratch,
        );
        debug_assert!(!attempt.is_delivered(), "case is irrecoverable");
        wasted[scheme.id().index()] = Some(WastedWork {
            computation: attempt.sp_calculations,
            transmission: wasted_transmission(&attempt.trace),
        });
    }

    IrrecoverableRow {
        phase1_hops: session.phase1().trace.hops(),
        wasted,
    }
}

/// Like [`eval_irrecoverable_in`], allocating throw-away scratch.
pub fn eval_irrecoverable(
    ctx: SchemeCtx<'_>,
    scenario: &FailureScenario,
    session: &mut RtrSession<'_, FailureScenario>,
    comparators: &[impl AsRef<dyn RecoveryScheme>],
    case: &TestCase,
) -> IrrecoverableRow {
    eval_irrecoverable_in(
        ctx,
        scenario,
        session,
        comparators,
        case,
        &mut SchemeScratch::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::testcase::{generate_workload, sessions};
    use rtr_routing::dijkstra::dijkstra;
    use rtr_topology::generate;

    #[test]
    fn wasted_transmission_counts_per_hop_payload_and_header() {
        let mut t = ForwardingTrace::start(rtr_topology::NodeId(0), 4);
        t.record_hop(rtr_topology::NodeId(1), 2);
        t.record_hop(rtr_topology::NodeId(2), 0);
        // Hop 1 carries 1000+4, hop 2 carries 1000+2.
        assert_eq!(wasted_transmission(&t), 1004 + 1002);
        let empty = ForwardingTrace::start(rtr_topology::NodeId(0), 10);
        assert_eq!(wasted_transmission(&empty), 0);
    }

    #[test]
    fn overhead_series_switches_to_steady_after_trace() {
        let mut t = ForwardingTrace::start(rtr_topology::NodeId(0), 10);
        t.record_hop(rtr_topology::NodeId(1), 20);
        let s = OverheadSeries::new(t, 5.0);
        let d = DelayModel::PAPER;
        assert_eq!(s.sample(&d, SimTime::ZERO), 10.0);
        assert_eq!(s.sample(&d, SimTime::from_micros(1_800)), 5.0);
        assert_eq!(s.sample(&d, SimTime::from_millis(500)), 5.0);
    }

    #[test]
    fn build_comparators_respects_the_mask() {
        let topo = generate::isp_like(25, 60, 2000.0, 7).unwrap();
        let all = build_comparators(&topo, SchemeMask::ALL, 5).unwrap();
        assert_eq!(
            all.iter().map(|s| s.id()).collect::<Vec<_>>(),
            vec![SchemeId::Fcp, SchemeId::Mrc, SchemeId::Emrc, SchemeId::Fep]
        );
        let some = build_comparators(
            &topo,
            SchemeMask::none().with(SchemeId::Fep).with(SchemeId::Fcp),
            5,
        )
        .unwrap();
        assert_eq!(
            some.iter().map(|s| s.id()).collect::<Vec<_>>(),
            vec![SchemeId::Fcp, SchemeId::Fep]
        );
        // No MRC in the mask: a disconnected topology builds fine.
        let mut b = rtr_topology::Topology::builder();
        b.add_node(rtr_topology::Point::new(0.0, 0.0));
        b.add_node(rtr_topology::Point::new(1.0, 0.0));
        let split = b.build().unwrap();
        assert!(build_comparators(&split, SchemeMask::none().with(SchemeId::Fcp), 5).is_ok());
        assert!(build_comparators(&split, SchemeMask::ALL, 5).is_err());
    }

    #[test]
    fn recoverable_rows_have_consistent_invariants() {
        let topo = generate::isp_like(35, 80, 2000.0, 21).unwrap();
        let cfg = ExperimentConfig::quick().with_cases(60);
        let w = generate_workload("t", topo, &cfg, 3);
        let comparators = build_comparators(w.topo(), cfg.schemes, 5).unwrap();
        let mut rows = Vec::new();
        for sc in &w.scenarios {
            for (initiator, failed, cases) in sessions(&sc.recoverable) {
                let mut session =
                    RtrSession::start(w.topo(), w.crosslinks(), &sc.scenario, initiator, failed)
                        .expect("recoverable case: live initiator with a failed incident link");
                let optimal = dijkstra(w.topo(), &sc.scenario, initiator);
                for case in cases {
                    let (row, series) = eval_recoverable(
                        w.scheme_ctx(),
                        &sc.scenario,
                        &mut session,
                        &comparators,
                        &optimal,
                        case,
                    );
                    // Theorem 2: RTR delivered => optimal, stretch exactly 1.
                    let rtr = row.rtr();
                    if rtr.delivered {
                        assert!(rtr.optimal);
                        assert_eq!(rtr.stretch, Some(1.0));
                    }
                    assert_eq!(rtr.sp_calculations, 1);
                    // FCP always delivers on recoverable cases.
                    let fcp = row.fcp().unwrap();
                    assert!(fcp.delivered);
                    assert!(fcp.stretch.unwrap() >= 1.0);
                    assert!(fcp.sp_calculations >= 1);
                    // Proactive schemes spend no failure-time computation;
                    // any delivered stretch is >= 1.
                    for id in [SchemeId::Mrc, SchemeId::Emrc, SchemeId::Fep] {
                        let o = row.outcome(id).unwrap();
                        assert_eq!(o.sp_calculations, 0, "{}", id.name());
                        if let Some(s) = o.stretch {
                            assert!(s >= 1.0, "{}", id.name());
                        }
                    }
                    // eMRC delivers wherever MRC does (same first switch).
                    if row.mrc().unwrap().delivered {
                        assert!(row.outcome(SchemeId::Emrc).unwrap().delivered);
                    }
                    // The RTR series spans phase 1 plus the walk; every
                    // evaluated scheme has a series.
                    let rtr_series = series[SchemeId::Rtr.index()].as_ref().unwrap();
                    assert!(rtr_series.trace().hops() >= row.phase1_hops);
                    for id in SchemeId::ALL {
                        assert_eq!(
                            series[id.index()].is_some(),
                            row.outcome(id).is_some(),
                            "{}",
                            id.name()
                        );
                    }
                    rows.push(row);
                }
            }
        }
        assert!(!rows.is_empty());
        // RTR's recovery rate should be high (98%+ in the paper).
        let delivered = rows.iter().filter(|r| r.rtr().delivered).count();
        assert!(
            delivered as f64 / rows.len() as f64 > 0.9,
            "RTR delivered only {delivered}/{} recoverable cases",
            rows.len()
        );
    }

    #[test]
    fn irrecoverable_rows_have_consistent_invariants() {
        let topo = generate::isp_like(35, 80, 2000.0, 22).unwrap();
        let cfg = ExperimentConfig::quick().with_cases(60);
        let w = generate_workload("t", topo, &cfg, 4);
        let comparators = build_comparators(w.topo(), cfg.schemes, 5).unwrap();
        let mut rows = Vec::new();
        for sc in &w.scenarios {
            for (initiator, failed, cases) in sessions(&sc.irrecoverable) {
                let mut session =
                    RtrSession::start(w.topo(), w.crosslinks(), &sc.scenario, initiator, failed)
                        .expect("recoverable case: live initiator with a failed incident link");
                for case in cases {
                    let row = eval_irrecoverable(
                        w.scheme_ctx(),
                        &sc.scenario,
                        &mut session,
                        &comparators,
                        case,
                    );
                    assert_eq!(row.rtr().computation, 1);
                    assert!(row.fcp().unwrap().computation >= 1);
                    for id in [SchemeId::Mrc, SchemeId::Emrc, SchemeId::Fep] {
                        assert_eq!(row.of(id).unwrap().computation, 0, "{}", id.name());
                    }
                    rows.push(row);
                }
            }
        }
        assert!(!rows.is_empty());
        // FCP wastes at least as much computation as RTR on average.
        let rtr_avg: f64 =
            rows.iter().map(|r| r.rtr().computation as f64).sum::<f64>() / rows.len() as f64;
        let fcp_avg: f64 = rows
            .iter()
            .map(|r| r.fcp().unwrap().computation as f64)
            .sum::<f64>()
            / rows.len() as f64;
        assert!(fcp_avg >= rtr_avg);
    }
}
