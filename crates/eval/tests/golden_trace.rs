//! Golden-trace test (DESIGN.md §10): replaying a figure scenario with a
//! collecting sink must yield event-derived metrics that *byte-equal* the
//! driver-side `rtr-eval` metrics — phase-1 hops, #SP calculations,
//! header bytes, and per-case stretch.
//!
//! The driver side below is built like `driver::run_scenario` (one
//! pooled session per `rtr_eval::testcase::sessions` entry), and the
//! replay side comes from `rtr_eval::trace::replay_scenario`. Floats are
//! compared via `f64::to_bits` — bit equality, not epsilon.

use rtr_core::SessionPool;
use rtr_eval::config::ExperimentConfig;
use rtr_eval::schemes::{build_comparators, eval_recoverable_in, RecoverableRow};
use rtr_eval::testcase::{sessions, TestCase};
use rtr_eval::trace::{first_recoverable_scenario, replay_scenario, workload_for, SessionReplay};
use rtr_obs::{DiscardReason, Event};
use rtr_sim::LINK_ID_BYTES;
use rtr_topology::{isp, NodeId};

/// Asserts one replayed session's event stream against the driver rows of
/// the same initiator group, plus the optimal distances for stretch.
fn assert_session_matches(
    replay: &SessionReplay,
    rows: &[RecoverableRow],
    cases: &[TestCase],
    optimal: &rtr_routing::ShortestPaths,
) {
    // Event-derived phase-1 hops == the driver's phase1_hops on every row.
    let sweep_hops = replay
        .events
        .iter()
        .filter(|e| matches!(e, Event::SweepHop { .. }))
        .count();
    for row in rows {
        assert_eq!(sweep_hops, row.phase1_hops, "phase-1 hops diverge");
    }

    // Event-derived #SP == the driver's RTR sp_calculations (always 1).
    let recomputes = replay
        .events
        .iter()
        .filter(|e| matches!(e, Event::SptRecompute { .. }))
        .count();
    for row in rows {
        assert_eq!(recomputes, row.rtr().sp_calculations, "#SP diverges");
    }

    // Event-derived header bytes: newly-recorded links × LINK_ID_BYTES,
    // which must equal both the header's overhead and the final SweepHop's
    // in-packet byte count.
    let recorded = replay
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::FailedLinkAppended { .. } | Event::CrossLinkExcluded { .. }
            )
        })
        .count();
    assert_eq!(recorded * LINK_ID_BYTES, replay.stats.header_bytes);
    let last_hop_bytes = replay
        .events
        .iter()
        .filter_map(|e| match e {
            Event::SweepHop { header_bytes, .. } => Some(*header_bytes),
            _ => None,
        })
        .next_back();
    assert_eq!(last_hop_bytes, Some(replay.stats.header_bytes));

    // Per-case stretch: every `recover` call emits exactly one of a
    // `SourceRouteInstalled` (route found — possibly discarded later with
    // `HitFailure`) or a `PacketDiscarded { reason: NoPath }` (no route),
    // in case order, so the event stream reconstructs one outcome per row.
    let outcomes: Vec<Option<(NodeId, u64)>> = replay
        .events
        .iter()
        .filter_map(|e| match e {
            Event::SourceRouteInstalled { dest, cost, .. } => Some(Some((*dest, *cost))),
            Event::PacketDiscarded {
                reason: DiscardReason::NoPath,
                ..
            } => Some(None),
            _ => None,
        })
        .collect();
    assert_eq!(outcomes.len(), rows.len(), "one routing outcome per case");
    for ((row, case), outcome) in rows.iter().zip(cases).zip(&outcomes) {
        match outcome {
            Some((dest, cost)) => {
                assert_eq!(*dest, case.dest);
                if let Some(stretch) = row.rtr().stretch {
                    let optimal_cost = optimal.distance(case.dest).expect("recoverable case");
                    let event_stretch = *cost as f64 / optimal_cost as f64;
                    assert_eq!(
                        event_stretch.to_bits(),
                        stretch.to_bits(),
                        "stretch diverges for dest {dest}"
                    );
                }
            }
            None => {
                assert!(!row.rtr().delivered, "NoPath event but driver delivered");
                assert!(row.rtr().stretch.is_none());
            }
        }
    }
}

#[test]
fn replayed_events_byte_equal_driver_metrics() {
    let cfg = ExperimentConfig::quick().with_cases(40).with_threads(1);
    let w = workload_for(
        isp::profile("AS209").expect("AS209 is a Table II twin"),
        &cfg,
    );
    let (_, sc) = first_recoverable_scenario(&w).expect("40 cases hit a recoverable scenario");

    // Replay side: collecting-sink event streams, one per session.
    let replays = replay_scenario(&w, sc, &cfg);
    assert!(!replays.is_empty());

    // Driver side: identical construction to driver::run_scenario.
    let comparators = build_comparators(w.topo(), cfg.schemes, cfg.mrc_configurations)
        .expect("AS209 supports MRC");
    let pool = SessionPool::with_kernels(cfg.kernels, cfg.sweep);
    let ctx = w.scheme_ctx();

    let mut replay_it = replays.iter();
    let mut compared_cases = 0usize;
    for (initiator, failed_link, cases) in sessions(&sc.recoverable) {
        let mut session = pool
            .start_session(
                w.topo(),
                w.crosslinks(),
                &sc.scenario,
                initiator,
                failed_link,
            )
            .expect("recoverable case: live initiator");
        let mut optimal_lease = pool.dijkstra();
        let mut scheme_lease = pool.scheme_scratch();
        let optimal = optimal_lease.run(w.topo(), &sc.scenario, initiator);
        let rows: Vec<RecoverableRow> = cases
            .iter()
            .map(|case| {
                let (row, _) = eval_recoverable_in(
                    ctx,
                    &sc.scenario,
                    &mut session,
                    &comparators,
                    optimal,
                    case,
                    &mut scheme_lease,
                );
                row
            })
            .collect();

        let replay = replay_it.next().expect("one replay per initiator group");
        assert_eq!(replay.stats.initiator, initiator);
        assert_session_matches(replay, &rows, cases, optimal);
        compared_cases += rows.len();
    }
    assert!(compared_cases > 0, "scenario contributed no comparisons");
}
