//! End-to-end integration tests spanning every crate: topology generation →
//! routing → failure injection → five-scheme recovery → metrics.

use rtr::baselines::{Emrc, Fcp, Mrc, RecoveryScheme, SchemeCtx};
use rtr::core::{DeliveryOutcome, Phase1Termination, RtrSession, SchemeScratch};
use rtr::routing::{shortest_path, RoutingTable};
use rtr::sim::{CaseKind, DelayModel, Network};
use rtr::topology::{isp, CrossLinkTable, FailureScenario, FullView, Region};

/// The paper's Fig. 1/2 situation: a failure area in the middle of a
/// network, a source whose path crossed it, and a full recovery.
#[test]
fn paper_walkthrough_on_a_twin() {
    let topo = isp::profile("AS209").unwrap().synthesize();
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    // Centre the failure on the densest node so the region reliably swallows
    // part of the core (magic coordinates would silently depend on the RNG
    // stream behind the synthesized embedding).
    let hub = topo.node_ids().max_by_key(|&n| topo.degree(n)).unwrap();
    let c = topo.position(hub);
    let region = Region::circle((c.x, c.y), 220.0);
    let scenario = FailureScenario::from_region(&topo, &region);
    let net = Network::new(&topo, &scenario, &table);

    let mut recovered = 0;
    let mut cases = 0;
    for s in topo.node_ids() {
        for t in topo.node_ids() {
            if s == t {
                continue;
            }
            if let CaseKind::Recoverable {
                initiator,
                failed_link,
            } = net.classify(s, t)
            {
                cases += 1;
                let mut session =
                    RtrSession::start(&topo, &crosslinks, &scenario, initiator, failed_link)
                        .expect("recoverable case: live initiator with a failed incident link");
                let attempt = session.recover(t);
                if attempt.is_delivered() {
                    recovered += 1;
                    // Theorem 2 end to end.
                    let opt = shortest_path(&topo, &scenario, initiator, t)
                        .unwrap()
                        .cost();
                    assert_eq!(attempt.path.unwrap().cost(), opt);
                }
            }
        }
    }
    assert!(cases > 0, "the failure must break some paths");
    assert!(
        recovered as f64 / cases as f64 > 0.9,
        "recovered only {recovered}/{cases}"
    );
}

/// The schemes agree on the easy cases and diverge exactly where the
/// paper says: FCP always delivers recoverable traffic but pays in
/// computation; MRC drops second failures; eMRC recovers at least as
/// many of them as MRC. All comparators run behind the
/// [`RecoveryScheme`] trait.
#[test]
fn schemes_disagree_as_published() {
    let topo = isp::profile("AS4323").unwrap().synthesize();
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    let ctx = SchemeCtx {
        topo: &topo,
        crosslinks: &crosslinks,
        table: &table,
    };
    let mrc = Mrc::build(&topo, 5).unwrap();
    let emrc = Emrc::build(&topo, 5).unwrap();
    let mut scratch = SchemeScratch::new();
    // Anchor the failure at the densest node (see paper_walkthrough_on_a_twin).
    let hub = topo.node_ids().max_by_key(|&n| topo.degree(n)).unwrap();
    let c = topo.position(hub);
    let region = Region::circle((c.x, c.y), 300.0);
    let scenario = FailureScenario::from_region(&topo, &region);
    let net = Network::new(&topo, &scenario, &table);

    let mut fcp_total_calcs = 0usize;
    let mut rtr_initiators = std::collections::BTreeSet::new();
    let mut mrc_drops = 0usize;
    let mut emrc_delivered = 0usize;
    let mut mrc_delivered = 0usize;
    let mut cases = 0usize;
    for s in topo.node_ids() {
        for t in topo.node_ids() {
            if s == t {
                continue;
            }
            if let CaseKind::Recoverable {
                initiator,
                failed_link,
            } = net.classify(s, t)
            {
                cases += 1;
                rtr_initiators.insert(initiator);
                let fcp = Fcp.route_in(ctx, &scenario, initiator, failed_link, t, &mut scratch);
                assert!(
                    fcp.is_delivered(),
                    "FCP always delivers recoverable traffic"
                );
                fcp_total_calcs += fcp.sp_calculations;
                let m = mrc.route_in(ctx, &scenario, initiator, failed_link, t, &mut scratch);
                if m.is_delivered() {
                    mrc_delivered += 1;
                } else {
                    mrc_drops += 1;
                }
                let e = emrc.route_in(ctx, &scenario, initiator, failed_link, t, &mut scratch);
                if e.is_delivered() {
                    emrc_delivered += 1;
                }
            }
        }
    }
    assert!(cases > 0);
    // RTR needs one SPT per initiator; FCP needed at least one calculation
    // per case (usually more).
    assert!(fcp_total_calcs >= cases);
    assert!(
        rtr_initiators.len() < cases,
        "initiators are shared across destinations"
    );
    assert!(
        mrc_drops > 0,
        "large-scale failures must defeat MRC somewhere"
    );
    assert!(
        emrc_delivered >= mrc_delivered,
        "re-switching can only help: eMRC {emrc_delivered} < MRC {mrc_delivered}"
    );
}

/// Phase-1 traces respect the delay model end to end (Fig. 7's pipeline).
#[test]
fn phase1_durations_follow_delay_model() {
    let topo = isp::profile("AS701").unwrap().synthesize();
    let crosslinks = CrossLinkTable::new(&topo);
    let scenario = FailureScenario::from_region(&topo, &Region::circle((500.0, 500.0), 150.0));
    let delay = DelayModel::PAPER;

    for n in topo.node_ids() {
        if scenario.is_node_failed(n) {
            continue;
        }
        let Some(&(_, dead)) = topo
            .neighbors(n)
            .iter()
            .find(|&&(_, l)| !scenario.is_neighbor_reachable(&topo, n, l))
        else {
            continue;
        };
        let has_live = topo
            .neighbors(n)
            .iter()
            .any(|&(_, l)| scenario.is_neighbor_reachable(&topo, n, l));
        if !has_live {
            continue;
        }
        let session = RtrSession::start(&topo, &crosslinks, &scenario, n, dead)
            .expect("recoverable case: live initiator with a failed incident link");
        let p1 = session.phase1();
        assert_eq!(p1.termination, Phase1Termination::Completed);
        let d = p1.trace.duration(&delay);
        assert_eq!(d.as_micros(), p1.trace.hops() as u64 * 1_800);
    }
}

/// The irrecoverable pipeline: RTR identifies lost destinations with one
/// calculation and almost no wasted forwarding.
#[test]
fn irrecoverable_traffic_is_cut_off_quickly() {
    let topo = isp::profile("AS1239").unwrap().synthesize();
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    // A big hole that partitions the sparse twin.
    let region = Region::circle((1000.0, 1000.0), 420.0);
    let scenario = FailureScenario::from_region(&topo, &region);
    let net = Network::new(&topo, &scenario, &table);

    let mut found = 0;
    for s in topo.node_ids() {
        for t in topo.node_ids() {
            if s == t {
                continue;
            }
            if let CaseKind::Irrecoverable {
                initiator,
                failed_link,
            } = net.classify(s, t)
            {
                found += 1;
                let mut session =
                    RtrSession::start(&topo, &crosslinks, &scenario, initiator, failed_link)
                        .expect("recoverable case: live initiator with a failed incident link");
                let attempt = session.recover(t);
                assert!(!attempt.is_delivered());
                // RTR spends exactly one calculation, and the discard walk
                // is no longer than the believed path.
                assert_eq!(session.sp_calculations(), 1);
                if attempt.outcome == DeliveryOutcome::NoPath {
                    assert_eq!(attempt.trace.hops(), 0);
                }
            }
        }
    }
    assert!(
        found > 0,
        "a radius-420 hole should partition AS1239's twin"
    );
}

/// The full experiment harness runs end to end at a tiny scale and its
/// reports hold the paper's qualitative results.
#[test]
fn harness_end_to_end_tiny_scale() {
    let cfg = rtr::eval::ExperimentConfig::quick().with_cases(80);
    let as209 = isp::profile("AS209").expect("AS209 is a Table II topology");
    let results = rtr::eval::run_topologies(&[as209], &cfg).expect("AS209 builds MRC");
    assert_eq!(results.len(), 1);
    let h = rtr::eval::reports::headline(&results);
    assert!(h.rtr_optimal_recovery_rate > 80.0);
    assert!(h.computation_saving_pct > 0.0);
    assert!(h.transmission_saving_pct > 0.0);

    let t3 = rtr::eval::reports::table3(&results);
    assert!(t3.to_string().contains("AS209"));
    let f7 = rtr::eval::reports::fig7(&results);
    assert_eq!(f7.series.len(), 1);
}

/// Loading a topology from the text format and recovering on it exercises
/// the parser together with the whole stack.
#[test]
fn recovery_on_parsed_topology() {
    let topo = isp::profile("AS209").unwrap().synthesize();
    let text = isp::to_text(&topo);
    let parsed = isp::parse_topology(&text).unwrap();
    let crosslinks = CrossLinkTable::new(&parsed);
    let scenario = FailureScenario::from_region(&parsed, &Region::circle((1000.0, 1000.0), 250.0));
    let entry = parsed.node_ids().find_map(|n| {
        if scenario.is_node_failed(n) {
            return None;
        }
        let dead = topo
            .neighbors(n)
            .iter()
            .find(|&&(_, l)| !scenario.is_neighbor_reachable(&parsed, n, l))?;
        let live = topo
            .neighbors(n)
            .iter()
            .any(|&(_, l)| scenario.is_neighbor_reachable(&parsed, n, l));
        live.then_some((n, dead.1))
    });
    let Some((initiator, failed)) = entry else {
        panic!("fixture should produce an entry point");
    };
    let session = RtrSession::start(&parsed, &crosslinks, &scenario, initiator, failed)
        .expect("recoverable case: live initiator with a failed incident link");
    assert!(session.phase1().is_complete());
}
