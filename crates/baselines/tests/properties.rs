//! Property-based tests for the baseline schemes — the FCP/MRC free
//! functions plus cross-scheme laws over the [`RecoveryScheme`] trait.

use proptest::prelude::*;
use rtr_baselines::{
    fcp_route_in, mrc::validate, mrc_recover_in, Emrc, Fcp, FcpOutcome, FcpScratch, Fep, Mrc,
    RecoveryScheme, Rtr, SchemeCtx,
};
use rtr_core::SchemeScratch;
use rtr_routing::{shortest_path, DijkstraScratch, RoutingTable};
use rtr_topology::{
    generate, is_reachable, CrossLinkTable, FailureScenario, FullView, GraphView, LinkId, NodeId,
    Region, Topology,
};

fn entry_points(topo: &Topology, s: &FailureScenario) -> Vec<(NodeId, LinkId)> {
    topo.node_ids()
        .filter(|&n| !s.is_node_failed(n))
        .filter_map(|n| {
            let dead = topo
                .neighbors(n)
                .iter()
                .find(|&&(_, l)| !s.is_link_usable(topo, l))?;
            Some((n, dead.1))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// FCP delivers iff the destination is reachable in the ground truth —
    /// it tries every alternative before giving up.
    #[test]
    fn fcp_delivery_matches_reachability(
        n in 8..35usize,
        seed in 0..300u64,
        cx in 0.0..2000.0f64,
        cy in 0.0..2000.0f64,
        r in 50.0..400.0f64,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let s = FailureScenario::from_region(&topo, &Region::circle((cx, cy), r));
        for (initiator, failed) in entry_points(&topo, &s).into_iter().take(3) {
            for dest in topo.node_ids().step_by(3) {
                if dest == initiator {
                    continue;
                }
                let attempt = fcp_route_in(&topo, &s, initiator, failed, dest, &mut FcpScratch::default());
                prop_assert_eq!(
                    attempt.is_delivered(),
                    is_reachable(&topo, &s, initiator, dest),
                    "FCP delivery must track ground-truth reachability ({}->{})", initiator, dest
                );
            }
        }
    }

    /// Delivered FCP packets traverse at least the optimal cost and carry
    /// only genuinely failed links.
    #[test]
    fn fcp_cost_and_carried_failures_sound(
        n in 8..30usize,
        seed in 0..200u64,
        cx in 0.0..2000.0f64,
        cy in 0.0..2000.0f64,
        r in 50.0..350.0f64,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let s = FailureScenario::from_region(&topo, &Region::circle((cx, cy), r));
        for (initiator, failed) in entry_points(&topo, &s).into_iter().take(2) {
            for dest in topo.node_ids().step_by(4) {
                if dest == initiator {
                    continue;
                }
                let attempt = fcp_route_in(&topo, &s, initiator, failed, dest, &mut FcpScratch::default());
                for l in &attempt.carried_failures {
                    prop_assert!(!s.is_link_usable(&topo, l));
                }
                if attempt.outcome == FcpOutcome::Delivered {
                    let optimal = shortest_path(&topo, &s, initiator, dest).unwrap().cost();
                    prop_assert!(attempt.cost_traversed >= optimal);
                    // Header grew once per recomputation beyond the first.
                    prop_assert!(attempt.carried_failures.len() >= attempt.sp_calculations);
                }
            }
        }
    }

    /// MRC configuration generation always yields valid configurations:
    /// each one's transit subgraph stays connected.
    #[test]
    fn mrc_configurations_always_valid(n in 8..40usize, seed in 0..200u64, k in 2..7usize) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let mrc = Mrc::build(&topo, k).unwrap();
        prop_assert!(validate(&topo, &mrc));
        prop_assert!(mrc.node_coverage() > 0.0);
    }

    /// MRC never uses an isolated element: any delivered backup path avoids
    /// the node it switched away from.
    #[test]
    fn mrc_backup_avoids_failed_next_hop(
        n in 10..35usize,
        seed in 0..200u64,
        link_pick in 0..10_000usize,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let mrc = Mrc::build(&topo, 5).unwrap();
        let failed_link = LinkId((link_pick % topo.link_count()) as u32);
        let (a, b) = topo.link(failed_link).endpoints();
        // Fail node b (the next hop as seen from a).
        let s = FailureScenario::from_parts(&topo, [b], []);
        for dest in topo.node_ids().step_by(3) {
            if dest == a || dest == b {
                continue;
            }
            let attempt = mrc_recover_in(&topo, &mrc, &s, a, failed_link, dest, &mut DijkstraScratch::new());
            if attempt.is_delivered() {
                let p = attempt.path.as_ref().unwrap();
                prop_assert!(!p.nodes().contains(&b), "backup path visits the dead node");
            }
        }
    }

    /// Under a single *node* failure of a protected node, any delivered
    /// backup path is loop-free and avoids the victim; delivery succeeds in
    /// the vast majority of cases. (Published MRC guarantees delivery for
    /// every case; our greedy construction — documented in DESIGN.md §4 —
    /// can strand an initiator whose links are all restricted in the chosen
    /// configuration, so the guarantee is asserted statistically below.)
    #[test]
    fn mrc_single_protected_node_failure_mostly_recovers(n in 10..30usize, seed in 0..150u64) {
        let m = (2 * n + 4).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let mrc = Mrc::build(&topo, 5).unwrap();
        let Some(victim) = topo.node_ids().find(|&v| mrc.node_configuration(v).is_some()) else {
            return Ok(());
        };
        let s = FailureScenario::from_parts(&topo, [victim], []);
        let mut cases = 0usize;
        let mut delivered = 0usize;
        for &(nbr, _) in topo.neighbors(victim).iter().take(2) {
            if s.is_node_failed(nbr) {
                continue;
            }
            let failed_link = topo.link_between(nbr, victim).unwrap();
            for dest in topo.node_ids() {
                if dest == nbr || dest == victim || !is_reachable(&topo, &s, nbr, dest) {
                    continue;
                }
                let attempt = mrc_recover_in(&topo, &mrc, &s, nbr, failed_link, dest, &mut DijkstraScratch::new());
                cases += 1;
                if attempt.is_delivered() {
                    delivered += 1;
                    let p = attempt.path.as_ref().unwrap();
                    prop_assert!(p.is_simple());
                    prop_assert!(!p.nodes().contains(&victim));
                }
            }
        }
        if cases >= 10 {
            prop_assert!(
                delivered as f64 / cases as f64 > 0.75,
                "MRC delivered only {}/{} under a single protected-node failure",
                delivered,
                cases
            );
        }
    }

    /// Cross-scheme law, driven through the [`RecoveryScheme`] trait, on
    /// 2-edge-connected grids (no bridge, so one dead link never
    /// partitions): RTR recovers every single-link failure at exactly the
    /// post-failure optimum (Theorem 2), FCP recovers every one at stretch
    /// >= 1, and the proactive schemes spend zero shortest-path
    /// calculations and never undercut the optimum when they deliver.
    #[test]
    fn single_link_cross_scheme_laws(
        rows in 3..6usize,
        cols in 3..6usize,
        link_pick in 0..10_000usize,
        dest_pick in 0..10_000usize,
    ) {
        let topo = generate::grid(rows, cols, 100.0);
        let failed = LinkId((link_pick % topo.link_count()) as u32);
        let (initiator, _) = topo.link(failed).endpoints();
        let dest = NodeId((dest_pick % topo.node_count()) as u32);
        if dest == initiator {
            return Ok(());
        }
        let s = FailureScenario::single_link(&topo, failed);
        let crosslinks = CrossLinkTable::new(&topo);
        let table = RoutingTable::compute(&topo, &FullView);
        let ctx = SchemeCtx {
            topo: &topo,
            crosslinks: &crosslinks,
            table: &table,
        };
        let mrc = Mrc::build(&topo, 5).unwrap();
        let emrc = Emrc::from_mrc(mrc.clone());
        let fep = Fep::build(&topo);
        let mut scratch = SchemeScratch::new();
        let optimal = shortest_path(&topo, &s, initiator, dest)
            .expect("grids are 2-edge-connected")
            .cost();

        let rtr = Rtr.route_in(ctx, &s, initiator, failed, dest, &mut scratch);
        prop_assert!(rtr.is_delivered(), "RTR must recover a single-link failure");
        prop_assert_eq!(rtr.cost_traversed, optimal, "Theorem 2: RTR recovery is optimal");

        let fcp = Fcp.route_in(ctx, &s, initiator, failed, dest, &mut scratch);
        prop_assert!(fcp.is_delivered(), "FCP delivers whenever the destination is reachable");
        prop_assert!(fcp.cost_traversed >= optimal);
        prop_assert!(fcp.sp_calculations >= 1);

        for scheme in [&mrc as &dyn RecoveryScheme, &emrc, &fep] {
            let attempt = scheme.route_in(ctx, &s, initiator, failed, dest, &mut scratch);
            prop_assert_eq!(
                attempt.sp_calculations, 0,
                "{} is proactive and must not compute at failure time", scheme.name()
            );
            if attempt.is_delivered() {
                prop_assert!(
                    attempt.cost_traversed >= optimal,
                    "{} beat the post-failure optimum", scheme.name()
                );
            }
        }
    }

    /// With exactly one failed link eMRC has nothing to re-switch on, so
    /// it degenerates to MRC behind the trait: identical outcome, cost,
    /// and hop count for every destination of either endpoint.
    #[test]
    fn emrc_degenerates_to_mrc_on_single_link_failures(
        n in 10..30usize,
        seed in 0..200u64,
        link_pick in 0..10_000usize,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let table = RoutingTable::compute(&topo, &FullView);
        let ctx = SchemeCtx {
            topo: &topo,
            crosslinks: &crosslinks,
            table: &table,
        };
        let mrc = Mrc::build(&topo, 5).unwrap();
        let emrc = Emrc::from_mrc(mrc.clone());
        let failed = LinkId((link_pick % topo.link_count()) as u32);
        let (initiator, _) = topo.link(failed).endpoints();
        let s = FailureScenario::single_link(&topo, failed);
        let mut scratch = SchemeScratch::new();
        for dest in topo.node_ids().step_by(3) {
            if dest == initiator {
                continue;
            }
            let m_at = mrc.route_in(ctx, &s, initiator, failed, dest, &mut scratch);
            let e_at = emrc.route_in(ctx, &s, initiator, failed, dest, &mut scratch);
            prop_assert_eq!(
                e_at.outcome, m_at.outcome,
                "single failure: eMRC must equal MRC ({} -> {})", initiator, dest
            );
            prop_assert_eq!(e_at.cost_traversed, m_at.cost_traversed);
            prop_assert_eq!(e_at.hops(), m_at.hops());
        }
    }
}
