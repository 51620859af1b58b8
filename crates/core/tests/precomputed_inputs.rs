//! Oracles for the two inputs a recovery session reads from state fixed at
//! build time instead of recomputing them per request:
//!
//! * the phase-1 sweep ranks candidates by the per-neighbor directions
//!   cached in [`Topology::neighbor_angles`] — checked against a
//!   test-local selection that calls [`ccw_angle`] on the positions, as
//!   the sweep did before the cache;
//! * the phase-2 tree starts from the initiator's converged routing tree
//!   ([`IncrementalSpt::seeded_in`], [`RecoveryComputer::new_seeded_in`])
//!   — checked against a fresh intact build on random masks over every
//!   generator, including seeds rooted at the wrong node or sized for
//!   another topology, which must fall back and still match.

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_core::sweep::{select_next_hop, SweepContext};
use rtr_core::{RecoveryComputer, RecoveryScratch};
use rtr_routing::{IncrementalSpt, RoutingTable, SptScratch};
use rtr_sim::{CollectionHeader, LinkIdSet};
use rtr_topology::geometry::{ccw_angle, ccw_turn};
use rtr_topology::{
    generate, CrossLinkTable, FailureScenario, FullView, GenerateError, GraphView, LinkId, NodeId,
    Point, Topology, TopologyError,
};

/// The sweep as it was before the angle cache: `ccw_angle` of the two
/// position differences, ties broken by node id.
fn ccw_angle_next_hop(
    topo: &Topology,
    view: &impl GraphView,
    at: NodeId,
    reference: NodeId,
    ctx: &SweepContext<'_>,
) -> Option<(NodeId, LinkId)> {
    let origin = topo.position(at);
    let r = topo.position(reference);
    let ref_dir = (r.x - origin.x, r.y - origin.y);
    let mut best: Option<(f64, NodeId, LinkId)> = None;
    for &(nbr, link) in topo.neighbors(at) {
        if !view.is_link_usable(topo, link) || ctx.is_excluded(link) {
            continue;
        }
        let p = topo.position(nbr);
        let angle = ccw_angle(ref_dir, (p.x - origin.x, p.y - origin.y));
        if best.is_none_or(|(a, n, _)| (angle, nbr) < (a, n)) {
            best = Some((angle, nbr, link));
        }
    }
    best.map(|(_, nbr, link)| (nbr, link))
}

/// A hub at the origin whose neighbors sit on the integer lattice
/// `[-3, 3]²`: with `k` of its 48 points drawn, the hub sees collinear
/// neighbors at different distances, repeated directions and exactly
/// opposite directions. Rim nodes also link to a few random others so
/// non-hub sweeps see the same degeneracies.
fn lattice_star(k: usize, rim_links: usize, seed: u64) -> Result<Topology, TopologyError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points: Vec<(i32, i32)> = (-3..=3)
        .flat_map(|x| (-3..=3).map(move |y| (x, y)))
        .filter(|&p| p != (0, 0))
        .collect();
    let mut b = Topology::builder();
    let hub = b.add_node(Point::new(0.0, 0.0));
    let mut rim = Vec::new();
    for _ in 0..k.min(points.len()) {
        let (x, y) = points.swap_remove(rng.gen_range(0..points.len()));
        let v = b.add_node(Point::new(f64::from(x), f64::from(y)));
        b.add_link(hub, v, 1)?;
        rim.push(v);
    }
    for _ in 0..rim_links {
        let a = rim.get(rng.gen_range(0..rim.len())).copied();
        let c = rim.get(rng.gen_range(0..rim.len())).copied();
        if let (Some(a), Some(c)) = (a, c) {
            // Self-loops and duplicates are rejected by the builder; skip them.
            let _ = b.add_link(a, c, 1);
        }
    }
    b.build()
}

/// Fails each link and each node with the given per-mille odds.
fn random_view(
    topo: &Topology,
    rng: &mut StdRng,
    link_odds: u32,
    node_odds: u32,
) -> FailureScenario {
    let nodes: Vec<NodeId> = topo
        .node_ids()
        .filter(|_| rng.gen_range(0..1000u32) < node_odds)
        .collect();
    let links: Vec<LinkId> = topo
        .link_ids()
        .filter(|_| rng.gen_range(0..1000u32) < link_odds)
        .collect();
    FailureScenario::from_parts(topo, nodes, links)
}

/// Checks the cached-angle sweep against the `ccw_angle` sweep at every
/// `(node, reference neighbor)` pair of `topo`, under a random failure
/// view and a random excluded set, plus the cached angles themselves.
fn check_sweep(topo: &Topology, rng: &mut StdRng) -> Result<(), TestCaseError> {
    let crosslinks = CrossLinkTable::new(topo);
    let view = random_view(topo, rng, 250, 100);
    let mut excluded = LinkIdSet::new();
    for l in topo.link_ids() {
        if rng.gen_range(0..8) == 0 {
            excluded.insert(l);
        }
    }
    let none = LinkIdSet::new();
    for at in topo.node_ids() {
        let p = topo.position(at);
        let angles = topo.neighbor_angles(at);
        prop_assert_eq!(angles.len(), topo.degree(at));
        for (&(nbr, _), &abs) in topo.neighbors(at).iter().zip(angles) {
            let q = topo.position(nbr);
            prop_assert_eq!(abs.to_bits(), (q.y - p.y).atan2(q.x - p.x).to_bits());
        }
        for &(reference, _) in topo.neighbors(at) {
            let r = topo.position(reference);
            let ref_dir = (r.x - p.x, r.y - p.y);
            // The reference itself sits at exactly 2π.
            let ref_abs = ref_dir.1.atan2(ref_dir.0);
            prop_assert_eq!(ccw_turn(ref_abs, ref_abs), std::f64::consts::TAU);
            for (&(nbr, _), &abs) in topo.neighbors(at).iter().zip(angles) {
                let q = topo.position(nbr);
                let dir = (q.x - p.x, q.y - p.y);
                prop_assert_eq!(
                    ccw_turn(ref_abs, abs).to_bits(),
                    ccw_angle(ref_dir, dir).to_bits()
                );
            }
            for set in [&none, &excluded] {
                let ctx = SweepContext::new(&crosslinks, set);
                for v in [&view as &dyn GraphView, &FullView] {
                    prop_assert_eq!(
                        select_next_hop(topo, &v, at, reference, &ctx),
                        ccw_angle_next_hop(topo, &v, at, reference, &ctx),
                        "sweep at {} from {}",
                        at,
                        reference
                    );
                }
            }
        }
    }
    Ok(())
}

/// One topology per generator the repository has, picked by `which`.
fn generated(which: usize, n: usize, seed: u64) -> Result<Topology, GenerateError> {
    let m = (2 * n).min(n * (n - 1) / 2);
    match which % 9 {
        0 => generate::isp_like(n, m, 2000.0, seed),
        1 => generate::waxman(n, m, 2000.0, 0.15, 0.6, seed),
        2 => generate::barabasi_albert(n, 2, 2000.0, seed),
        3 => generate::hierarchical_isp(n / 6 + 1, 4, 2000.0, seed),
        4 => generate::gabriel(n, 2000.0, seed),
        5 => Ok(generate::grid(n / 5 + 1, 5, 100.0)),
        6 => generate::random_tree(n, 2000.0, seed),
        7 => generate::ring(n, 500.0),
        // Non-unit costs widen the bucket queue's window.
        _ => generate::isp_like(n, m, 2000.0, seed)
            .map(|t| generate::with_random_costs(&t, 1, 9, seed)),
    }
}

/// Asserts that `got` carries exactly the labels, removal state and work
/// count of `want`.
fn same_tree(
    topo: &Topology,
    got: &IncrementalSpt<'_>,
    want: &IncrementalSpt<'_>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.source(), want.source());
    prop_assert_eq!(got.nodes_touched(), want.nodes_touched());
    for n in topo.node_ids() {
        prop_assert_eq!(got.distance(n), want.distance(n), "distance of {}", n);
        prop_assert_eq!(got.parent(n), want.parent(n), "parent of {}", n);
    }
    for l in topo.link_ids() {
        prop_assert_eq!(got.is_removed(l), want.is_removed(l), "removal of {}", l);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cached-angle sweep selects exactly what the `ccw_angle` sweep
    /// selects, on random `isp_like` and Waxman graphs.
    #[test]
    fn cached_angle_sweep_matches_ccw_angle_on_random_graphs(
        n in 8..40usize,
        extra in 0..60usize,
        waxman in 0..2usize,
        seed in 0..10_000u64,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let topo = if waxman == 1 {
            generate::waxman(n, m, 2000.0, 0.15, 0.6, seed).unwrap()
        } else {
            generate::isp_like(n, m, 2000.0, seed).unwrap()
        };
        check_sweep(&topo, &mut StdRng::seed_from_u64(seed ^ 0x5eed))?;
    }

    /// The same on lattice stars: collinear neighbors, duplicate and
    /// exactly opposite directions, and the reference at 2π.
    #[test]
    fn cached_angle_sweep_matches_ccw_angle_on_degenerate_directions(
        k in 2..48usize,
        rim_links in 0..30usize,
        seed in 0..10_000u64,
    ) {
        let topo = lattice_star(k, rim_links, seed).unwrap();
        check_sweep(&topo, &mut StdRng::seed_from_u64(seed ^ 0xa11))?;
    }

    /// A tree seeded from the converged routing table, after the same
    /// removal, equals the fresh intact build after it — distances,
    /// parents, removal state and `nodes_touched` — and a seeded
    /// `RecoveryComputer` serves every destination the same path. A seed
    /// rooted at another node (`seed_kind` 1) or taken from a
    /// different-sized topology (`seed_kind` 2) falls back and still
    /// matches. Scratches are reused across topologies and initiators so
    /// stale buffers would show.
    #[test]
    fn seeded_phase2_matches_a_fresh_build(
        which in 0..9usize,
        n in 6..40usize,
        seed in 0..10_000u64,
        link_odds in 0..400u32,
        seed_kind in 0..3usize,
    ) {
        let topo = generated(which, n, seed).unwrap();
        let table = RoutingTable::compute(&topo, &FullView);
        let foreign = generate::grid(2, topo.node_count() / 2 + 2, 10.0);
        let foreign_table = RoutingTable::compute(&foreign, &FullView);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
        let local = random_view(&topo, &mut rng, link_odds, 50);

        let (mut fresh_spt, mut seeded_spt) = (SptScratch::default(), SptScratch::default());
        let (mut fresh_rc, mut seeded_rc) =
            (RecoveryScratch::default(), RecoveryScratch::default());
        let initiators: Vec<NodeId> =
            topo.node_ids().filter(|_| rng.gen_range(0..3) == 0).collect();
        for initiator in initiators {
            let seed_tree = match seed_kind {
                0 => table.tree(initiator),
                1 => table.tree(NodeId((initiator.0 + 1) % topo.node_count() as u32)),
                _ => foreign_table.tree(NodeId(0)),
            };
            let mut header = CollectionHeader::new(initiator);
            for l in topo.link_ids() {
                if !local.is_link_usable(&topo, l) && rng.gen_range(0..2) == 0 {
                    header.record_failed_link(l);
                }
            }
            let removal: Vec<LinkId> = header.failed_links().iter().collect();

            let mut fresh = IncrementalSpt::with_view_in(
                &topo, &FullView, initiator, std::mem::take(&mut fresh_spt));
            let mut seeded = IncrementalSpt::seeded_in(
                &topo, initiator, seed_tree, std::mem::take(&mut seeded_spt));
            same_tree(&topo, &seeded, &fresh)?;
            fresh.remove_links(removal.iter().copied());
            seeded.remove_links(removal.iter().copied());
            same_tree(&topo, &seeded, &fresh)?;
            fresh_spt = fresh.into_scratch();
            seeded_spt = seeded.into_scratch();

            let mut fresh = RecoveryComputer::new_in(
                &topo, &local, initiator, &header, &mut fresh_rc);
            let mut seeded = RecoveryComputer::new_seeded_in(
                &topo, seed_tree, &local, initiator, &header, &mut seeded_rc);
            prop_assert_eq!(seeded.nodes_touched(), fresh.nodes_touched());
            prop_assert_eq!(seeded.sp_calculations(), fresh.sp_calculations());
            prop_assert_eq!(seeded.removed_links(), fresh.removed_links());
            for dest in topo.node_ids() {
                prop_assert_eq!(seeded.recovery_path(dest), fresh.recovery_path(dest));
            }
            fresh.recycle(&mut fresh_rc);
            seeded.recycle(&mut seeded_rc);
        }
    }
}
