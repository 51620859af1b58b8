//! Panic-freedom property for `dijkstra` (see DESIGN.md, "Static analysis
//! & lint policy"): on arbitrary connected graphs with arbitrary failed-link
//! subsets, the shortest-path machinery must never panic — not on the
//! computation itself, not on queries for unreachable destinations, and not
//! on queries for node ids that do not belong to the topology at all. This
//! exercises the fallible `get()`-based lookups introduced by the
//! de-`unwrap` pass.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_routing::dijkstra::dijkstra;
use rtr_routing::{DijkstraScratch, IncrementalSpt, SptScratch};
use rtr_topology::{
    generate, FullView, GraphView, LinkId, LinkMask, NodeId, Point, Topology, TopologyError,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance and parent labels, indexed by node.
type Labels = (Vec<Option<u64>>, Vec<Option<(NodeId, LinkId)>>);

/// The oracle for the production bucket queue: a textbook binary-heap
/// Dijkstra popping in ascending `(dist, node)` order, breaking equal-cost
/// ties toward the smaller `(parent, link)` pair.
fn heap_dijkstra(topo: &Topology, view: &impl GraphView, source: NodeId) -> Labels {
    let n = topo.node_count();
    let (mut dist, mut parent) = (vec![None; n], vec![None; n]);
    if !view.is_node_live(source) {
        return (dist, parent);
    }
    let label = |dist: &[Option<u64>], v: NodeId| dist.get(v.index()).copied().flatten();
    if let Some(d0) = dist.get_mut(source.index()) {
        *d0 = Some(0);
    }
    let mut heap = BinaryHeap::from([Reverse((0u64, source.0))]);
    while let Some(Reverse((d, u))) = heap.pop() {
        let u = NodeId(u);
        if label(&dist, u) != Some(d) {
            continue;
        }
        for &(v, l) in topo
            .neighbors(u)
            .iter()
            .filter(|(_, l)| view.is_link_usable(topo, *l))
        {
            let nd = d + u64::from(topo.cost_from(l, u));
            let tight = parent.get(v.index()).copied().flatten();
            let better = label(&dist, v)
                .is_none_or(|old| nd < old || (nd == old && tight.is_none_or(|p| (u, l) < p)));
            if let (true, Some(dv), Some(pv)) =
                (better, dist.get_mut(v.index()), parent.get_mut(v.index()))
            {
                *dv = Some(nd);
                *pv = Some((u, l));
                heap.push(Reverse((nd, v.0)));
            }
        }
    }
    (dist, parent)
}

/// A connected random graph with small random per-direction integer costs
/// in `1..=max_cost` — the cost regime Dial's bucket queue is built for
/// (and, at `max_cost == 1`, the maximal-tie regime of hop-count routing).
fn small_cost_graph(
    n: usize,
    extra: usize,
    max_cost: u32,
    rng: &mut StdRng,
) -> Result<Topology, TopologyError> {
    let mut b = Topology::builder();
    for i in 0..n {
        b.add_node(Point::new(i as f64, (i * 37 % 101) as f64));
    }
    let cost = |rng: &mut StdRng| rng.gen_range(1..=max_cost);
    // Random spanning chain keeps the graph connected.
    for i in 1..n {
        let prev = rng.gen_range(0..i) as u32;
        let (ca, cb) = (cost(rng), cost(rng));
        b.add_link_asymmetric(NodeId(i as u32), NodeId(prev), ca, cb)?;
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..n as u32);
        let c = rng.gen_range(0..n as u32);
        if a == c || b.has_link(NodeId(a), NodeId(c)) {
            continue;
        }
        let (ca, cb) = (cost(rng), cost(rng));
        b.add_link_asymmetric(NodeId(a), NodeId(c), ca, cb)?;
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dijkstra and every query on its result are total functions for any
    /// connected graph and any failed-link subset.
    #[test]
    fn dijkstra_never_panics_under_random_failures(
        n in 2..40usize,
        extra in 0..60usize,
        seed in 0..10_000u64,
        kill in 0.0..1.0f64,
    ) {
        let max = n * (n - 1) / 2;
        let m = (n - 1 + extra).min(max);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();

        // Remove an arbitrary subset of links (possibly all of them, which
        // isolates the source — exactly the regime that must stay total).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1f7);
        let removed: Vec<LinkId> = topo
            .link_ids()
            .filter(|_| rng.gen_range(0.0..1.0) < kill)
            .collect();
        let mask = LinkMask::from_links(&topo, removed.iter().copied());

        let src = NodeId(rng.gen_range(0..n as u32));
        let sp = dijkstra(&topo, &mask, src);

        // The source is always reachable from itself at distance zero, even
        // when every incident link failed.
        prop_assert_eq!(sp.distance(src), Some(0));

        for v in topo.node_ids() {
            // Queries must agree with each other and never abort.
            let d = sp.distance(v);
            let p = sp.path_to(v);
            prop_assert_eq!(d.is_some(), p.is_some());
            if let Some(path) = p {
                prop_assert_eq!(path.dest(), v);
                prop_assert_eq!(path.source(), src);
                // No failed link may appear on a returned path.
                for &l in path.links() {
                    prop_assert!(!removed.contains(&l), "path uses removed link");
                }
            }
            let _ = sp.first_hop(v);
            let _ = sp.parent(v);
            let _ = sp.is_reachable(v);
        }

        // Out-of-range ids (from a different or larger topology) are
        // answered with `None`/`false`, not a panic.
        for bogus in [NodeId(n as u32), NodeId(n as u32 + 7), NodeId(u32::MAX)] {
            prop_assert_eq!(sp.distance(bogus), None);
            prop_assert!(sp.path_to(bogus).is_none());
            prop_assert!(sp.first_hop(bogus).is_none());
            prop_assert!(!sp.is_reachable(bogus));
        }

        // A fully-failed view still yields a well-formed (trivial) tree.
        let all_failed = LinkMask::from_links(&topo, topo.link_ids());
        let lonely = dijkstra(&topo, &all_failed, src);
        prop_assert_eq!(lonely.reachable_count(), 1);
    }

    /// A reused `DijkstraScratch` — dirtied by runs over other sources,
    /// other views, and even other topologies — always produces exactly
    /// the tree a fresh `dijkstra` call does. This is the contract the
    /// zero-allocation evaluation hot loop rests on.
    #[test]
    fn dijkstra_scratch_reuse_equals_fresh(
        n in 2..30usize,
        extra in 0..40usize,
        seed in 0..10_000u64,
        kill in 0.0..0.8f64,
        sources in proptest::collection::vec(0..30u32, 1..6),
    ) {
        let max = n * (n - 1) / 2;
        let m = (n - 1 + extra).min(max);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5c4a);
        let removed: Vec<LinkId> = topo
            .link_ids()
            .filter(|_| rng.gen_range(0.0..1.0) < kill)
            .collect();
        let mask = LinkMask::from_links(&topo, removed.iter().copied());

        // Dirty the scratch on a different topology first, then alternate
        // views and sources on the real one.
        let mut scratch = DijkstraScratch::new();
        let other = generate::isp_like(12, 20, 2000.0, seed ^ 9).unwrap();
        let _ = scratch.run(&other, &FullView, NodeId(3));

        for s in sources {
            let src = NodeId(s % n as u32);
            for view_full in [true, false] {
                let reused = if view_full {
                    scratch.run(&topo, &FullView, src).clone()
                } else {
                    scratch.run(&topo, &mask, src).clone()
                };
                let fresh = if view_full {
                    dijkstra(&topo, &FullView, src)
                } else {
                    dijkstra(&topo, &mask, src)
                };
                for v in topo.node_ids() {
                    prop_assert_eq!(reused.distance(v), fresh.distance(v));
                    prop_assert_eq!(reused.parent(v), fresh.parent(v));
                }
            }
        }
    }

    /// The Dial bucket queue produces exactly the binary-heap oracle's
    /// labels on random small-integer-cost graphs — same distances, same
    /// parents — for full runs, early-exit target runs and fresh
    /// `IncrementalSpt` builds, under random failure subsets. Costs reach
    /// 20, so the circular buckets wrap many times per run.
    #[test]
    fn bucket_queue_matches_heap_oracle(
        n in 2..28usize,
        extra in 0..50usize,
        seed in 0..10_000u64,
        max_cost in 1..=20u32,
        kill in 0.0..0.6f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb0c4);
        let topo = small_cost_graph(n, extra, max_cost, &mut rng)
            .expect("fresh links, finite coordinates, small graph");
        let removed: Vec<LinkId> = topo
            .link_ids()
            .filter(|_| rng.gen_range(0.0..1.0) < kill)
            .collect();
        let mask = LinkMask::from_links(&topo, removed.iter().copied());

        let mut scratch = DijkstraScratch::new();
        let mut spt_scratch = SptScratch::default();
        let sources = [NodeId(0), NodeId(rng.gen_range(0..n as u32))];
        for src in sources {
            let (dist, parent) = heap_dijkstra(&topo, &mask, src);
            let oracle = |v: NodeId| {
                (dist.get(v.index()).copied().flatten(), parent.get(v.index()).copied().flatten())
            };

            let sp = scratch.run(&topo, &mask, src).clone();
            let spt = IncrementalSpt::with_view_in(&topo, &mask, src, spt_scratch);
            for v in topo.node_ids() {
                prop_assert_eq!((sp.distance(v), sp.parent(v)), oracle(v), "run at {}", v);
                prop_assert_eq!((spt.distance(v), spt.parent(v)), oracle(v), "spt at {}", v);
            }
            spt_scratch = spt.into_scratch();

            // Early-exit runs settle the target's label and path exactly.
            for t in topo.node_ids() {
                let early = scratch.run_to(&topo, &mask, src, t);
                prop_assert_eq!((early.distance(t), early.parent(t)), oracle(t), "run_to {} -> {}", src, t);
                prop_assert_eq!(early.path_to(t), sp.path_to(t), "run_to path {} -> {}", src, t);
            }
        }
    }
}
