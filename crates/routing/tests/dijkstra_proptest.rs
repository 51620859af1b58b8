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
use rtr_routing::{DijkstraScratch, IncrementalSpt, Kernels, QueueKernel, SptScratch};
use rtr_topology::{generate, FullView, LinkId, LinkMask, NodeId, Point, Topology, TopologyError};

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

    /// Tentpole equivalence pin: the Dial bucket queue produces exactly the
    /// binary heap's result on random small-integer-cost graphs — same
    /// distances, same parents, and the same settle (pop) order on ties —
    /// for full runs, early-exit target runs, and `IncrementalSpt` resets,
    /// under random failure subsets.
    #[test]
    fn bucket_queue_matches_heap_exactly(
        n in 2..28usize,
        extra in 0..50usize,
        seed in 0..10_000u64,
        max_cost in 1..8u32,
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

        let mut heap = DijkstraScratch::with_kernels(Kernels { queue: QueueKernel::Heap });
        let mut bucket = DijkstraScratch::with_kernels(Kernels { queue: QueueKernel::Bucket });
        prop_assert_eq!(heap.kernels().queue, QueueKernel::Heap);
        let (mut log_h, mut log_b) = (Vec::new(), Vec::new());
        let sources = [NodeId(0), NodeId(rng.gen_range(0..n as u32))];
        for src in sources {
            log_h.clear();
            log_b.clear();
            let h = heap.run_with_settle_log(&topo, &mask, src, &mut log_h).clone();
            let bk = bucket.run_with_settle_log(&topo, &mask, src, &mut log_b);
            for v in topo.node_ids() {
                prop_assert_eq!(h.distance(v), bk.distance(v), "distance at {}", v);
                prop_assert_eq!(h.parent(v), bk.parent(v), "parent at {}", v);
            }
            prop_assert_eq!(&log_h, &log_b, "settle order diverged from {}", src);

            // Early-exit runs settle the same target label either way.
            for t in topo.node_ids() {
                let hd = heap.run_to(&topo, &mask, src, t).path_to(t);
                let bd = bucket.run_to(&topo, &mask, src, t).path_to(t);
                prop_assert_eq!(hd, bd, "run_to {} -> {}", src, t);
            }
        }

        // IncrementalSpt reset (full rebuild through run_raw) agrees too.
        let spt_h = IncrementalSpt::with_view_in(
            &topo,
            &mask,
            NodeId(0),
            SptScratch::with_kernels(Kernels { queue: QueueKernel::Heap }),
        );
        let spt_b = IncrementalSpt::with_view_in(
            &topo,
            &mask,
            NodeId(0),
            SptScratch::with_kernels(Kernels { queue: QueueKernel::Bucket }),
        );
        for v in topo.node_ids() {
            prop_assert_eq!(spt_h.distance(v), spt_b.distance(v));
            prop_assert_eq!(spt_h.parent(v), spt_b.parent(v));
        }
    }
}
