//! Shared per-topology baseline artifacts.
//!
//! Every experiment over a topology needs the same immutable pre-failure
//! state: the all-pairs routing table, the crossing table for RTR's first
//! phase, and (new in this milestone) a per-source index of destinations
//! bucketed by first-hop link. A [`Baseline`] bundles all three, computed
//! once; the figN drivers share one `Arc<Baseline>` per Table II twin via
//! [`Baseline::for_profile`], so no binary recomputes
//! `RoutingTable::compute` for a topology it has already seen.
//!
//! The first-hop buckets turn the §IV test-case harvest from an O(n²)
//! next-hop probe per scenario into a walk over only the *failed* links'
//! buckets: a destination's default path from `u` starts over exactly one
//! incident link of `u`, so the destinations affected by a failure are
//! precisely the union of the unusable incident links' buckets.
//!
//! The comparator backends (MRC/eMRC configurations, FEP detours) are a
//! pure function of the topology too, but costly and not every consumer
//! needs them, so they are built lazily: [`Baseline::comparators`] builds
//! each backend on first request and hands out the same `Arc` after that.

use crate::schemes::build_comparators;
use rtr_baselines::{MrcError, RecoveryScheme, SchemeId, SchemeMask};
use rtr_routing::RoutingTable;
use rtr_topology::{isp, CrossLinkTable, FullView, NodeId, Topology};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A built comparator backend, or why its precomputation failed.
type Built = Result<Arc<dyn RecoveryScheme>, MrcError>;

/// Immutable per-topology baseline: topology, pre-failure routing table,
/// crossing table, and the first-hop destination index, plus the
/// comparator backends built on first request.
///
/// Cheap to share: experiments hold it behind an [`Arc`] and the parallel
/// executor's workers borrow it read-only.
#[derive(Debug)]
pub struct Baseline {
    topo: Topology,
    table: RoutingTable,
    crosslinks: CrossLinkTable,
    /// Bucket offsets: node `u`'s incident-link buckets occupy
    /// `buckets[slot_base[u] .. slot_base[u + 1]]`, one bucket per entry
    /// of `topo.neighbors(u)` in neighbor order.
    slot_base: Vec<usize>,
    /// `buckets[slot_base[u] + k]` = destinations whose default first hop
    /// from `u` is `topo.neighbors(u)[k]`'s link, ascending by id.
    buckets: Vec<Vec<NodeId>>,
    /// Comparator backends keyed by `(scheme, MRC configuration count)`,
    /// filled by [`comparators`](Self::comparators). Failed builds are
    /// kept too, so a topology MRC cannot cover never retries.
    comparators: Mutex<BTreeMap<(SchemeId, usize), Built>>,
}

impl Baseline {
    /// Computes the full baseline for `topo` (routing table, crossing
    /// table, first-hop buckets).
    pub fn new(topo: Topology) -> Self {
        Self::with_threads(topo, 1)
    }

    /// Like [`new`](Self::new), building the per-source artifacts on up to
    /// `threads` workers (resolve a request with
    /// [`par::resolve_threads`](crate::par::resolve_threads) first).
    ///
    /// Every per-source artifact (shortest-path tree, first-hop buckets)
    /// depends only on the immutable topology, so sources are split into
    /// contiguous ranges fanned out through [`crate::par::map_indexed`]
    /// and the per-range results concatenated in order — byte-identical to
    /// the serial build at any thread count. `threads <= 1` never spawns.
    pub fn with_threads(topo: Topology, threads: usize) -> Self {
        // 4 ranges per worker so one slow range (e.g. a hub-heavy id block)
        // load-balances instead of stalling the join.
        let ranges = crate::par::chunk_ranges(topo.node_count(), threads.max(1) * 4);
        let tree_chunks = crate::par::map_indexed(threads, &ranges, |_, r| {
            RoutingTable::compute_sources(&topo, &FullView, r.clone().map(|i| NodeId(i as u32)))
        });
        let table = RoutingTable::from_trees(tree_chunks.into_iter().flatten().collect());
        let crosslinks = CrossLinkTable::new(&topo);

        let mut slot_base = Vec::with_capacity(topo.node_count() + 1);
        let mut total = 0usize;
        for u in topo.node_ids() {
            slot_base.push(total);
            total += topo.neighbors(u).len();
        }
        slot_base.push(total);

        let bucket_chunks = crate::par::map_indexed(threads, &ranges, |_, r| {
            // Link-id → incident-slot scratch, filled and cleared per
            // source, replacing the O(degree) position() scan per
            // destination with an O(1) lookup.
            let mut slot_of: Vec<usize> = vec![usize::MAX; topo.link_count()];
            let mut out: Vec<Vec<NodeId>> = Vec::new();
            for ui in r.clone() {
                let u = NodeId(ui as u32);
                let nbrs = topo.neighbors(u);
                for (k, &(_, l)) in nbrs.iter().enumerate() {
                    if let Some(s) = slot_of.get_mut(l.index()) {
                        *s = k;
                    }
                }
                let start = out.len();
                out.extend(std::iter::repeat_with(Vec::new).take(nbrs.len()));
                // `t` ascends, so every bucket ends up sorted by
                // destination.
                for t in topo.node_ids() {
                    if t == u {
                        continue;
                    }
                    let Some((_, link)) = table.next_hop(u, t) else {
                        continue;
                    };
                    // The first hop from `u` is incident to `u`, so the
                    // scratch always holds a real slot here.
                    let k = slot_of.get(link.index()).copied().unwrap_or(usize::MAX);
                    if k == usize::MAX {
                        continue;
                    }
                    if let Some(bucket) = out.get_mut(start + k) {
                        bucket.push(t);
                    }
                }
                for &(_, l) in nbrs {
                    if let Some(s) = slot_of.get_mut(l.index()) {
                        *s = usize::MAX;
                    }
                }
            }
            out
        });
        let buckets: Vec<Vec<NodeId>> = bucket_chunks.into_iter().flatten().collect();
        debug_assert_eq!(buckets.len(), total);

        Baseline {
            topo,
            table,
            crosslinks,
            slot_base,
            buckets,
            comparators: Mutex::new(BTreeMap::new()),
        }
    }

    /// The topology this baseline was computed for.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Pre-failure routing tables (all sources).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Precomputed link-crossing table for RTR's first phase.
    pub fn crosslinks(&self) -> &CrossLinkTable {
        &self.crosslinks
    }

    /// The borrowed context every [`rtr_baselines::RecoveryScheme`] routes
    /// against: exactly this baseline's topology, crossing table, and
    /// pre-failure routing table.
    pub fn scheme_ctx(&self) -> rtr_baselines::SchemeCtx<'_> {
        rtr_baselines::SchemeCtx {
            topo: &self.topo,
            crosslinks: &self.crosslinks,
            table: &self.table,
        }
    }

    /// Destinations whose default first hop from `u` is `u`'s `slot`-th
    /// incident link (`topo.neighbors(u)[slot]`), ascending by id. Empty
    /// for out-of-range arguments.
    pub fn dests_via(&self, u: NodeId, slot: usize) -> &[NodeId] {
        self.slot_base
            .get(u.index())
            .and_then(|base| self.buckets.get(base + slot))
            .map_or(&[], Vec::as_slice)
    }

    /// The comparator backends selected by `mask` with `k` MRC
    /// configurations, in [`SchemeId`] order (RTR is excluded — it runs
    /// natively). Each backend is built by [`build_comparators`] on its
    /// first request and shared after that; one `Mrc::build` serves both
    /// MRC and eMRC. The lock is held across a build, so concurrent first
    /// callers build once.
    ///
    /// # Errors
    ///
    /// The [`MrcError`] of `Mrc::build` when the mask holds MRC or eMRC
    /// and the topology cannot be covered. The error is memoized too.
    pub fn comparators(
        &self,
        mask: SchemeMask,
        k: usize,
    ) -> Result<Vec<Arc<dyn RecoveryScheme>>, MrcError> {
        let mut memo = self.memo();
        mask.without(SchemeId::Rtr)
            .iter()
            .map(|id| self.comparator_in(&mut memo, id, k))
            .collect()
    }

    /// The single backend of [`comparators`](Self::comparators) for `id`,
    /// or `Ok(None)` for RTR.
    ///
    /// # Errors
    ///
    /// As for [`comparators`](Self::comparators).
    pub fn comparator(
        &self,
        id: SchemeId,
        k: usize,
    ) -> Result<Option<Arc<dyn RecoveryScheme>>, MrcError> {
        if id == SchemeId::Rtr {
            return Ok(None);
        }
        self.comparator_in(&mut self.memo(), id, k).map(Some)
    }

    fn memo(&self) -> MutexGuard<'_, BTreeMap<(SchemeId, usize), Built>> {
        self.comparators
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `(id, k)` up in the locked memo, building it on a miss. `id`
    /// is never RTR.
    fn comparator_in(
        &self,
        memo: &mut BTreeMap<(SchemeId, usize), Built>,
        id: SchemeId,
        k: usize,
    ) -> Built {
        if !memo.contains_key(&(id, k)) {
            // MRC and eMRC share one configuration build.
            let family = match id {
                SchemeId::Mrc | SchemeId::Emrc => {
                    SchemeMask::none().with(SchemeId::Mrc).with(SchemeId::Emrc)
                }
                _ => SchemeMask::none().with(id),
            };
            match build_comparators(&self.topo, family, k) {
                Ok(backends) => {
                    memo.extend(
                        backends
                            .into_iter()
                            .map(|b| ((b.id(), k), Ok(Arc::from(b)))),
                    );
                }
                Err(e) => memo.extend(family.iter().map(|m| ((m, k), Err(e.clone())))),
            }
        }
        memo[&(id, k)].clone()
    }

    /// The shared baseline of a Table II twin, computed on first request
    /// and cached per process.
    ///
    /// Safe to cache: [`isp::IspProfile::synthesize`] is deterministic, so
    /// every caller would compute the identical artifact.
    pub fn for_profile(profile: &isp::IspProfile) -> Arc<Baseline> {
        static CACHE: OnceLock<Mutex<HashMap<u32, Arc<Baseline>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(profile.asn)
                .or_insert_with(|| Arc::new(Baseline::new(profile.synthesize()))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::generate;

    #[test]
    fn buckets_partition_reachable_destinations() {
        let topo = generate::isp_like(30, 70, 2000.0, 8).unwrap();
        let base = Baseline::new(topo);
        let topo = base.topo();
        for u in topo.node_ids() {
            let mut seen = Vec::new();
            for (k, &(_, link)) in topo.neighbors(u).iter().enumerate() {
                let mut prev = None;
                for &t in base.dests_via(u, k) {
                    // Bucket membership means the table's first hop is
                    // exactly this incident link.
                    assert_eq!(base.table().next_hop(u, t).map(|(_, l)| l), Some(link));
                    assert!(prev < Some(t), "bucket sorted ascending");
                    prev = Some(t);
                    seen.push(t);
                }
            }
            // Every reachable destination appears in exactly one bucket.
            seen.sort_unstable();
            let expected: Vec<NodeId> = topo
                .node_ids()
                .filter(|&t| t != u && base.table().next_hop(u, t).is_some())
                .collect();
            assert_eq!(seen, expected);
        }
    }

    #[test]
    fn for_profile_returns_the_same_arc() {
        let p = isp::profile("AS209").unwrap();
        let a = Baseline::for_profile(&p);
        let b = Baseline::for_profile(&p);
        assert!(Arc::ptr_eq(&a, &b), "second lookup hits the cache");
        assert_eq!(a.topo().node_count(), p.nodes);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let topo = generate::isp_like(40, 90, 2000.0, 12).unwrap();
        let serial = Baseline::new(topo.clone());
        for threads in [2, 3, 8] {
            let par = Baseline::with_threads(topo.clone(), threads);
            assert_eq!(par.crosslinks(), serial.crosslinks());
            for u in topo.node_ids() {
                for t in topo.node_ids() {
                    assert_eq!(par.table().next_hop(u, t), serial.table().next_hop(u, t));
                    assert_eq!(par.table().distance(u, t), serial.table().distance(u, t));
                }
                for k in 0..topo.neighbors(u).len() {
                    assert_eq!(par.dests_via(u, k), serial.dests_via(u, k));
                }
            }
        }
    }

    #[test]
    fn dests_via_is_total_over_out_of_range() {
        let topo = generate::path(3, 10.0).unwrap();
        let base = Baseline::new(topo);
        assert!(base.dests_via(NodeId(0), 99).is_empty());
        assert!(base.dests_via(NodeId(99), 0).is_empty());
    }

    fn split_topology() -> Topology {
        let mut b = Topology::builder();
        b.add_node(rtr_topology::Point::new(0.0, 0.0));
        b.add_node(rtr_topology::Point::new(1.0, 0.0));
        b.build().unwrap()
    }

    fn ids(backends: &[Arc<dyn RecoveryScheme>]) -> Vec<SchemeId> {
        backends.iter().map(|b| b.id()).collect()
    }

    #[test]
    fn comparators_are_built_once_per_k() {
        let base = Baseline::new(generate::isp_like(25, 60, 2000.0, 7).unwrap());
        let first = base.comparators(SchemeMask::ALL, 5).unwrap();
        assert_eq!(
            ids(&first),
            vec![SchemeId::Fcp, SchemeId::Mrc, SchemeId::Emrc, SchemeId::Fep]
        );
        let again = base.comparators(SchemeMask::ALL, 5).unwrap();
        for (a, b) in first.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b), "{} rebuilt", a.name());
        }
        // A narrower mask and the single accessor hand out the same Arcs.
        let fep = SchemeMask::none().with(SchemeId::Fep);
        assert!(Arc::ptr_eq(
            &base.comparators(fep, 5).unwrap()[0],
            &first[3]
        ));
        let mrc = base.comparator(SchemeId::Mrc, 5).unwrap().unwrap();
        assert!(Arc::ptr_eq(&mrc, &first[1]));
        assert!(base.comparator(SchemeId::Rtr, 5).unwrap().is_none());
        // Another configuration count is its own entry.
        let k4 = base.comparator(SchemeId::Mrc, 4).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&k4, &first[1]));
        let k4_again = base.comparator(SchemeId::Mrc, 4).unwrap().unwrap();
        assert!(Arc::ptr_eq(&k4, &k4_again));
    }

    #[test]
    fn comparators_match_the_uncached_builder() {
        let topo = generate::isp_like(25, 60, 2000.0, 7).unwrap();
        let base = Baseline::new(topo.clone());
        for mask in [
            SchemeMask::ALL,
            SchemeMask::none().with(SchemeId::Emrc),
            SchemeMask::none().with(SchemeId::Rtr).with(SchemeId::Fcp),
        ] {
            let cached = base.comparators(mask, 5).unwrap();
            let fresh = build_comparators(&topo, mask, 5).unwrap();
            let cached: Vec<String> = cached.iter().map(|b| format!("{b:?}")).collect();
            let fresh: Vec<String> = fresh.iter().map(|b| format!("{b:?}")).collect();
            assert_eq!(cached, fresh);
        }
    }

    #[test]
    fn failed_mrc_build_is_memoized() {
        let base = Baseline::new(split_topology());
        for _ in 0..2 {
            assert_eq!(
                base.comparators(SchemeMask::ALL, 5).unwrap_err(),
                MrcError::Disconnected
            );
            assert_eq!(
                base.comparator(SchemeId::Emrc, 5).unwrap_err(),
                MrcError::Disconnected
            );
        }
        // Schemes that need no MRC configurations still build.
        let fcp = base.comparator(SchemeId::Fcp, 5).unwrap().unwrap();
        assert_eq!(fcp.id(), SchemeId::Fcp);
    }

    #[test]
    fn concurrent_first_callers_share_one_build() {
        let base = Arc::new(Baseline::new(
            generate::isp_like(25, 60, 2000.0, 7).unwrap(),
        ));
        let got = crate::par::map_indexed(4, &[(); 4], |_, ()| {
            base.comparators(SchemeMask::ALL, 5).unwrap()
        });
        for worker in &got[1..] {
            assert_eq!(worker.len(), got[0].len());
            for (a, b) in worker.iter().zip(&got[0]) {
                assert!(Arc::ptr_eq(a, b), "{} built twice", a.name());
            }
        }
    }
}
