//! Dynamic failure timelines: churn-driven evaluation with incrementally
//! maintained baselines.
//!
//! The paper's experiments (§IV) evaluate one static snapshot per
//! scenario: an area fails, every router's converged pre-failure state is
//! the intact topology, recovery runs once. Real failures arrive as a
//! *timeline* — a moving damage front or background churn — and the
//! converged state routers recover *from* is itself a moving target that
//! IGP convergence drags behind the ground truth.
//!
//! This module models that gap:
//!
//! - [`DynamicBaseline`] holds the believed converged state — per-source
//!   shortest-path trees plus the first-hop destination buckets the
//!   harvest uses — and folds [`TimelineEvent`]s into it **incrementally**:
//!   each per-source tree is patched in place with the Narvaez-style
//!   remove/restore repairs of
//!   [`IncrementalSpt`](rtr_routing::IncrementalSpt), and only the sources
//!   whose tree actually changed get their buckets rebuilt. A from-scratch
//!   [`rebuilt`](DynamicBaseline::rebuilt) oracle plus
//!   [`divergence`](DynamicBaseline::divergence) proves the patched state
//!   byte-identical to a full rebuild (the canonical-tree invariant,
//!   DESIGN.md §14).
//! - [`run_timeline`] drives recovery across the events: at each event the
//!   ground truth advances immediately while the believed baseline lags
//!   [`ChurnConfig::staleness`] events behind; affected destinations are
//!   harvested from the *believed* buckets, phase 1 sweeps the truth, and
//!   phase 2 recomputes over the stale believed view (the
//!   `start_based_session` path).
//!
//! # Examples
//!
//! ```
//! use rtr_eval::baseline::Baseline;
//! use rtr_eval::churn::{run_timeline, ChurnConfig, DynamicBaseline};
//! use rtr_topology::{generate, Timeline};
//! use std::sync::Arc;
//!
//! let topo = generate::grid(4, 4, 100.0);
//! let timeline = Timeline::random_churn(&topo, 4, 50, 2, 0.5, 7);
//! let base = Arc::new(Baseline::new(topo));
//!
//! // Incrementally patched state stays byte-identical to a full rebuild.
//! let mut dynbase = DynamicBaseline::new(Arc::clone(&base));
//! for ev in timeline.events() {
//!     dynbase.apply_event(ev);
//!     assert_eq!(dynbase.divergence(&dynbase.rebuilt()), None);
//! }
//!
//! // Per-event recovery quality with the baseline one event stale.
//! let report = run_timeline(&base, &timeline, "grid4x4", &ChurnConfig::default());
//! assert_eq!(report.events.len(), timeline.len());
//! ```

use crate::baseline::Baseline;
use crate::json::{Json, ToJson};
use crate::par;
use core::fmt;
use rtr_core::{DeliveryOutcome, SessionPool, SweepKernel};
use rtr_obs::{Event, NoopSink, TraceSink};
use rtr_routing::{IncrementalSpt, Kernels, SptScratch};
use rtr_topology::{LinkId, LinkMask, NodeId, Timeline, TimelineEvent, Topology};
use std::sync::Arc;

/// Work accounting for one [`DynamicBaseline::apply_event`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Links the event actually took down (no-op downs filtered).
    pub down: usize,
    /// Links the event actually restored (no-op repairs filtered).
    pub up: usize,
    /// Sources whose tree changed and whose buckets were rebuilt.
    pub sources_touched: usize,
    /// Tree labels re-examined across all patched sources — the work
    /// metric `BENCH_churn.json` compares against a full rebuild.
    pub labels_touched: usize,
}

/// First-hop memo entry: `None` = not computed yet, `Some(h)` = computed
/// (`h == None` means unreachable from the source).
type HopMemo = Option<Option<LinkId>>;

/// The believed converged state of every router, maintained incrementally
/// across a failure timeline.
///
/// Holds one parked per-source tree ([`SptScratch`]) per node plus the
/// first-hop destination buckets (`dests_via`) the §IV harvest walks.
/// [`apply_event`](Self::apply_event) patches both in place;
/// [`rebuilt`](Self::rebuilt) recomputes the same state from scratch as
/// the oracle.
#[derive(Debug)]
pub struct DynamicBaseline {
    base: Arc<Baseline>,
    kernels: Kernels,
    mask: LinkMask,
    /// Parked per-source trees, indexed by `NodeId::index`. `Option` so a
    /// tree can be checked out (rehydrated into an [`IncrementalSpt`])
    /// while the rest of the struct stays borrowable.
    trees: Vec<Option<SptScratch>>,
    /// `slot_base[u] + k` indexes the bucket of `u`'s `k`-th incident
    /// link, mirroring [`Baseline`]'s layout.
    slot_base: Vec<usize>,
    buckets: Vec<Vec<NodeId>>,
    events_applied: usize,
    // Rebucketing scratch (memoized first-hop walks).
    memo: Vec<HopMemo>,
    walk: Vec<NodeId>,
    slot_of: Vec<usize>,
}

impl DynamicBaseline {
    /// Builds the believed state for the intact topology, serially.
    #[must_use]
    pub fn new(base: Arc<Baseline>) -> Self {
        Self::with_kernels_threads(base, Kernels::default(), 1)
    }

    /// Like [`new`](Self::new) with explicit queue kernels and `threads`
    /// workers for the initial per-source tree build (results are
    /// byte-identical at every worker count).
    #[must_use]
    pub fn with_kernels_threads(base: Arc<Baseline>, kernels: Kernels, threads: usize) -> Self {
        let mask = LinkMask::none(base.topo());
        Self::over_mask(base, kernels, mask, threads, 0)
    }

    /// Builds the full state from scratch over an arbitrary link mask —
    /// the shared path of the initial build and the rebuild oracle.
    fn over_mask(
        base: Arc<Baseline>,
        kernels: Kernels,
        mask: LinkMask,
        threads: usize,
        events_applied: usize,
    ) -> Self {
        let topo = base.topo();
        let n = topo.node_count();
        let threads = par::resolve_threads(threads);
        let ranges = par::chunk_ranges(n, threads.max(1) * 4);
        let chunks = par::map_indexed(threads, &ranges, |_, r| {
            let mut trees = Vec::with_capacity(r.len());
            let mut buckets: Vec<Vec<NodeId>> = Vec::new();
            let mut memo: Vec<HopMemo> = vec![None; n];
            let mut walk = Vec::new();
            let mut slot_of = vec![usize::MAX; topo.link_count()];
            for ui in r.clone() {
                let u = NodeId(ui as u32);
                let tree =
                    IncrementalSpt::with_view_in(topo, &mask, u, SptScratch::with_kernels(kernels));
                let first = buckets.len();
                buckets.resize(first + topo.neighbors(u).len(), Vec::new());
                rebucket_source(
                    topo,
                    &tree,
                    &mut buckets[first..],
                    &mut memo,
                    &mut walk,
                    &mut slot_of,
                );
                trees.push(Some(tree.into_scratch()));
            }
            (trees, buckets)
        });
        let mut trees = Vec::with_capacity(n);
        let mut buckets = Vec::new();
        for (t, b) in chunks {
            trees.extend(t);
            buckets.extend(b);
        }
        let mut slot_base = Vec::with_capacity(n);
        let mut acc = 0;
        for u in topo.node_ids() {
            slot_base.push(acc);
            acc += topo.neighbors(u).len();
        }
        let link_count = topo.link_count();
        DynamicBaseline {
            base,
            kernels,
            mask,
            trees,
            slot_base,
            buckets,
            events_applied,
            memo: vec![None; n],
            walk: Vec::new(),
            slot_of: vec![usize::MAX; link_count],
        }
    }

    /// The static baseline this state started from.
    #[must_use]
    pub fn base(&self) -> &Arc<Baseline> {
        &self.base
    }

    /// The underlying topology.
    #[must_use]
    pub fn topo(&self) -> &Topology {
        self.base.topo()
    }

    /// The believed link view (every event applied so far folded in).
    #[must_use]
    pub fn mask(&self) -> &LinkMask {
        &self.mask
    }

    /// How many timeline events have been folded into this state.
    #[must_use]
    pub fn events_applied(&self) -> usize {
        self.events_applied
    }

    /// Destinations whose believed default path from `u` starts over
    /// `u`'s `slot`-th incident link, ascending. Empty for out-of-range
    /// slots.
    #[must_use]
    pub fn dests_via(&self, u: NodeId, slot: usize) -> &[NodeId] {
        let Some(&first) = self.slot_base.get(u.index()) else {
            return &[];
        };
        if slot >= self.topo().neighbors(u).len() {
            return &[];
        }
        self.buckets.get(first + slot).map_or(&[], Vec::as_slice)
    }

    /// The believed distance from `u` to `t` (`None` when unreachable in
    /// the believed view, or for out-of-range ids).
    #[must_use]
    pub fn distance(&self, u: NodeId, t: NodeId) -> Option<u64> {
        self.trees
            .get(u.index())
            .and_then(Option::as_ref)
            .and_then(|s| s.distance(t))
    }

    /// The first hop of the believed path from `u` to `t`, as the
    /// incident link of `u` the path leaves over. `None` when `t` is
    /// unreachable or equals `u`.
    #[must_use]
    pub fn first_hop(&self, u: NodeId, t: NodeId) -> Option<LinkId> {
        let tree = self.trees.get(u.index()).and_then(Option::as_ref)?;
        let mut cur = t;
        let mut hop = None;
        while cur != u {
            let (p, l) = tree.parent(cur)?;
            hop = Some(l);
            cur = p;
        }
        hop
    }

    /// Folds one timeline event into the believed state, silently. See
    /// [`apply_event_traced`](Self::apply_event_traced).
    pub fn apply_event(&mut self, ev: &TimelineEvent) -> PatchStats {
        self.apply_event_traced(ev, &mut NoopSink)
    }

    /// Folds one timeline event into the believed state **in place**:
    /// filters no-op deltas (downing a dead link, repairing a live one),
    /// patches every per-source tree with the incremental remove/restore
    /// repairs, and rebuckets only the sources whose tree changed. Emits
    /// one [`Event::BaselinePatched`] carrying the returned stats.
    pub fn apply_event_traced<S: TraceSink>(
        &mut self,
        ev: &TimelineEvent,
        sink: &mut S,
    ) -> PatchStats {
        let link_count = self.topo().link_count();
        let downs: Vec<LinkId> = ev
            .down
            .iter()
            .copied()
            .filter(|&l| l.index() < link_count && !self.mask.is_removed(l))
            .collect();
        for &l in &downs {
            self.mask.remove(l);
        }
        let ups: Vec<LinkId> = ev
            .up
            .iter()
            .copied()
            .filter(|&l| self.mask.is_removed(l))
            .collect();
        for &l in &ups {
            self.mask.restore(l);
        }

        let mut stats = PatchStats {
            down: downs.len(),
            up: ups.len(),
            sources_touched: 0,
            labels_touched: 0,
        };
        if !downs.is_empty() || !ups.is_empty() {
            let topo = self.base.topo();
            for ui in 0..topo.node_count() {
                let Some(scratch) = self.trees.get_mut(ui).and_then(Option::take) else {
                    continue;
                };
                let u = NodeId(ui as u32);
                let mut tree = IncrementalSpt::resume_in(topo, u, scratch);
                tree.remove_links(downs.iter().copied());
                let mut touched = tree.nodes_touched();
                tree.restore_links(ups.iter().copied());
                touched += tree.nodes_touched();
                if touched > 0 {
                    stats.sources_touched += 1;
                    stats.labels_touched += touched;
                    let first = self.slot_base.get(ui).copied().unwrap_or(0);
                    let slots = topo.neighbors(u).len();
                    rebucket_source(
                        topo,
                        &tree,
                        &mut self.buckets[first..first + slots],
                        &mut self.memo,
                        &mut self.walk,
                        &mut self.slot_of,
                    );
                }
                if let Some(slot) = self.trees.get_mut(ui) {
                    *slot = Some(tree.into_scratch());
                }
            }
        }
        self.events_applied += 1;
        sink.emit(Event::BaselinePatched {
            down: stats.down,
            up: stats.up,
            sources_touched: stats.sources_touched,
            labels_touched: stats.labels_touched,
        });
        stats
    }

    /// The oracle: the same believed state recomputed from scratch over
    /// the current link mask, silently. The incremental path must be
    /// byte-identical to this ([`divergence`](Self::divergence) returns
    /// `None`); the proptests and the `bench-churn` gate enforce it.
    #[must_use]
    pub fn rebuilt(&self) -> DynamicBaseline {
        self.rebuilt_traced(&mut NoopSink)
    }

    /// Like [`rebuilt`](Self::rebuilt), emitting one
    /// [`Event::BaselineRebuilt`].
    #[must_use]
    pub fn rebuilt_traced<S: TraceSink>(&self, sink: &mut S) -> DynamicBaseline {
        let out = Self::over_mask(
            Arc::clone(&self.base),
            self.kernels,
            self.mask.clone(),
            1,
            self.events_applied,
        );
        sink.emit(Event::BaselineRebuilt {
            sources: self.trees.len(),
        });
        out
    }

    /// Compares every observable of the two states — link mask, per-source
    /// distances and tree parents, first-hop buckets — and reports the
    /// first mismatch as a human-readable string, or `None` when
    /// byte-identical.
    #[must_use]
    pub fn divergence(&self, other: &DynamicBaseline) -> Option<String> {
        let topo = self.topo();
        for l in 0..topo.link_count() {
            let l = LinkId(l as u32);
            if self.mask.is_removed(l) != other.mask.is_removed(l) {
                return Some(format!("mask differs at {l}"));
            }
        }
        for u in topo.node_ids() {
            let (a, b) = (
                self.trees.get(u.index()).and_then(Option::as_ref),
                other.trees.get(u.index()).and_then(Option::as_ref),
            );
            let (Some(a), Some(b)) = (a, b) else {
                return Some(format!("tree for source {u} missing"));
            };
            for t in topo.node_ids() {
                if a.distance(t) != b.distance(t) {
                    return Some(format!(
                        "distance({u}, {t}): {:?} vs {:?}",
                        a.distance(t),
                        b.distance(t)
                    ));
                }
                if a.parent(t) != b.parent(t) {
                    return Some(format!(
                        "parent({u}, {t}): {:?} vs {:?}",
                        a.parent(t),
                        b.parent(t)
                    ));
                }
            }
        }
        if self.buckets != other.buckets {
            for (i, (a, b)) in self.buckets.iter().zip(&other.buckets).enumerate() {
                if a != b {
                    return Some(format!("bucket {i} differs: {a:?} vs {b:?}"));
                }
            }
        }
        None
    }
}

/// Rebuilds one source's first-hop buckets from its (already patched)
/// tree. `buckets` is the source's contiguous per-incident-link slice;
/// `memo`/`walk`/`slot_of` are reusable scratch. Destinations land in
/// ascending id order, matching [`Baseline`]'s layout.
fn rebucket_source(
    topo: &Topology,
    tree: &IncrementalSpt<'_>,
    buckets: &mut [Vec<NodeId>],
    memo: &mut [HopMemo],
    walk: &mut Vec<NodeId>,
    slot_of: &mut [usize],
) {
    let u = tree.source();
    for m in memo.iter_mut() {
        *m = None;
    }
    for b in buckets.iter_mut() {
        b.clear();
    }
    let nbrs = topo.neighbors(u);
    for (k, &(_, l)) in nbrs.iter().enumerate() {
        if let Some(s) = slot_of.get_mut(l.index()) {
            *s = k;
        }
    }
    for t in topo.node_ids() {
        if t == u {
            continue;
        }
        if let Some(l) = first_hop_memo(tree, u, t, memo, walk) {
            let k = slot_of.get(l.index()).copied().unwrap_or(usize::MAX);
            if let Some(b) = buckets.get_mut(k) {
                b.push(t);
            }
        }
    }
    for &(_, l) in nbrs {
        if let Some(s) = slot_of.get_mut(l.index()) {
            *s = usize::MAX;
        }
    }
}

/// The first hop from `u` toward `t` in `tree`, with path compression:
/// every node on the walked parent chain is memoized, so rebucketing a
/// whole source is O(n) parent steps total instead of O(n · depth).
fn first_hop_memo(
    tree: &IncrementalSpt<'_>,
    u: NodeId,
    t: NodeId,
    memo: &mut [HopMemo],
    walk: &mut Vec<NodeId>,
) -> Option<LinkId> {
    walk.clear();
    let mut cur = t;
    let result = loop {
        if cur == u {
            // Unwinding assigns the link below `u` to the whole chain.
            break None;
        }
        if let Some(Some(known)) = memo.get(cur.index()).copied() {
            break known;
        }
        match tree.parent(cur) {
            None => {
                // Unreachable; memoize `cur` itself too.
                if let Some(m) = memo.get_mut(cur.index()) {
                    *m = Some(None);
                }
                break None;
            }
            Some((p, l)) => {
                walk.push(cur);
                if p == u {
                    break Some(l);
                }
                cur = p;
            }
        }
    };
    // `result` is None only when the chain is unreachable or empty; a
    // chain that reached `u` owns the link of its last pushed node.
    let value = if result.is_some() {
        result
    } else if cur == u {
        walk.last().and_then(|&v| tree.parent(v)).map(|(_, l)| l)
    } else {
        None
    };
    for &v in walk.iter() {
        if let Some(m) = memo.get_mut(v.index()) {
            *m = Some(value);
        }
    }
    value
}

/// Knobs for [`run_timeline`].
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// How many events the believed baseline lags behind the ground truth
    /// (K ≥ 1). `1` is the paper's regime: routers have converged to
    /// everything *before* the current failure. `0` would mean instant
    /// convergence and is clamped to `1`.
    pub staleness: usize,
    /// Cap on harvested (initiator, link, destination) cases per event,
    /// taken as an even stride over the full harvest (0 = unlimited).
    pub max_cases_per_event: usize,
    /// Worker threads for the initial baseline build (0 = auto).
    pub threads: usize,
    /// Shortest-path queue kernels for every tree in the run.
    pub kernels: Kernels,
    /// Phase-1 crossing-mask kernel.
    pub sweep: SweepKernel,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            staleness: 1,
            max_cases_per_event: 0,
            threads: 1,
            kernels: Kernels::default(),
            sweep: SweepKernel::default(),
        }
    }
}

impl ChurnConfig {
    /// Sets the staleness lag K (clamped to ≥ 1).
    #[must_use]
    pub fn with_staleness(mut self, k: usize) -> Self {
        self.staleness = k.max(1);
        self
    }

    /// Sets the per-event case cap (0 = unlimited).
    #[must_use]
    pub fn with_max_cases(mut self, cap: usize) -> Self {
        self.max_cases_per_event = cap;
        self
    }

    /// Sets the initial-build worker count (0 = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Per-event recovery quality under churn.
#[derive(Debug, Clone)]
pub struct EventOutcome {
    /// Event index in the timeline.
    pub index: usize,
    /// Event timestamp (ms).
    pub at_ms: u64,
    /// The patch folded into the believed baseline while processing this
    /// event (the event `staleness` steps back; all-zero before any event
    /// is old enough to be believed).
    pub patch: PatchStats,
    /// Harvested (initiator, failed link, destination) cases.
    pub cases: usize,
    /// Cases whose recovery packet reached the destination.
    pub delivered: usize,
    /// Cases whose destination is reachable from the initiator in the
    /// ground truth (the recoverable share of the harvest).
    pub reachable: usize,
    /// Shortest-path calculations across all recovery sessions.
    pub sp_calculations: usize,
    /// Sum of per-delivery stretch (delivered cost / optimal cost).
    pub stretch_sum: f64,
    /// Deliveries contributing to `stretch_sum`.
    pub stretch_count: usize,
}

impl EventOutcome {
    /// Delivered share of all harvested cases, in percent (100 when the
    /// event harvested nothing).
    #[must_use]
    pub fn delivery_pct(&self) -> f64 {
        if self.cases == 0 {
            100.0
        } else {
            self.delivered as f64 / self.cases as f64 * 100.0
        }
    }

    /// Mean stretch over delivered cases (1.0 when none delivered).
    #[must_use]
    pub fn mean_stretch(&self) -> f64 {
        if self.stretch_count == 0 {
            1.0
        } else {
            self.stretch_sum / self.stretch_count as f64
        }
    }
}

impl ToJson for EventOutcome {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("index", Json::Num(self.index as f64)),
            ("at_ms", Json::Num(self.at_ms as f64)),
            ("patch_down", Json::Num(self.patch.down as f64)),
            ("patch_up", Json::Num(self.patch.up as f64)),
            (
                "patch_sources_touched",
                Json::Num(self.patch.sources_touched as f64),
            ),
            (
                "patch_labels_touched",
                Json::Num(self.patch.labels_touched as f64),
            ),
            ("cases", Json::Num(self.cases as f64)),
            ("delivered", Json::Num(self.delivered as f64)),
            ("reachable", Json::Num(self.reachable as f64)),
            ("delivery_pct", Json::Num(self.delivery_pct())),
            ("sp_calculations", Json::Num(self.sp_calculations as f64)),
            ("mean_stretch", Json::Num(self.mean_stretch())),
        ])
    }
}

/// Recovery quality across a whole failure timeline.
#[derive(Debug, Clone)]
pub struct TimelineReport {
    /// Topology / scenario label.
    pub label: String,
    /// The staleness lag K the run used.
    pub staleness: usize,
    /// Per-event outcomes, in timeline order.
    pub events: Vec<EventOutcome>,
}

impl TimelineReport {
    /// Total harvested cases across all events.
    #[must_use]
    pub fn total_cases(&self) -> usize {
        self.events.iter().map(|e| e.cases).sum()
    }

    /// Total delivered cases across all events.
    #[must_use]
    pub fn total_delivered(&self) -> usize {
        self.events.iter().map(|e| e.delivered).sum()
    }

    /// Overall delivered share of harvested cases, in percent.
    #[must_use]
    pub fn overall_delivery_pct(&self) -> f64 {
        let cases = self.total_cases();
        if cases == 0 {
            100.0
        } else {
            self.total_delivered() as f64 / cases as f64 * 100.0
        }
    }

    /// Total shortest-path calculations across all events.
    #[must_use]
    pub fn total_sp_calculations(&self) -> usize {
        self.events.iter().map(|e| e.sp_calculations).sum()
    }

    /// Mean stretch over every delivered case in the run.
    #[must_use]
    pub fn overall_mean_stretch(&self) -> f64 {
        let n: usize = self.events.iter().map(|e| e.stretch_count).sum();
        if n == 0 {
            1.0
        } else {
            self.events.iter().map(|e| e.stretch_sum).sum::<f64>() / n as f64
        }
    }
}

impl fmt::Display for TimelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "churn timeline — {} (baseline {} event(s) stale)",
            self.label, self.staleness
        )?;
        writeln!(
            f,
            "{:>4} {:>8} {:>5} {:>4} {:>6} {:>8} {:>7} {:>9} {:>6} {:>5} {:>8}",
            "ev",
            "t_ms",
            "down",
            "up",
            "src±",
            "labels",
            "cases",
            "delivered",
            "del%",
            "#SP",
            "stretch"
        )?;
        for e in &self.events {
            writeln!(
                f,
                "{:>4} {:>8} {:>5} {:>4} {:>6} {:>8} {:>7} {:>9} {:>6.1} {:>5} {:>8.3}",
                e.index,
                e.at_ms,
                e.patch.down,
                e.patch.up,
                e.patch.sources_touched,
                e.patch.labels_touched,
                e.cases,
                e.delivered,
                e.delivery_pct(),
                e.sp_calculations,
                e.mean_stretch(),
            )?;
        }
        writeln!(
            f,
            "total: {} cases, {} delivered ({:.1}%), {} SP calculations, mean stretch {:.3}",
            self.total_cases(),
            self.total_delivered(),
            self.overall_delivery_pct(),
            self.total_sp_calculations(),
            self.overall_mean_stretch(),
        )
    }
}

impl ToJson for TimelineReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema", Json::Str("churn-timeline-v1".to_string())),
            ("label", Json::Str(self.label.clone())),
            ("staleness", Json::Num(self.staleness as f64)),
            (
                "events",
                Json::Arr(self.events.iter().map(ToJson::to_json).collect()),
            ),
            ("total_cases", Json::Num(self.total_cases() as f64)),
            ("total_delivered", Json::Num(self.total_delivered() as f64)),
            (
                "overall_delivery_pct",
                Json::Num(self.overall_delivery_pct()),
            ),
            (
                "total_sp_calculations",
                Json::Num(self.total_sp_calculations() as f64),
            ),
            (
                "overall_mean_stretch",
                Json::Num(self.overall_mean_stretch()),
            ),
        ])
    }
}

/// Drives RTR recovery across a failure timeline with a lagging believed
/// baseline.
///
/// Per event `i`: the ground-truth mask advances by event `i` immediately;
/// the believed [`DynamicBaseline`] is patched with event
/// `i - K` (K = [`ChurnConfig::staleness`]) — so routers recover from a
/// view that is K events behind reality. Cases are harvested from the
/// *believed* first-hop buckets of every link that is up in the believed
/// view but down in the truth; phase 1 sweeps the truth and phase 2
/// recomputes over the believed view
/// ([`SessionPool::start_based_session`]).
#[must_use]
pub fn run_timeline(
    base: &Arc<Baseline>,
    timeline: &Timeline,
    label: &str,
    cfg: &ChurnConfig,
) -> TimelineReport {
    let staleness = cfg.staleness.max(1);
    let topo = base.topo();
    let mut truth = LinkMask::none(topo);
    let mut believed =
        DynamicBaseline::with_kernels_threads(Arc::clone(base), cfg.kernels, cfg.threads);
    let pool = SessionPool::with_kernels(cfg.kernels, cfg.sweep);
    let mut events_out = Vec::with_capacity(timeline.len());
    let evs = timeline.events();
    for (i, ev) in evs.iter().enumerate() {
        ev.apply_to(&mut truth);
        let patch = if i >= staleness {
            evs.get(i - staleness)
                .map(|old| believed.apply_event(old))
                .unwrap_or_default()
        } else {
            PatchStats::default()
        };

        // Harvest: believed-up, truth-down incident links, destinations
        // from the believed buckets (what the initiator *thinks* routes
        // over the dead link).
        let mut cases: Vec<(NodeId, LinkId, NodeId)> = Vec::new();
        for u in topo.node_ids() {
            for (k, &(_, l)) in topo.neighbors(u).iter().enumerate() {
                if truth.is_removed(l) && !believed.mask().is_removed(l) {
                    for &t in believed.dests_via(u, k) {
                        cases.push((u, l, t));
                    }
                }
            }
        }
        let selected = stride_sample(&cases, cfg.max_cases_per_event);

        let mut out = EventOutcome {
            index: i,
            at_ms: ev.at_ms,
            patch,
            cases: selected.len(),
            delivered: 0,
            reachable: 0,
            sp_calculations: 0,
            stretch_sum: 0.0,
            stretch_count: 0,
        };
        // One session per run of equal (initiator, failed link).
        for group in selected.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let Some(&(u, l, _)) = group.first() else {
                continue;
            };
            let mut opt_lease = pool.dijkstra();
            let optimal = opt_lease.run(topo, &truth, u);
            match pool.start_based_session(topo, base.crosslinks(), &truth, believed.mask(), u, l) {
                Ok(mut session) => {
                    for &(_, _, t) in group {
                        if optimal.distance(t).is_some() {
                            out.reachable += 1;
                        }
                        let attempt = session.recover(t);
                        if attempt.outcome == DeliveryOutcome::Delivered {
                            out.delivered += 1;
                            if let (Some(p), Some(od)) = (attempt.path, optimal.distance(t)) {
                                if od > 0 {
                                    out.stretch_sum += p.cost() as f64 / od as f64;
                                    out.stretch_count += 1;
                                }
                            }
                        }
                    }
                    out.sp_calculations += session.sp_calculations();
                }
                Err(_) => {
                    // Initiator cut off entirely (no live neighbor):
                    // nothing deliverable, but count what was reachable.
                    for &(_, _, t) in group {
                        if optimal.distance(t).is_some() {
                            out.reachable += 1;
                        }
                    }
                }
            }
        }
        events_out.push(out);
    }
    TimelineReport {
        label: label.to_string(),
        staleness,
        events: events_out,
    }
}

/// Runs [`run_timeline`] once per staleness value in `ks`, sharing the
/// base; the returned reports are in `ks` order.
#[must_use]
pub fn staleness_sweep(
    base: &Arc<Baseline>,
    timeline: &Timeline,
    label: &str,
    ks: &[usize],
    cfg: &ChurnConfig,
) -> Vec<TimelineReport> {
    ks.iter()
        .map(|&k| run_timeline(base, timeline, label, &cfg.clone().with_staleness(k)))
        .collect()
}

/// Takes `cap` items as an even stride over `cases` (all of them when
/// `cap == 0` or `cases` is short enough). Preserves order, so cases stay
/// grouped by (initiator, failed link).
fn stride_sample(cases: &[(NodeId, LinkId, NodeId)], cap: usize) -> Vec<(NodeId, LinkId, NodeId)> {
    if cap == 0 || cases.len() <= cap {
        return cases.to_vec();
    }
    (0..cap)
        .filter_map(|j| cases.get(j * cases.len() / cap).copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_obs::CollectingSink;
    use rtr_topology::generate;

    fn grid_base() -> Arc<Baseline> {
        Arc::new(Baseline::new(generate::grid(4, 4, 100.0)))
    }

    #[test]
    fn fresh_dynamic_baseline_matches_static_buckets() {
        let base = grid_base();
        let dynbase = DynamicBaseline::new(Arc::clone(&base));
        let topo = base.topo();
        for u in topo.node_ids() {
            for k in 0..topo.neighbors(u).len() {
                assert_eq!(
                    dynbase.dests_via(u, k),
                    base.dests_via(u, k),
                    "bucket ({u}, slot {k})"
                );
            }
        }
    }

    #[test]
    fn patched_state_matches_rebuild_across_churn() {
        let base = grid_base();
        let timeline = Timeline::random_churn(base.topo(), 6, 50, 2, 0.5, 11);
        assert!(!timeline.is_empty());
        let mut dynbase = DynamicBaseline::new(Arc::clone(&base));
        for ev in timeline.events() {
            dynbase.apply_event(ev);
            assert_eq!(dynbase.divergence(&dynbase.rebuilt()), None);
        }
    }

    #[test]
    fn parallel_initial_build_is_byte_identical() {
        let base = grid_base();
        let serial = DynamicBaseline::new(Arc::clone(&base));
        let par = DynamicBaseline::with_kernels_threads(Arc::clone(&base), Kernels::default(), 4);
        assert_eq!(serial.divergence(&par), None);
    }

    #[test]
    fn repairing_never_failed_links_is_a_noop() {
        let base = grid_base();
        let before = DynamicBaseline::new(Arc::clone(&base));
        let mut dynbase = DynamicBaseline::new(Arc::clone(&base));
        let stats = dynbase.apply_event(&TimelineEvent {
            at_ms: 10,
            down: vec![],
            up: vec![LinkId(0), LinkId(3), LinkId(9999)],
        });
        assert_eq!(stats, PatchStats::default());
        assert_eq!(dynbase.divergence(&before), None);
        assert_eq!(dynbase.events_applied(), 1);
    }

    #[test]
    fn apply_event_emits_one_baseline_patched_event() {
        let base = grid_base();
        let mut dynbase = DynamicBaseline::new(Arc::clone(&base));
        let mut sink = CollectingSink::new();
        let stats = dynbase.apply_event_traced(
            &TimelineEvent {
                at_ms: 5,
                down: vec![LinkId(0)],
                up: vec![],
            },
            &mut sink,
        );
        assert!(stats.sources_touched > 0);
        let patched: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| matches!(e, Event::BaselinePatched { .. }))
            .collect();
        assert_eq!(patched.len(), 1);
    }

    #[test]
    fn run_timeline_reports_every_event() {
        let base = grid_base();
        let timeline = Timeline::random_churn(base.topo(), 5, 50, 2, 0.5, 3);
        let report = run_timeline(&base, &timeline, "grid", &ChurnConfig::default());
        assert_eq!(report.events.len(), timeline.len());
        assert!(report.total_cases() > 0, "churn should disturb some routes");
        // Recovery over a one-event-stale baseline still delivers every
        // reachable destination the harvest found, or at worst degrades
        // gracefully; the report must stay internally consistent.
        for e in &report.events {
            assert!(e.delivered <= e.cases);
            assert!(e.reachable <= e.cases);
            assert!(e.delivered <= e.reachable, "cannot deliver to unreachable");
        }
        let json = crate::json::to_string(&report);
        assert!(json.contains("churn-timeline-v1"));
    }

    #[test]
    fn staleness_sweep_orders_reports_by_k() {
        let base = grid_base();
        let timeline = Timeline::random_churn(base.topo(), 3, 50, 1, 0.5, 9);
        let reports = staleness_sweep(&base, &timeline, "grid", &[1, 2], &ChurnConfig::default());
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].staleness, 1);
        assert_eq!(reports[1].staleness, 2);
    }

    #[test]
    fn stride_sample_caps_and_preserves_grouping() {
        let cases: Vec<_> = (0..100)
            .map(|i| (NodeId(i / 10), LinkId(i / 10), NodeId(i)))
            .collect();
        let s = stride_sample(&cases, 10);
        assert_eq!(s.len(), 10);
        // Order preserved → still grouped by (initiator, link).
        for w in s.windows(2) {
            assert!(w[0].0 .0 <= w[1].0 .0);
        }
        assert_eq!(stride_sample(&cases, 0).len(), 100);
    }
}
