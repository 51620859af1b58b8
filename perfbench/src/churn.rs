//! `churn-as3549`: a long seeded failure/repair timeline on AS3549. Each
//! event is folded into the believed state with
//! `DynamicBaseline::apply_event` (one event stale, as in
//! `churn::run_timeline`), then every harvested case is recovered with
//! `SessionPool::start_based_session` on the believed view.

use crate::layers::{self, PhaseCounts};
use crate::stats::Samples;
use crate::trace::Recorder;
use crate::{median_of, Outcome, SETUP_REPEATS, THREADS};
use rtr_core::{
    collect_failure_info_with, source_route_walk, DeliveryOutcome, RecoveryComputer,
    RecoveryScratch, SessionPool, SweepKernel,
};
use rtr_eval::baseline::Baseline;
use rtr_eval::churn::DynamicBaseline;
use rtr_obs::NoopSink;
use rtr_routing::Kernels;
use rtr_topology::{isp, LinkId, LinkMask, NodeId, Timeline, Topology};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "churn-as3549";

const TOPO: &str = "AS3549";

/// Timeline steps: more than a 20-second run folds in on a 2-core host.
/// A faster host runs out early and measures for less time.
const STEPS: usize = 150_000;
/// Links failed per step.
const FAIL_PER_STEP: usize = 2;
/// Chance that each down link is repaired at a step.
const REPAIR_PROB: f64 = 0.3;
/// Step spacing, milliseconds.
const DT_MS: u64 = 50;
/// Every this many events, the patched state is checked against a rebuild.
const CHECK_EVERY: usize = 100;
/// Events the traced run replays.
const TRACE_EVENTS: usize = 600;

struct Setup {
    base: Arc<Baseline>,
    believed: DynamicBaseline,
    timeline: Timeline,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let topo = isp::profile(TOPO).ok_or("unknown twin")?.synthesize();
    let timeline = Timeline::random_churn(&topo, STEPS, DT_MS, FAIL_PER_STEP, REPAIR_PROB, seed);
    let base = Arc::new(Baseline::with_threads(topo, THREADS));
    let believed =
        DynamicBaseline::with_kernels_threads(Arc::clone(&base), Kernels::default(), THREADS);
    Ok(Setup {
        base,
        believed,
        timeline,
    })
}

/// Cases of one event, grouped per (initiator, failed link): links down
/// in the truth but up in the believed view, with the destinations the
/// believed buckets route over them.
fn harvest(
    topo: &Topology,
    truth: &LinkMask,
    believed: &DynamicBaseline,
) -> Vec<(NodeId, LinkId, Vec<NodeId>)> {
    let mut groups = Vec::new();
    for u in topo.node_ids() {
        for (k, &(_, l)) in topo.neighbors(u).iter().enumerate() {
            if truth.is_removed(l) && !believed.mask().is_removed(l) {
                let dests = believed.dests_via(u, k);
                if !dests.is_empty() {
                    groups.push((u, l, dests.to_vec()));
                }
            }
        }
    }
    groups
}

/// The timed run.
pub fn timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut last = None;
    let setup_s = median_of(SETUP_REPEATS, || last = Some(setup(seed)));
    let Setup {
        base,
        mut believed,
        timeline,
    } = last.ok_or("no set-up ran")??;
    let topo = base.topo();
    let events = timeline.events();
    let pool = SessionPool::new();
    let mut truth = LinkMask::none(topo);

    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Duration::ZERO;
    let mut patch_us = Samples::default();
    let mut recoveries = 0u64;
    let mut delivered = 0u64;
    let mut checks = 0u64;
    let mut diverged = 0u64;
    for (i, ev) in events.iter().enumerate() {
        if measured >= budget {
            break;
        }
        let t0 = Instant::now();
        ev.apply_to(&mut truth);
        if let Some(prev) = i.checked_sub(1).and_then(|j| events.get(j)) {
            let t = Instant::now();
            believed.apply_event(prev);
            patch_us.push_us(t.elapsed());
        }
        for (u, l, dests) in harvest(topo, &truth, &believed) {
            let Ok(mut session) =
                pool.start_based_session(topo, base.crosslinks(), &truth, believed.mask(), u, l)
            else {
                continue;
            };
            recoveries += dests.len() as u64;
            for t in dests {
                delivered += u64::from(session.recover(t).is_delivered());
            }
        }
        measured += t0.elapsed();
        if i % CHECK_EVERY == 0 {
            checks += 1;
            diverged += u64::from(believed.divergence(&believed.rebuilt()).is_some());
        }
    }
    checks += 1;
    diverged += u64::from(believed.divergence(&believed.rebuilt()).is_some());
    let folded = patch_us.len() as u64;
    let p50 = patch_us.quantile(0.50).ok_or("too few events for p50")?;
    let p99 = patch_us.quantile(0.99).ok_or("too few events for p99")?;
    let per_s = (folded + recoveries) as f64 / measured.as_secs_f64();
    let mut out = Outcome::new(folded + recoveries, diverged);
    out.end_to_end(setup_s, p50, p99, per_s);
    out.note(format!(
        "{TOPO}: {} nodes, {} links; timeline {STEPS} steps, {FAIL_PER_STEP} failures/step, repair p={REPAIR_PROB}",
        topo.node_count(),
        topo.link_count()
    ));
    out.note(format!(
        "patch_p50_us {p50:.1} us, patch_p99_us {p99:.1} us (n={folded})"
    ));
    out.note(format!(
        "churn_events_per_s {per_s:.1} 1/s ({folded} events, {recoveries} recoveries, {delivered} delivered)"
    ));
    out.note(format!(
        "{checks} divergence checks against a rebuild, {diverged} diverged"
    ));
    if measured < budget {
        out.note(format!(
            "timeline of {STEPS} steps ran out after {:.3} s of measurement",
            measured.as_secs_f64()
        ));
    }
    Ok(out)
}

/// Counts gathered while replaying the timeline.
#[derive(Debug, Default)]
struct ReplayCounts {
    phases: PhaseCounts,
    events: u64,
    sources_touched: u64,
    labels_touched: u64,
}

/// Replays the first [`TRACE_EVENTS`] events through the public
/// functions `start_based_session` and `recover` call, one span each.
fn replay(
    rec: &mut Recorder,
    base: &Baseline,
    timeline: &Timeline,
    mut believed: DynamicBaseline,
) -> (ReplayCounts, DynamicBaseline) {
    let topo = base.topo();
    let events = timeline.events();
    let mut truth = LinkMask::none(topo);
    let mut scratch = RecoveryScratch::default();
    let mut counts = ReplayCounts::default();
    for (i, ev) in events.iter().enumerate().take(TRACE_EVENTS) {
        rec.request(i as u64);
        rec.enter("churn.event");
        ev.apply_to(&mut truth);
        if let Some(prev) = i.checked_sub(1).and_then(|j| events.get(j)) {
            let stats = rec.span("churn.patch", |_| believed.apply_event(prev));
            counts.events += 1;
            counts.sources_touched += stats.sources_touched as u64;
            counts.labels_touched += stats.labels_touched as u64;
        }
        for (u, l, dests) in harvest(topo, &truth, &believed) {
            rec.enter("churn.recover");
            let phase1 = rec.span("phase1.sweep", |_| {
                collect_failure_info_with(
                    topo,
                    base.crosslinks(),
                    &truth,
                    u,
                    l,
                    SweepKernel::default(),
                )
            });
            if let Ok(phase1) = phase1 {
                let mut computer = rec.span("phase2.spt", |_| {
                    RecoveryComputer::new_based_traced_in(
                        topo,
                        believed.mask(),
                        &truth,
                        u,
                        &phase1.header,
                        &mut scratch,
                        &mut NoopSink,
                    )
                });
                counts.phases.session(&phase1, &computer);
                for t in dests {
                    let path = rec.span("phase2.path", |_| computer.recovery_path(t));
                    let (outcome, _) = rec.span("phase2.walk", |_| {
                        source_route_walk(topo, &truth, u, path.as_ref())
                    });
                    counts.phases.dest(outcome == DeliveryOutcome::Delivered);
                }
                computer.recycle(&mut scratch);
            }
            rec.exit();
        }
        rec.exit();
    }
    (counts, believed)
}

/// Deliveries over the first [`TRACE_EVENTS`] events through the public
/// session API: the replay's reference.
fn reference_deliveries(
    base: &Baseline,
    timeline: &Timeline,
    mut believed: DynamicBaseline,
) -> u64 {
    let topo = base.topo();
    let events = timeline.events();
    let pool = SessionPool::new();
    let mut truth = LinkMask::none(topo);
    let mut delivered = 0;
    for (i, ev) in events.iter().enumerate().take(TRACE_EVENTS) {
        ev.apply_to(&mut truth);
        if let Some(prev) = i.checked_sub(1).and_then(|j| events.get(j)) {
            believed.apply_event(prev);
        }
        for (u, l, dests) in harvest(topo, &truth, &believed) {
            let Ok(mut session) =
                pool.start_based_session(topo, base.crosslinks(), &truth, believed.mask(), u, l)
            else {
                continue;
            };
            for t in dests {
                delivered += u64::from(session.recover(t).is_delivered());
            }
        }
    }
    delivered
}

/// Per-layer metrics of `churn-as3549`.
pub fn traced(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let s = setup(seed)?;
    let base = &s.base;
    let fresh =
        || DynamicBaseline::with_kernels_threads(Arc::clone(base), Kernels::default(), THREADS);
    let reference = reference_deliveries(base, &s.timeline, fresh());
    let (rec, (counts, believed), overhead_pct) = crate::overhead(fresh, |rec, believed| {
        replay(rec, base, &s.timeline, believed)
    });
    crate::save_spans(&rec, NAME);

    let mut rebuild_us = Samples::default();
    let mut diverged = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let rebuilt = believed.rebuilt();
        rebuild_us.push_us(t.elapsed());
        diverged += u64::from(believed.divergence(&rebuilt).is_some());
    }
    let mismatched = u64::from(counts.phases.delivered != reference);
    out.add_failed(counts.events + counts.phases.dests, diverged + mismatched);

    let m = |name: &str| format!("{NAME}.{name}");
    let p = rec.profile();
    let events = counts.events.max(1) as f64;
    out.metric(
        m("churn.sources_touched"),
        counts.sources_touched as f64 / events,
        "count",
    );
    out.metric(
        m("churn.labels_touched"),
        counts.labels_touched as f64 / events,
        "count",
    );
    out.metric(m("churn.recover_us"), p.total("churn.recover").mean(), "us");
    out.metric(m("churn.rebuild_us"), rebuild_us.mean(), "us");
    layers::phase_metrics(out, NAME, &p, &counts.phases);
    layers::substrate_metrics(out, NAME, &[base.topo()]);
    out.metric(m("trace.overhead_pct"), overhead_pct, "pct");
    Ok(())
}
