//! `eval-table2`: `driver::run_workload` over the eight Table II twins
//! with all five schemes, at [`THREADS`] threads.

use crate::layers::{self, PhaseCounts};
use crate::stats::Samples;
use crate::trace::Recorder;
use crate::{median_of, Outcome, SETUP_REPEATS, THREADS};
use rtr_baselines::{RecoveryScheme, SchemeId};
use rtr_core::{
    collect_failure_info_with, source_route_walk, DeliveryOutcome, RecoveryComputer,
    RecoveryScratch, SchemeScratch, SweepKernel,
};
use rtr_eval::baseline::Baseline;
use rtr_eval::driver::run_workload;
use rtr_eval::schemes::build_comparators;
use rtr_eval::testcase::{generate_workload_shared, TestCase, Workload};
use rtr_eval::ExperimentConfig;
use rtr_topology::{isp, FailureScenario, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "eval-table2";

/// Cases per class per twin: small enough that one `run_workload` call
/// is a few milliseconds, so a run holds over a thousand calls and its
/// p99 has ten samples beyond it. This is below the `--quick` preset's
/// 500, so the comparator builds inside each call weigh more than in a
/// real run; the traced run reports their share at both scales.
const CASES_PER_CLASS: usize = 60;

fn config() -> ExperimentConfig {
    ExperimentConfig::quick()
        .with_cases(CASES_PER_CLASS)
        .with_threads(THREADS)
}

fn baselines() -> Vec<(isp::IspProfile, Arc<Baseline>)> {
    isp::TABLE2
        .iter()
        .map(|p| {
            (
                *p,
                Arc::new(Baseline::with_threads(p.synthesize(), THREADS)),
            )
        })
        .collect()
}

fn workload(
    p: &isp::IspProfile,
    base: &Arc<Baseline>,
    cfg: &ExperimentConfig,
    seed: u64,
) -> Workload {
    generate_workload_shared(p.name, Arc::clone(base), cfg, seed ^ u64::from(p.asn))
}

/// Workload sets: pass `j` over the twins runs set `j % SETS`, so a
/// run's figures cover many draws of the seed's inputs, not one.
const SETS: u64 = 64;

/// `SETS` workload sets of the eight twins, sharing one baseline per
/// twin.
fn setup(seed: u64) -> Vec<Vec<Workload>> {
    let cfg = config();
    let bases = baselines();
    (0..SETS)
        .map(|k| {
            let set_seed = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            bases
                .iter()
                .map(|(p, base)| workload(p, base, &cfg, set_seed))
                .collect()
        })
        .collect()
}

fn digest(r: &impl std::fmt::Debug) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{r:?}").hash(&mut h);
    h.finish()
}

/// Case evaluations (recoverable + irrecoverable rows × schemes) in a
/// workload.
fn evaluations(w: &Workload, cfg: &ExperimentConfig) -> u64 {
    ((w.recoverable_count() + w.irrecoverable_count()) * cfg.schemes.with(SchemeId::Rtr).len())
        as u64
}

/// The timed run.
pub fn timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut last = None;
    let setup_s = median_of(SETUP_REPEATS, || last = Some(setup(seed)));
    let sets = last.ok_or("no set-up ran")?;
    let cfg = config();

    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Duration::ZERO;
    // One sample per call: its time per case evaluation, so calls on
    // twins of different case counts measure the same quantity.
    let mut case_us = Samples::default();
    let mut twin_case_us = vec![Samples::default(); sets.first().map_or(0, Vec::len)];
    let mut cases = 0u64;
    // Digest of each (set, twin) result on its first run.
    let mut digests: Vec<Vec<u64>> = Vec::new();
    for set in sets.iter().cycle() {
        if measured >= budget {
            break;
        }
        let first_use = digests.len() < sets.len();
        let mut set_digests = Vec::new();
        for (w, twin_us) in set.iter().zip(&mut twin_case_us) {
            let t = Instant::now();
            let r = run_workload(w, &cfg).map_err(|e| e.to_string())?;
            let d = t.elapsed();
            measured += d;
            let evals = evaluations(w, &cfg);
            let us = d.as_secs_f64() * 1e6 / evals.max(1) as f64;
            case_us.push(us);
            twin_us.push(us);
            cases += evals;
            if first_use {
                set_digests.push(digest(&r));
            }
        }
        if first_use {
            digests.push(set_digests);
        }
    }

    // Output check: the 2-thread results equal the serial ones.
    let serial = cfg.clone().with_threads(1);
    let mut failed = 0u64;
    for (set, parallel) in sets.iter().zip(&digests) {
        for (w, want) in set.iter().zip(parallel) {
            let r = run_workload(w, &serial).map_err(|e| e.to_string())?;
            if digest(&r) != *want {
                failed += evaluations(w, &cfg);
            }
        }
    }

    let short = || format!("{} run_workload calls cannot support a p99", case_us.len());
    let p50 = case_us.quantile(0.50).ok_or_else(short)?;
    let p99 = case_us.quantile(0.99).ok_or_else(short)?;
    let per_s = cases as f64 / measured.as_secs_f64();
    let n = case_us.len();
    let mut out = Outcome::new(cases, failed);
    out.end_to_end(setup_s, p50, p99, per_s);
    out.note(format!(
        "{SETS} sets of 8 twins, {CASES_PER_CLASS} cases/class, {THREADS} threads, {cases} case evaluations"
    ));
    out.note(format!(
        "run_workload time per case evaluation: p50 {p50:.3} us, p99 {p99:.3} us (n={n} calls)"
    ));
    let twins: Vec<String> = sets
        .first()
        .into_iter()
        .flatten()
        .zip(&twin_case_us)
        .map(|(w, s)| format!("{} {:.3}", w.name, s.median()))
        .collect();
    out.note(format!(
        "per-twin medians, us per case evaluation: {}",
        twins.join(", ")
    ));
    out.note(format!("eval_cases_per_s {per_s:.1} 1/s"));
    Ok(out)
}

/// Counts gathered while replaying a workload.
#[derive(Debug, Default)]
struct ReplayCounts {
    phases: PhaseCounts,
    /// Per scheme index: route_in calls and shortest-path calculations.
    attempts: [u64; SchemeId::COUNT],
    sp_calcs: [u64; SchemeId::COUNT],
    /// RTR deliveries per twin, in workload order.
    delivered: Vec<u64>,
}

fn route_span(id: SchemeId) -> &'static str {
    match id {
        SchemeId::Rtr => "baselines.rtr.route",
        SchemeId::Fcp => "baselines.fcp.route",
        SchemeId::Mrc => "baselines.mrc.route",
        SchemeId::Emrc => "baselines.emrc.route",
        SchemeId::Fep => "baselines.fep.route",
    }
}

/// One session of `run_workload`'s loop: phase 1 and the recovery SPT
/// once per initiator, then per case the RTR path and walk and every
/// comparator's `route_in`.
#[allow(clippy::too_many_arguments)]
fn replay_session(
    rec: &mut Recorder,
    w: &Workload,
    scenario: &FailureScenario,
    initiator: NodeId,
    cases: &[&TestCase],
    comparators: &[Box<dyn RecoveryScheme>],
    scratch: &mut RecoveryScratch,
    scheme_scratch: &mut SchemeScratch,
    counts: &mut ReplayCounts,
) -> u64 {
    let Some(first) = cases.first() else { return 0 };
    let topo = w.topo();
    let phase1 = rec.span("phase1.sweep", |_| {
        collect_failure_info_with(
            topo,
            w.crosslinks(),
            scenario,
            initiator,
            first.failed_link,
            SweepKernel::default(),
        )
    });
    let Ok(phase1) = phase1 else { return 0 };
    let mut computer = rec.span("phase2.spt", |_| {
        RecoveryComputer::new_in(topo, scenario, initiator, &phase1.header, scratch)
    });
    counts.phases.session(&phase1, &computer);
    let mut delivered = 0;
    for case in cases {
        let path = rec.span("phase2.path", |_| computer.recovery_path(case.dest));
        let (outcome, _) = rec.span("phase2.walk", |_| {
            source_route_walk(topo, scenario, initiator, path.as_ref())
        });
        let hit = outcome == DeliveryOutcome::Delivered;
        counts.phases.dest(hit);
        delivered += u64::from(hit);
        for scheme in comparators {
            let attempt = rec.span(route_span(scheme.id()), |_| {
                scheme.route_in(
                    w.scheme_ctx(),
                    scenario,
                    case.initiator,
                    case.failed_link,
                    case.dest,
                    scheme_scratch,
                )
            });
            let i = scheme.id().index();
            counts.attempts[i] += 1;
            counts.sp_calcs[i] += attempt.sp_calculations as u64;
        }
    }
    computer.recycle(scratch);
    delivered
}

/// One session per (scenario, case class, initiator), as `run_workload`
/// groups them.
fn sessions(w: &Workload) -> impl Iterator<Item = (&FailureScenario, NodeId, Vec<&TestCase>)> {
    w.scenarios.iter().flat_map(|sc| {
        [&sc.recoverable, &sc.irrecoverable]
            .into_iter()
            .flat_map(move |class| {
                let mut by_initiator: BTreeMap<NodeId, Vec<&TestCase>> = BTreeMap::new();
                for c in class {
                    by_initiator.entry(c.initiator).or_default().push(c);
                }
                by_initiator
                    .into_iter()
                    .map(move |(initiator, cases)| (&sc.scenario, initiator, cases))
            })
    })
}

/// Replays `run_workload` over every twin `passes` times, a span around
/// each call into a layer.
fn replay(
    rec: &mut Recorder,
    workloads: &[Workload],
    cfg: &ExperimentConfig,
    passes: usize,
) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts {
        delivered: vec![0; workloads.len()],
        ..ReplayCounts::default()
    };
    let mut scratch = RecoveryScratch::default();
    let mut scheme_scratch = SchemeScratch::default();
    let mut session_id = 0u64;
    for _ in 0..passes {
        for (twin, w) in workloads.iter().enumerate() {
            let comparators = rec
                .span("eval.build_comparators", |_| {
                    build_comparators(w.topo(), cfg.schemes, cfg.mrc_configurations)
                })
                .map_err(|e| e.to_string())?;
            for (scenario, initiator, cases) in sessions(w) {
                session_id += 1;
                rec.request(session_id);
                rec.enter("eval.session");
                counts.delivered[twin] += replay_session(
                    rec,
                    w,
                    scenario,
                    initiator,
                    &cases,
                    &comparators,
                    &mut scratch,
                    &mut scheme_scratch,
                    &mut counts,
                );
                rec.exit();
            }
        }
    }
    Ok(counts)
}

/// Share of `run_workload` time, in percent, that its comparator
/// builds take at the scale of `cfg`: the summed median build time over
/// the twins divided by the summed median call time.
fn build_share_pct(
    bases: &[(isp::IspProfile, Arc<Baseline>)],
    cfg: &ExperimentConfig,
    seed: u64,
) -> f64 {
    let (mut build_s, mut call_s) = (0.0, 0.0);
    for (p, base) in bases {
        let w = workload(p, base, cfg, seed);
        build_s += median_of(3, || {
            std::hint::black_box(build_comparators(
                w.topo(),
                cfg.schemes,
                cfg.mrc_configurations,
            ))
            .ok();
        });
        call_s += median_of(3, || {
            std::hint::black_box(run_workload(&w, cfg)).ok();
        });
    }
    build_s / call_s * 100.0
}

/// Sessions the traced replay covers: enough for a p99 of the phase
/// spans with [`crate::stats::MIN_BEYOND`] samples beyond it.
const REPLAY_SESSIONS: usize = 1200;

/// Per-layer metrics of `eval-table2`.
pub fn traced(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let cfg = config();
    let m = |name: &str| format!("{NAME}.{name}");
    let bases = baselines();

    let mut workloads = Vec::new();
    let mut gen_s = 0.0;
    for (p, base) in &bases {
        let t = Instant::now();
        workloads.push(workload(p, base, &cfg, seed));
        gen_s += t.elapsed().as_secs_f64();
    }
    out.metric(m("eval.workload_gen_s"), gen_s, "s");

    let topos: Vec<_> = bases.iter().map(|(_, b)| b.topo()).collect();
    layers::substrate_metrics(out, NAME, &topos);
    let mut scenario_us = Samples::default();
    for w in &workloads {
        for sc in &w.scenarios {
            let t = Instant::now();
            std::hint::black_box(FailureScenario::from_region(w.topo(), &sc.region));
            scenario_us.push_us(t.elapsed());
        }
    }
    out.metric(m("topology.scenario_us"), scenario_us.mean(), "us");

    // The driver itself, untraced, per twin; its RTR deliveries are the
    // replay's reference.
    let mut reference = Vec::new();
    for ((p, _), w) in bases.iter().zip(&workloads) {
        let mut result = None;
        let secs = median_of(3, || result = Some(run_workload(w, &cfg)));
        let r = result.ok_or("no run")?.map_err(|e| e.to_string())?;
        let delivered = r.recoverable.iter().filter(|c| c.rtr().delivered).count() as u64;
        reference.push(delivered);
        out.metric(m(&format!("eval.run_workload_s.{}", p.name)), secs, "s");
    }

    out.metric(
        m("eval.build_comparators_pct"),
        build_share_pct(&bases, &cfg, seed),
        "pct",
    );
    let quick = ExperimentConfig::quick().with_threads(THREADS);
    out.metric(
        m("eval.build_comparators_pct_quick"),
        build_share_pct(&bases, &quick, seed),
        "pct",
    );

    let per_pass: usize = workloads.iter().map(|w| sessions(w).count()).sum();
    let passes = REPLAY_SESSIONS.div_ceil(per_pass.max(1));
    let (rec, counts, overhead_pct) =
        crate::overhead(|| (), |rec, ()| replay(rec, &workloads, &cfg, passes));
    let counts = counts?;
    crate::save_spans(&rec, NAME);
    let attempted: u64 =
        workloads.iter().map(|w| evaluations(w, &cfg)).sum::<u64>() * passes as u64;
    let mismatched = counts
        .delivered
        .iter()
        .zip(&reference)
        .filter(|(got, want)| **got != **want * passes as u64)
        .count() as u64;
    out.add_failed(attempted, mismatched);

    let p = rec.profile();
    let build_s = p.total("eval.build_comparators").sum() / 1e6 / passes as f64;
    out.metric(m("eval.build_comparators_s"), build_s, "s");
    for id in [SchemeId::Fcp, SchemeId::Mrc, SchemeId::Emrc, SchemeId::Fep] {
        let key = id.name().to_ascii_lowercase();
        let i = id.index();
        out.metric(
            m(&format!("baselines.{key}.route_us")),
            p.total(route_span(id)).mean(),
            "us",
        );
        let per_attempt = counts.sp_calcs[i] as f64 / counts.attempts[i].max(1) as f64;
        out.metric(
            m(&format!("baselines.{key}.sp_calcs")),
            per_attempt,
            "count",
        );
    }
    layers::phase_metrics(out, NAME, &p, &counts.phases);
    out.metric(m("trace.overhead_pct"), overhead_pct, "pct");
    Ok(())
}
