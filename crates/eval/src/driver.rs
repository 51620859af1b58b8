//! The experiment driver: runs RTR and every masked comparator over a
//! workload and aggregates everything the figures and tables need in one
//! pass.
//!
//! # Parallelism and determinism
//!
//! Scenarios are independent, so [`run_workload`] maps contiguous
//! scenario chunks across the [`crate::par`] executor (one scratch set
//! per worker) and [`run_topologies`] maps whole topologies. Every
//! per-scenario partial result (`ScenarioOutcome`) is folded into the
//! final [`TopologyResults`] *in scenario order on one thread*, and the
//! serial path (`--threads 1`) runs the exact same fold — so output is
//! byte-identical at every worker count, floating-point sums included.
//! Per-scheme Fig. 10 sums live in separate accumulators that each see
//! cases in the same order regardless of which schemes run, so adding a
//! scheme to the mask never perturbs another scheme's series.

use crate::baseline::Baseline;
use crate::config::ExperimentConfig;
use crate::par;
use crate::schemes::{
    eval_irrecoverable_in, eval_recoverable_in, IrrecoverableRow, RecoverableRow,
};
use crate::testcase::{generate_workload_shared, sessions, ScenarioCases, Workload};
use rtr_baselines::{MrcError, RecoveryScheme, SchemeId, SchemeMask};
use rtr_core::SessionPool;
use rtr_sim::SimTime;
use rtr_topology::isp;
use std::fmt;
use std::sync::Arc;

/// Number of sample points of the Fig. 10 time grid (0..=1 s).
pub const FIG10_POINTS: usize = 101;

/// Spacing of the Fig. 10 time grid (10 ms, over the first second).
pub const FIG10_STEP_MS: u64 = 10;

/// Aggregated results for one topology: the raw per-case rows plus the
/// accumulated Fig. 10 time series.
#[derive(Debug)]
pub struct TopologyResults {
    /// Topology display name.
    pub name: String,
    /// The schemes that were evaluated (RTR plus the config mask).
    pub schemes: SchemeMask,
    /// Per-case results on recoverable cases.
    pub recoverable: Vec<RecoverableRow>,
    /// Per-case results on irrecoverable cases.
    pub irrecoverable: Vec<IrrecoverableRow>,
    /// Phase-1 durations in ms across *all* cases (both classes share the
    /// same first phase; Fig. 7).
    pub phase1_durations_ms: Vec<f64>,
    /// Mean transmission overhead (bytes) of each scheme at each Fig. 10
    /// grid point, indexed by [`SchemeId::index`]; all-zero for schemes
    /// outside [`schemes`](Self::schemes) (use [`fig10`](Self::fig10)).
    pub fig10_series: [Vec<f64>; SchemeId::COUNT],
}

impl TopologyResults {
    /// The Fig. 10 grid in seconds.
    pub fn fig10_grid_secs() -> Vec<f64> {
        (0..FIG10_POINTS)
            .map(|i| (i as u64 * FIG10_STEP_MS) as f64 / 1000.0)
            .collect()
    }

    /// `id`'s Fig. 10 mean-overhead series, `None` when the scheme was not
    /// evaluated.
    pub fn fig10(&self, id: SchemeId) -> Option<&[f64]> {
        self.schemes
            .contains(id)
            .then(|| self.fig10_series[id.index()].as_slice())
    }
}

/// Partial results of one scenario: the rows in case order plus the
/// Fig. 10 *sums* (normalisation happens once, after the ordered fold).
#[derive(Debug)]
struct ScenarioOutcome {
    recoverable: Vec<RecoverableRow>,
    irrecoverable: Vec<IrrecoverableRow>,
    phase1_durations_ms: Vec<f64>,
    fig10_sums: [Vec<f64>; SchemeId::COUNT],
    fig10_count: usize,
}

/// Runs every scheme over one scenario's cases. `pool` carries the
/// worker's reusable RTR-session, ground-truth, and comparator buffers.
fn run_scenario(
    w: &Workload,
    cfg: &ExperimentConfig,
    comparators: &[Arc<dyn RecoveryScheme>],
    sc: &ScenarioCases,
    pool: &SessionPool,
) -> ScenarioOutcome {
    let ctx = w.scheme_ctx();
    let mut out = ScenarioOutcome {
        recoverable: Vec::with_capacity(sc.recoverable.len()),
        irrecoverable: Vec::with_capacity(sc.irrecoverable.len()),
        phase1_durations_ms: Vec::new(),
        fig10_sums: std::array::from_fn(|_| vec![0.0f64; FIG10_POINTS]),
        fig10_count: 0,
    };

    // Recoverable cases: one RTR session and one ground-truth SPT per
    // initiator (phase 1 runs once per initiator, §III-A). The pool guards
    // return every buffer at the end of each initiator's block.
    for (initiator, failed_link, cases) in sessions(&sc.recoverable) {
        let session = pool.start_session(
            w.topo(),
            w.crosslinks(),
            &sc.scenario,
            w.table().tree(initiator),
            initiator,
            failed_link,
        );
        let mut session =
            session.expect("recoverable case: live initiator with a failed incident link");
        out.phase1_durations_ms.push(
            cfg.delay
                .for_hops(session.phase1().trace.hops())
                .as_millis_f64(),
        );
        let mut optimal_lease = pool.dijkstra();
        let mut scheme_lease = pool.scheme_scratch();
        let optimal = optimal_lease.run(w.topo(), &sc.scenario, initiator);
        for case in cases {
            let (row, series) = eval_recoverable_in(
                ctx,
                &sc.scenario,
                &mut session,
                comparators,
                optimal,
                case,
                &mut scheme_lease,
            );
            for (sums, series) in out.fig10_sums.iter_mut().zip(&series) {
                let Some(series) = series else { continue };
                for (i, acc) in sums.iter_mut().enumerate() {
                    let t = SimTime::from_millis(i as u64 * FIG10_STEP_MS);
                    *acc += series.sample(&cfg.delay, t);
                }
            }
            out.fig10_count += 1;
            out.recoverable.push(row);
        }
    }

    // Irrecoverable cases.
    for (initiator, failed_link, cases) in sessions(&sc.irrecoverable) {
        let session = pool.start_session(
            w.topo(),
            w.crosslinks(),
            &sc.scenario,
            w.table().tree(initiator),
            initiator,
            failed_link,
        );
        let mut session =
            session.expect("irrecoverable case: live initiator with a failed incident link");
        out.phase1_durations_ms.push(
            cfg.delay
                .for_hops(session.phase1().trace.hops())
                .as_millis_f64(),
        );
        let mut scheme_lease = pool.scheme_scratch();
        for case in cases {
            out.irrecoverable.push(eval_irrecoverable_in(
                ctx,
                &sc.scenario,
                &mut session,
                comparators,
                case,
                &mut scheme_lease,
            ));
        }
    }

    out
}

/// Runs all schemes over one workload, mapping scenario chunks across
/// `cfg.threads` workers (see the module docs for the determinism
/// argument). Comparator state (MRC/eMRC configurations, FEP detours)
/// comes from the workload baseline's memo,
/// [`Baseline::comparators`]: built on the first call for the topology,
/// reused by every later call, and shared read-only by every worker.
///
/// # Errors
///
/// Returns [`MrcUnavailable`] when the MRC baseline cannot be built for
/// the workload's topology (disconnected, or too few configurations) while
/// MRC or eMRC is in the scheme mask; the Table II twins never trigger
/// this.
pub fn run_workload(
    w: &Workload,
    cfg: &ExperimentConfig,
) -> Result<TopologyResults, MrcUnavailable> {
    let comparators = w
        .baseline
        .comparators(cfg.schemes, cfg.mrc_configurations)
        .map_err(|error| MrcUnavailable {
            topology: w.name.clone(),
            error,
        })?;
    let threads = par::resolve_threads(cfg.threads);

    // One contiguous chunk per worker; each worker reuses a single
    // scratch pool across all scenarios of its chunk, so the per-case
    // loop allocates nothing transient after warm-up.
    let chunks = par::chunk_ranges(w.scenarios.len(), threads);
    let per_chunk: Vec<Vec<ScenarioOutcome>> = par::map_indexed(threads, &chunks, |_, range| {
        let pool = SessionPool::new();
        w.scenarios[range.clone()]
            .iter()
            .map(|sc| run_scenario(w, cfg, &comparators, sc, &pool))
            .collect()
    });

    // Deterministic fold in scenario order on this thread. The serial
    // path produces the identical chunk layout collapsed to one chunk,
    // and `a1 + a2 + ...` is associated the same way either way because
    // per-scenario sums are formed first in both.
    let mut recoverable = Vec::with_capacity(w.recoverable_count());
    let mut irrecoverable = Vec::with_capacity(w.irrecoverable_count());
    let mut phase1_durations_ms = Vec::new();
    let mut fig10_series: [Vec<f64>; SchemeId::COUNT] =
        std::array::from_fn(|_| vec![0.0f64; FIG10_POINTS]);
    let mut fig10_count = 0usize;
    for sc in per_chunk.into_iter().flatten() {
        recoverable.extend(sc.recoverable);
        irrecoverable.extend(sc.irrecoverable);
        phase1_durations_ms.extend(sc.phase1_durations_ms);
        for (acc, part) in fig10_series.iter_mut().zip(&sc.fig10_sums) {
            for (a, p) in acc.iter_mut().zip(part) {
                *a += p;
            }
        }
        fig10_count += sc.fig10_count;
    }

    if fig10_count > 0 {
        for v in fig10_series.iter_mut().flatten() {
            *v /= fig10_count as f64;
        }
    }

    Ok(TopologyResults {
        name: w.name.clone(),
        schemes: cfg.schemes.with(SchemeId::Rtr),
        recoverable,
        irrecoverable,
        phase1_durations_ms,
        fig10_series,
    })
}

/// Generates the workload for one Table II profile (reusing the shared
/// per-topology baseline) and runs it.
///
/// # Errors
///
/// Propagates [`MrcUnavailable`] from [`run_workload`].
pub fn run_profile(
    profile: isp::IspProfile,
    cfg: &ExperimentConfig,
) -> Result<TopologyResults, MrcUnavailable> {
    let baseline = Baseline::for_profile(&profile);
    let w = generate_workload_shared(
        profile.name,
        baseline,
        cfg,
        cfg.seed ^ u64::from(profile.asn),
    );
    run_workload(&w, cfg)
}

/// The MRC baseline could not be built for a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrcUnavailable {
    /// Display name of the topology.
    pub topology: String,
    /// Why `Mrc::build` refused.
    pub error: MrcError,
}

impl fmt::Display for MrcUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot build MRC baseline for {}: {}",
            self.topology, self.error
        )
    }
}

impl std::error::Error for MrcUnavailable {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Runs every topology in `profiles`, fanning whole topologies out
/// across the thread budget; any leftover budget parallelises scenarios
/// inside each topology.
///
/// # Errors
///
/// Returns [`MrcUnavailable`] when a topology's MRC baseline cannot be
/// built.
pub fn run_topologies(
    profiles: &[isp::IspProfile],
    cfg: &ExperimentConfig,
) -> Result<Vec<TopologyResults>, MrcUnavailable> {
    // Split the budget: outer workers take whole topologies, and each
    // passes its share of the remainder down to `run_workload`.
    let threads = par::resolve_threads(cfg.threads);
    let outer = threads.min(profiles.len()).max(1);
    let inner_cfg = cfg.clone().with_threads((threads / outer).max(1));
    par::map_indexed(outer, profiles, |_, p| {
        crate::writer::notice(format!(
            "running {} ({} nodes, {} links)...",
            p.name, p.nodes, p.links
        ));
        run_profile(*p, &inner_cfg)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::generate_workload;
    use rtr_topology::generate;

    #[test]
    fn run_workload_produces_full_case_counts() {
        let cfg = ExperimentConfig::quick().with_cases(40);
        let topo = generate::isp_like(30, 70, 2000.0, 8).unwrap();
        let w = generate_workload("t", topo, &cfg, 2);
        let r = run_workload(&w, &cfg).expect("connected fixture");
        assert_eq!(r.recoverable.len(), 40);
        assert_eq!(r.irrecoverable.len(), 40);
        assert!(!r.phase1_durations_ms.is_empty());
        // All five schemes ran and have finite, non-negative series.
        for id in SchemeId::ALL {
            let series = r.fig10(id).expect("default mask runs every scheme");
            assert_eq!(series.len(), FIG10_POINTS);
            for v in series {
                assert!(v.is_finite() && *v >= 0.0);
            }
        }
    }

    #[test]
    fn scheme_mask_controls_what_runs() {
        let cfg = ExperimentConfig::quick()
            .with_cases(20)
            .with_schemes(SchemeMask::none().with(SchemeId::Fcp).with(SchemeId::Fep));
        let topo = generate::isp_like(30, 70, 2000.0, 8).unwrap();
        let w = generate_workload("t", topo, &cfg, 2);
        let r = run_workload(&w, &cfg).expect("connected fixture");
        // RTR always runs; MRC/eMRC were masked out.
        assert!(r.fig10(SchemeId::Rtr).is_some());
        assert!(r.fig10(SchemeId::Fcp).is_some());
        assert!(r.fig10(SchemeId::Mrc).is_none());
        for row in &r.recoverable {
            assert!(row.outcome(SchemeId::Rtr).is_some());
            assert!(row.outcome(SchemeId::Fcp).is_some());
            assert!(row.outcome(SchemeId::Fep).is_some());
            assert!(row.outcome(SchemeId::Mrc).is_none());
            assert!(row.outcome(SchemeId::Emrc).is_none());
        }
    }

    #[test]
    fn restricting_the_mask_never_changes_surviving_schemes() {
        // Scheme independence: RTR/FCP numbers under the full five-scheme
        // mask are identical to an FCP-only run, row by row.
        let topo = generate::isp_like(30, 70, 2000.0, 8).unwrap();
        let cfg = ExperimentConfig::quick().with_cases(30);
        let w = generate_workload("t", topo, &cfg, 2);
        let full = run_workload(&w, &cfg).expect("connected fixture");
        let fcp_only = cfg
            .clone()
            .with_schemes(SchemeMask::none().with(SchemeId::Fcp));
        let restricted = run_workload(&w, &fcp_only).expect("connected fixture");
        assert_eq!(full.recoverable.len(), restricted.recoverable.len());
        for (a, b) in full.recoverable.iter().zip(&restricted.recoverable) {
            assert_eq!(a.outcome(SchemeId::Rtr), b.outcome(SchemeId::Rtr));
            assert_eq!(a.outcome(SchemeId::Fcp), b.outcome(SchemeId::Fcp));
        }
        for id in [SchemeId::Rtr, SchemeId::Fcp] {
            assert_eq!(full.fig10(id), restricted.fig10(id), "{}", id.name());
        }
    }

    #[test]
    fn shape_check_rtr_beats_fcp_where_paper_says() {
        let cfg = ExperimentConfig::quick().with_cases(120);
        let topo = generate::isp_like(40, 110, 2000.0, 55).unwrap();
        let w = generate_workload("t", topo, &cfg, 5);
        let r = run_workload(&w, &cfg).expect("connected fixture");

        // Table III shape: FCP recovers 100%; RTR recovers nearly all and
        // every delivered RTR path is optimal; the proactive schemes are
        // far worse, with eMRC between MRC and the reactive schemes.
        let n = r.recoverable.len() as f64;
        let rate = |id: SchemeId| {
            r.recoverable
                .iter()
                .filter(|c| c.outcome(id).unwrap().delivered)
                .count() as f64
                / n
        };
        let fcp_rate = rate(SchemeId::Fcp);
        let rtr_rate = rate(SchemeId::Rtr);
        let mrc_rate = rate(SchemeId::Mrc);
        let emrc_rate = rate(SchemeId::Emrc);
        let fep_rate = rate(SchemeId::Fep);
        assert_eq!(fcp_rate, 1.0, "FCP always delivers on recoverable cases");
        assert!(rtr_rate > 0.9);
        assert!(
            mrc_rate < rtr_rate,
            "MRC must underperform under area failures"
        );
        assert!(
            emrc_rate >= mrc_rate,
            "re-switching can only add deliveries"
        );
        assert!(
            fep_rate < rtr_rate,
            "single-level detours must underperform under area failures"
        );
        assert!(r
            .recoverable
            .iter()
            .all(|c| !c.rtr().delivered || c.rtr().optimal));

        // Table IV shape: FCP wastes more computation than RTR.
        let rtr_wc: usize = r.irrecoverable.iter().map(|c| c.rtr().computation).sum();
        let fcp_wc: usize = r
            .irrecoverable
            .iter()
            .map(|c| c.fcp().unwrap().computation)
            .sum();
        assert!(fcp_wc > rtr_wc);
    }

    #[test]
    fn fig10_grid_is_one_second() {
        let grid = TopologyResults::fig10_grid_secs();
        assert_eq!(grid.len(), FIG10_POINTS);
        assert_eq!(grid[0], 0.0);
        assert_eq!(*grid.last().unwrap(), 1.0);
    }

    #[test]
    fn parallel_run_is_byte_identical_to_serial() {
        // The whole determinism contract in one test: the same workload
        // on 1 worker and on several must serialize identically, down to
        // the last bit of every floating-point mean.
        let topo = generate::isp_like(30, 70, 2000.0, 8).unwrap();
        let cfg = ExperimentConfig::quick().with_cases(40).with_threads(1);
        let w = generate_workload("t", topo, &cfg, 2);
        let serial = format!("{:?}", run_workload(&w, &cfg));
        assert!(
            w.scenarios.len() > 1,
            "fixture must exercise cross-scenario merging"
        );
        for threads in [2, 4, 7] {
            let cfg = cfg.clone().with_threads(threads);
            let parallel = format!("{:?}", run_workload(&w, &cfg));
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn disconnected_topology_surfaces_mrc_error() {
        // Two disjoint segments: MRC cannot build any configuration, and
        // `run_workload` must surface that as a typed error rather than
        // panicking (the old `.expect("Table II twins are connected")`).
        let mut b = rtr_topology::Topology::builder();
        b.add_node(rtr_topology::Point::new(0.0, 0.0));
        b.add_node(rtr_topology::Point::new(1.0, 0.0));
        let topo = b.build().expect("two isolated nodes build fine");
        let w = Workload {
            name: "split".to_string(),
            baseline: std::sync::Arc::new(Baseline::new(topo)),
            scenarios: Vec::new(),
        };
        let cfg = ExperimentConfig::quick().with_cases(1);
        let err = run_workload(&w, &cfg).unwrap_err();
        assert_eq!(err.topology, "split");
        assert_eq!(err.error, MrcError::Disconnected);
        let msg = err.to_string();
        assert!(msg.contains("split"), "{msg}");
        // The failed build is memoized on the baseline; a second call
        // answers the same typed error.
        assert_eq!(run_workload(&w, &cfg).unwrap_err(), err);
    }

    #[test]
    fn repeat_runs_on_a_shared_baseline_match_a_fresh_one() {
        // The second call takes its comparators from the baseline's memo;
        // the results must not tell the difference.
        let topo = generate::isp_like(30, 70, 2000.0, 8).unwrap();
        for threads in [1, 2] {
            let cfg = ExperimentConfig::quick()
                .with_cases(30)
                .with_threads(threads);
            let shared = generate_workload("t", topo.clone(), &cfg, 2);
            let first = format!("{:?}", run_workload(&shared, &cfg));
            let second = format!("{:?}", run_workload(&shared, &cfg));
            let fresh = generate_workload("t", topo.clone(), &cfg, 2);
            let fresh = format!("{:?}", run_workload(&fresh, &cfg));
            assert_eq!(first, second, "{threads} threads: repeat run diverged");
            assert_eq!(first, fresh, "{threads} threads: fresh baseline diverged");
        }
    }
}
