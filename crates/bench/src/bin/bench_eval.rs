//! Records evaluation-driver wall times into `BENCH_eval.json`: per
//! Table II topology, the `run_workload` wall time on one worker versus
//! the parallel path, plus the incremental-SPT `nodes_touched` work proxy
//! (how few nodes each recovery session re-examines compared to a full
//! Dijkstra over the whole graph — the driver's allocation/work saving).
//!
//! The serial measurement is taken once per shortest-path queue kernel
//! (`serial_secs_heap` vs `serial_secs_bucket`) and the phase-1 boundary
//! sweep once per crossing-mask kernel (`sweep_secs_scalar` vs
//! `sweep_secs_batched`); `serial_secs` and `sweep_secs` always alias the
//! default kernel's column, so downstream tooling keeps one stable name
//! for "what the driver actually runs".
//!
//! Run through `cargo xtask bench-record`, which places the artifact at
//! the repository root. Timings are medians of [`RUNS`] runs; the file
//! also records the host's available parallelism so speedups on small
//! machines read honestly.
//!
//! Every `run_workload` call on a topology shares that topology's
//! `Baseline`, and the first call fills its comparator memo (MRC/eMRC
//! configurations, FEP detours). So the `serial_secs*` and
//! `parallel_secs` columns time the warm driver: only the first of the
//! [`RUNS`] `serial_secs_heap` runs pays for the build, and the median
//! drops that run.

use rtr_core::{RtrSession, SessionPool, SweepKernel};
use rtr_eval::baseline::Baseline;
use rtr_eval::json::Json;
use rtr_eval::testcase::{generate_workload_shared, sessions, Workload};
use rtr_eval::{config::ExperimentConfig, driver, par};
use rtr_routing::{Kernels, QueueKernel};
use rtr_topology::{isp, NodeId};
use std::collections::BTreeSet;
use std::time::Instant;

/// Cases per class per topology (bench scale; the paper uses 10 000).
const CASES: usize = 120;

/// Requested worker count of the parallel measurement (clamped to the
/// host's available parallelism at runtime).
const PAR_THREADS: usize = 8;

/// Timed repetitions per configuration (the median is recorded).
const RUNS: usize = 3;

fn median_secs(w: &Workload, cfg: &ExperimentConfig) -> f64 {
    let mut secs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(driver::run_workload(w, cfg)).expect("Table II twins build MRC");
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[RUNS / 2]
}

/// Median wall time of re-running every phase-1 boundary sweep of the
/// workload (one session start per unique initiator, pooled buffers as in
/// the driver) with the given crossing-mask kernel — the
/// `SweepContext::is_excluded` hot path in isolation.
fn median_sweep_secs(w: &Workload, sweep: SweepKernel) -> f64 {
    let pool = SessionPool::with_kernels(Kernels::default(), sweep);
    let mut secs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            for sc in &w.scenarios {
                let mut seen: BTreeSet<NodeId> = BTreeSet::new();
                for case in sc.recoverable.iter().chain(&sc.irrecoverable) {
                    if !seen.insert(case.initiator) {
                        continue;
                    }
                    let session = pool
                        .start_session(
                            w.topo(),
                            w.crosslinks(),
                            &sc.scenario,
                            case.initiator,
                            case.failed_link,
                        )
                        .expect("cases always have a live initiator with a failed incident link");
                    std::hint::black_box(session.phase1().trace.hops());
                }
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[RUNS / 2]
}

/// Mean incremental-SPT nodes re-examined per recovery session, mirroring
/// the driver's once-per-initiator session starts (buffer reuse and all).
fn mean_nodes_touched(w: &Workload) -> f64 {
    let pool = SessionPool::new();
    let mut total = 0usize;
    let mut started = 0usize;
    for sc in &w.scenarios {
        for (initiator, failed_link, _) in sessions(&sc.recoverable) {
            let session: &RtrSession<'_, _> = &pool
                .start_session(
                    w.topo(),
                    w.crosslinks(),
                    &sc.scenario,
                    initiator,
                    failed_link,
                )
                .expect("recoverable case: live initiator with a failed incident link");
            total += session.computer().nodes_touched();
            started += 1;
        }
    }
    if started == 0 {
        0.0
    } else {
        total as f64 / started as f64
    }
}

fn main() {
    let host = par::resolve_threads(0);
    // Oversubscribing a small host with PAR_THREADS workers measures
    // scheduler churn, not speedup; clamp to what the machine has and
    // record the clamped count so `bench-check` reads the file honestly.
    let par_threads = PAR_THREADS.min(host.max(1));
    if par_threads < PAR_THREADS {
        eprintln!(
            "[bench_eval] host parallelism {host} < {PAR_THREADS}; \
             clamping parallel measurement to {par_threads} threads"
        );
    }
    eprintln!(
        "[bench_eval] host parallelism {host}, {CASES} cases/class, \
         serial vs {par_threads} threads, median of {RUNS} runs"
    );

    let mut rows = Vec::new();
    for p in isp::TABLE2 {
        let serial_cfg = ExperimentConfig::quick().with_cases(CASES).with_threads(1);
        let w = generate_workload_shared(
            p.name,
            Baseline::for_profile(&p),
            &serial_cfg,
            serial_cfg.seed ^ u64::from(p.asn),
        );

        // One serial measurement per queue kernel; the unsuffixed column
        // aliases whatever `Kernels::default()` selects.
        let serial_heap = median_secs(
            &w,
            &serial_cfg.clone().with_kernels(Kernels {
                queue: QueueKernel::Heap,
            }),
        );
        let serial_bucket = median_secs(
            &w,
            &serial_cfg.clone().with_kernels(Kernels {
                queue: QueueKernel::Bucket,
            }),
        );
        let serial = match Kernels::default().queue {
            QueueKernel::Heap => serial_heap,
            QueueKernel::Bucket => serial_bucket,
        };
        let parallel = median_secs(&w, &serial_cfg.clone().with_threads(par_threads));

        // One boundary-sweep measurement per crossing-mask kernel.
        let sweep_scalar = median_sweep_secs(&w, SweepKernel::Scalar);
        let sweep_batched = median_sweep_secs(&w, SweepKernel::Batched);
        let sweep = match SweepKernel::default() {
            SweepKernel::Scalar => sweep_scalar,
            SweepKernel::Batched => sweep_batched,
        };

        let touched = mean_nodes_touched(&w);
        eprintln!(
            "[bench_eval] {:>8}: serial {serial:.4}s (heap {serial_heap:.4}s, bucket \
             {serial_bucket:.4}s), {par_threads} threads {parallel:.4}s (x{:.2}), sweep \
             {sweep:.4}s (scalar {sweep_scalar:.4}s, batched {sweep_batched:.4}s), \
             mean nodes touched {touched:.1}/{}",
            p.name,
            serial / parallel,
            p.nodes
        );
        let row = vec![
            ("name", Json::Str(p.name.to_string())),
            ("nodes", Json::Num(p.nodes as f64)),
            ("links", Json::Num(p.links as f64)),
            ("serial_secs", Json::Num(serial)),
            ("serial_secs_heap", Json::Num(serial_heap)),
            ("serial_secs_bucket", Json::Num(serial_bucket)),
            ("parallel_secs", Json::Num(parallel)),
            ("speedup", Json::Num(serial / parallel)),
            ("sweep_secs", Json::Num(sweep)),
            ("sweep_secs_scalar", Json::Num(sweep_scalar)),
            ("sweep_secs_batched", Json::Num(sweep_batched)),
            ("mean_nodes_touched", Json::Num(touched)),
        ];
        rows.push(Json::Obj(row));
    }

    let report = Json::Obj(vec![
        ("host_parallelism", Json::Num(host as f64)),
        ("cases_per_class", Json::Num(CASES as f64)),
        ("parallel_threads", Json::Num(par_threads as f64)),
        ("runs_per_median", Json::Num(RUNS as f64)),
        ("topologies", Json::Arr(rows)),
    ]);
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_eval.json".to_string());
    std::fs::write(&path, report.pretty()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("[bench_eval] wrote {path}");
}
