//! Benches the evaluation driver itself: the zero-allocation per-case hot
//! loop on one worker versus the scenario-parallel path. At one worker
//! `run_workload` is exactly the pre-executor serial driver, so the pair
//! tracks both the kernel optimisations and the fork-join overhead.
//!
//! Both benches time the warm driver: the workload's `Baseline` builds
//! its comparator backends on the first call (criterion's warm-up) and
//! every timed iteration reuses them.

use criterion::{criterion_group, criterion_main, Criterion};
use rtr_eval::testcase::generate_workload;
use rtr_eval::{config::ExperimentConfig, driver};
use rtr_topology::isp;
use std::hint::black_box;

fn bench_driver(c: &mut Criterion) {
    let serial_cfg = ExperimentConfig::quick().with_cases(40).with_threads(1);
    let profile = isp::profile("AS1239").expect("AS1239 is in Table II");
    let w = generate_workload(
        profile.name,
        profile.synthesize(),
        &serial_cfg,
        serial_cfg.seed ^ u64::from(profile.asn),
    );

    c.bench_function("run_workload_AS1239_40cases_serial", |b| {
        b.iter(|| black_box(driver::run_workload(&w, &serial_cfg)))
    });

    let auto_cfg = serial_cfg.clone().with_threads(0);
    c.bench_function("run_workload_AS1239_40cases_auto_threads", |b| {
        b.iter(|| black_box(driver::run_workload(&w, &auto_cfg)))
    });
}

criterion_group!(benches, bench_driver);
criterion_main!(benches);
