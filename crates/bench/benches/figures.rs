//! One benchmark per paper table/figure: times the regeneration pipeline at
//! a reduced scale (the full-scale binaries live in `rtr-eval`; see
//! `cargo run --release -p rtr-eval --bin repro -- --paper`).

use criterion::{criterion_group, criterion_main, Criterion};
use rtr_eval::{config::ExperimentConfig, driver, fig11, reports};
use std::hint::black_box;

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig::quick().with_cases(60)
}

fn tiny_results() -> Vec<driver::TopologyResults> {
    let as1239 = rtr_topology::isp::profile("AS1239").expect("AS1239 is in Table II");
    driver::run_topologies(&[as1239], &tiny_cfg()).expect("AS1239 builds MRC")
}

fn bench_workload(c: &mut Criterion) {
    c.bench_function("table3_fig7_10_pipeline_AS1239_60cases", |b| {
        b.iter(|| black_box(tiny_results()))
    });
}

fn bench_reports(c: &mut Criterion) {
    let results = tiny_results();
    let mut g = c.benchmark_group("report_builders");
    g.bench_function("table2", |b| b.iter(|| black_box(reports::table2())));
    g.bench_function("fig7", |b| b.iter(|| black_box(reports::fig7(&results))));
    g.bench_function("table3", |b| {
        b.iter(|| black_box(reports::table3(&results)))
    });
    g.bench_function("fig8", |b| b.iter(|| black_box(reports::fig8(&results))));
    g.bench_function("fig9", |b| b.iter(|| black_box(reports::fig9(&results))));
    g.bench_function("fig10", |b| b.iter(|| black_box(reports::fig10(&results))));
    g.bench_function("fig12", |b| b.iter(|| black_box(reports::fig12(&results))));
    g.bench_function("fig13", |b| b.iter(|| black_box(reports::fig13(&results))));
    g.bench_function("table4", |b| {
        b.iter(|| black_box(reports::table4(&results)))
    });
    g.bench_function("headline", |b| {
        b.iter(|| black_box(reports::headline(&results)))
    });
    g.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let cfg = ExperimentConfig {
        fig11_areas_per_radius: 20,
        ..ExperimentConfig::default()
    };
    c.bench_function("fig11_sweep_AS1239_20areas", |b| {
        let base = rtr_eval::baseline::Baseline::for_profile(
            &rtr_topology::isp::profile("AS1239").unwrap(),
        );
        b.iter(|| black_box(fig11::sweep_topology(&base, &cfg, 1)))
    });
}

criterion_group!(benches, bench_workload, bench_reports, bench_fig11);
criterion_main!(benches);
