//! Microbenches of RTR's phase-1 hot path: the word-parallel
//! `SweepContext::is_excluded` membership test, one `select_next_hop`
//! sweep step, and the full boundary walk (`collect_failure_info`), each
//! run once per crossing-mask kernel (scalar and batched). These isolate
//! the bitset/crossing-mask kernels that `BENCH_eval.json`'s
//! `sweep_secs_*` columns measure end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use rtr_bench::fixture;
use rtr_core::phase1::collect_failure_info_with;
use rtr_core::sweep::{select_next_hop, SweepContext, SweepKernel};
use rtr_sim::LinkIdSet;
use std::hint::black_box;

fn kernels() -> Vec<(&'static str, SweepKernel)> {
    vec![
        ("scalar", SweepKernel::Scalar),
        ("batched", SweepKernel::Batched),
    ]
}

fn bench_sweep(c: &mut Criterion) {
    let f = fixture("AS3549", 300.0);

    // A realistically loaded exclusion header: every link the scenario
    // made unusable that crosses something, like phase 1's Constraint 1.
    let mut excluded = LinkIdSet::new();
    for l in f.topo.link_ids() {
        if !rtr_topology::GraphView::is_link_usable(&f.scenario, &f.topo, l)
            && !f.crosslinks.is_cross_free(l)
        {
            excluded.insert(l);
        }
    }

    for (name, kernel) in kernels() {
        let ctx = SweepContext::with_kernel(&f.crosslinks, &excluded, kernel);

        c.bench_function(&format!("is_excluded_AS3549_all_links_{name}"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for l in f.topo.link_ids() {
                    if ctx.is_excluded(black_box(l)) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });

        let sweep_ref = f.topo.link(f.failed_link).other_end(f.initiator);
        c.bench_function(&format!("select_next_hop_AS3549_{name}"), |b| {
            b.iter(|| {
                black_box(select_next_hop(
                    &f.topo,
                    &f.scenario,
                    black_box(f.initiator),
                    sweep_ref,
                    &ctx,
                ))
            })
        });

        c.bench_function(&format!("phase1_walk_AS3549_r300_{name}"), |b| {
            b.iter(|| {
                black_box(collect_failure_info_with(
                    &f.topo,
                    &f.crosslinks,
                    &f.scenario,
                    black_box(f.initiator),
                    f.failed_link,
                    kernel,
                ))
            })
        });
    }
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
