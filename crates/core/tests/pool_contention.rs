//! Concurrent `SessionPool` use is outcome-identical to a serial run.
//!
//! One pool per thread (the pool's freelists are deliberately
//! single-threaded — `rtr-serve` gives each worker its own), with the
//! session stream sharded across threads. Every checkout / recover /
//! return cycles buffers through the freelists, so a recycled scratch
//! polluted by a previous session on the *same* thread, or any shared
//! hidden state across threads, would change an outcome. The transcript
//! of every attempt must match the single-pool serial driver byte for
//! byte.

use rtr_core::SessionPool;
use rtr_topology::{
    generate, CrossLinkTable, FailureScenario, GraphView, LinkId, NodeId, Region, Topology,
};

/// One RTR session to run: initiator, its failed default link, and the
/// destinations to recover, mirroring the eval driver's per-initiator
/// session layout.
struct Spec {
    scenario: usize,
    initiator: NodeId,
    failed_link: LinkId,
    dests: Vec<NodeId>,
}

fn scenarios(topo: &Topology) -> Vec<FailureScenario> {
    [
        Region::circle((50.0, 50.0), 60.0),
        Region::circle((250.0, 250.0), 90.0),
        Region::circle((120.0, 300.0), 75.0),
        Region::circle((400.0, 80.0), 110.0),
    ]
    .iter()
    .map(|r| FailureScenario::from_region(topo, r))
    .collect()
}

/// Every live initiator with both a failed and a live incident link,
/// recovering toward every node it lost a route to — the same
/// admission rule the eval workload generator applies.
fn specs(topo: &Topology, scenarios: &[FailureScenario]) -> Vec<Spec> {
    let mut out = Vec::new();
    for (si, sc) in scenarios.iter().enumerate() {
        for u in topo.node_ids() {
            if sc.is_node_failed(u) {
                continue;
            }
            let mut failed = None;
            let mut live = false;
            for &(_, link) in topo.neighbors(u) {
                if sc.is_link_usable(topo, link) {
                    live = true;
                } else if failed.is_none() {
                    failed = Some(link);
                }
            }
            let (Some(failed_link), true) = (failed, live) else {
                continue;
            };
            let dests: Vec<NodeId> = topo
                .node_ids()
                .filter(|&d| d != u && !sc.is_node_failed(d))
                .collect();
            out.push(Spec {
                scenario: si,
                initiator: u,
                failed_link,
                dests,
            });
        }
    }
    out
}

/// Runs one spec on `pool` and renders the full attempt transcript —
/// outcome, path cost, and path nodes per destination — as the byte
/// string the comparison is over.
fn transcript(
    pool: &SessionPool,
    topo: &Topology,
    xl: &CrossLinkTable,
    scenarios: &[FailureScenario],
    spec: &Spec,
) -> String {
    let Some(view) = scenarios.get(spec.scenario) else {
        return format!("no scenario {}", spec.scenario);
    };
    let session = pool.start_session(topo, xl, view, spec.initiator, spec.failed_link);
    let mut session = match session {
        Ok(s) => s,
        Err(e) => return format!("phase1-err {e:?}"),
    };
    let mut out = String::new();
    for &dest in &spec.dests {
        let attempt = session.recover(dest);
        out.push_str(&format!(
            "{}:{:?}:{:?};",
            dest.0,
            attempt.outcome,
            attempt
                .path
                .as_ref()
                .map(|p| (p.cost(), p.nodes().to_vec()))
        ));
    }
    out
}

#[test]
fn sharded_pools_match_the_serial_driver() {
    let topo = generate::grid(6, 6, 100.0);
    let xl = CrossLinkTable::new(&topo);
    let scenarios = scenarios(&topo);
    let specs = specs(&topo, &scenarios);
    assert!(
        specs.len() >= 20,
        "grid produced only {} specs",
        specs.len()
    );

    // Serial oracle: one pool, in order — the eval driver's shape.
    let serial_pool = SessionPool::new();
    let serial: Vec<String> = specs
        .iter()
        .map(|s| transcript(&serial_pool, &topo, &xl, &scenarios, s))
        .collect();

    // Concurrent: N threads, each with its own pool, strided sharding
    // so every thread sees sessions from interleaved scenarios and its
    // freelist recycles scratch buffers across unrelated sessions.
    for threads in [2usize, 5] {
        let mut concurrent: Vec<Option<String>> = vec![None; specs.len()];
        let shards = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let specs = &specs;
                    let topo = &topo;
                    let xl = &xl;
                    let scenarios = &scenarios;
                    scope.spawn(move || {
                        let pool = SessionPool::new();
                        specs
                            .iter()
                            .enumerate()
                            .skip(t)
                            .step_by(threads)
                            .map(|(i, s)| (i, transcript(&pool, topo, xl, scenarios, s)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        });
        for shard in shards {
            for (i, text) in shard {
                concurrent[i] = Some(text);
            }
        }
        for (i, (expected, got)) in serial.iter().zip(concurrent.iter()).enumerate() {
            assert_eq!(
                Some(expected),
                got.as_ref(),
                "spec {i} diverged under {threads} threads"
            );
        }
    }
}
