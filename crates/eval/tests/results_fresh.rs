//! Artifact freshness: a small, fixed slice of every experiment is rebuilt
//! through the library and compared byte for byte with the JSON committed
//! under `tests/fixtures/`. A change that moves any reported number fails
//! here instead of leaving the committed artifacts silently stale.
//!
//! The slice is `--quick --cases 40 --topos AS209,AS3549 --seed 7`. The
//! fixtures are the `--json` output of the binaries at exactly those
//! flags: `repro` (its `results/*.json` for the tables, figures,
//! ablations and matrix) plus `sensitivity`, `shapes` and `netload`. When
//! a change is meant to move results, rerun those binaries and commit the
//! new fixtures alongside the change.

use rtr_eval::cli::Options;
use rtr_eval::json::{to_string_pretty, ToJson};
use rtr_eval::{ablations, driver, fig11, matrix, netload, reports, sensitivity, shapes};

fn slice() -> Options {
    let flags = "--quick --cases 40 --topos AS209,AS3549 --seed 7";
    Options::parse(flags.split(' ').map(String::from)).expect("valid flags")
}

/// Asserts that `report` serializes exactly like `fixtures/<name>.json`.
fn assert_fresh(name: &str, report: &impl ToJson) {
    let path = format!("{}/tests/fixtures/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let fresh = to_string_pretty(report);
    if fresh != committed {
        let line = fresh
            .lines()
            .zip(committed.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!("{name}.json is stale: first difference at {line}");
    }
}

#[test]
fn driver_reports_are_fresh() {
    let o = slice();
    let results = driver::run_topologies(&o.topologies, &o.config).expect("twins build MRC");
    assert_fresh("table3", &reports::table3(&results));
    assert_fresh("table4", &reports::table4(&results));
    assert_fresh("fig7", &reports::fig7(&results));
    assert_fresh("fig8", &reports::fig8(&results));
    assert_fresh("fig9", &reports::fig9(&results));
    assert_fresh("fig10", &reports::fig10(&results));
    assert_fresh("fig12", &reports::fig12(&results));
    assert_fresh("fig13", &reports::fig13(&results));
}

#[test]
fn fig11_is_fresh() {
    let o = slice();
    assert_fresh("fig11", &fig11::fig11(&o.topologies, &o.config));
}

#[test]
fn ablations_are_fresh() {
    let o = slice();
    assert_fresh(
        "ablation_thoroughness",
        &ablations::thoroughness_report(&o.topologies, &o.config),
    );
    assert_fresh(
        "ablation_embedding",
        &ablations::embedding_report(&o.topologies, &o.config),
    );
}

#[test]
fn extensions_are_fresh() {
    let o = slice();
    assert_fresh(
        "sensitivity",
        &sensitivity::sensitivity(&o.topologies, &o.config),
    );
    assert_fresh("shapes", &shapes::shapes(&o.topologies, &o.config));
    assert_fresh("netload", &netload::netload(&o.topologies, &o.config));
}

#[test]
fn matrix_is_fresh() {
    let o = slice();
    let report = matrix::matrix(&o.topologies, &o.config).expect("twins build MRC");
    assert_fresh("matrix", &report);
}
