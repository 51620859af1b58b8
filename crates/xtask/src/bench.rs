//! `cargo xtask bench-record` / `bench-check` / `bench-scale` /
//! `bench-churn`: regenerate and validate the committed
//! `BENCH_eval.json`, `BENCH_scale.json`, and `BENCH_churn.json`.

use crate::json::{json_parse, JsonValue};
use std::fs;
use std::path::Path;

/// Schema tag the scale recorder writes and the checker requires.
pub const SCALE_SCHEMA: &str = "bench-scale-v1";

/// Minimum sweep points a full (non-smoke) `BENCH_scale.json` must carry
/// (every generator × size combination the recorder doesn't skip).
pub const SCALE_MIN_POINTS: usize = 12;

/// A full sweep must reach at least this many nodes (the 100k tier, with
/// slack for generators whose construction rounds the node count).
pub const SCALE_MIN_MAX_NODES: f64 = 90_000.0;

/// Hard ceiling on any recorded grid-indexed cross-link build: the whole
/// point of the spatial index is that even the 100k-node tier builds in
/// seconds, not the hours the all-pairs scan would take.
pub const SCALE_MAX_CROSSLINK_SECS: f64 = 120.0;

/// Schema tag the churn recorder writes and the checker requires in
/// `BENCH_churn.json`.
pub const CHURN_SCHEMA: &str = "bench-churn-v1";

/// Minimum timeline workloads a full (non-smoke) `BENCH_churn.json`
/// must carry (the recorder sweeps two churn twins plus a moving front).
pub const CHURN_MIN_POINTS: usize = 2;

/// One topology row of `BENCH_eval.json`, as `bench-check` reads it.
#[derive(Debug)]
pub struct BenchRow {
    /// Topology name (e.g. `AS3549`).
    pub name: String,
    /// Quick-workload serial wall time.
    pub serial_secs: f64,
    /// Phase-1 sweep wall time.
    pub sweep_secs: f64,
    /// Recorded serial/parallel speedup, when present.
    pub speedup: Option<f64>,
}

/// The parts of `BENCH_eval.json` that `bench-check` validates.
#[derive(Debug)]
pub struct BenchFile {
    /// `std::thread::available_parallelism()` on the recording host.
    pub host_parallelism: Option<f64>,
    /// Thread count the parallel measurement ran with.
    pub parallel_threads: Option<f64>,
    /// Per-topology rows.
    pub rows: Vec<BenchRow>,
}

/// Reads `path` and extracts the per-topology rows, failing if the file
/// does not parse as JSON or any row lacks a numeric `serial_secs` or
/// `sweep_secs` field (the recorder's schema).
///
/// # Errors
///
/// Reports the missing field or parse error with the file's path.
pub fn parse_bench_file(path: &Path) -> Result<BenchFile, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json_parse(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    let topologies = doc
        .get("topologies")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{}: missing `topologies` array", path.display()))?;
    if topologies.is_empty() {
        return Err(format!("{}: `topologies` is empty", path.display()));
    }
    let mut rows = Vec::new();
    for (i, row) in topologies.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{}: row {i} has no string `name`", path.display()))?
            .to_owned();
        let serial_secs = row
            .get("serial_secs")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| {
                format!(
                    "{}: row `{name}` has no numeric `serial_secs`",
                    path.display()
                )
            })?;
        let sweep_secs = row
            .get("sweep_secs")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| {
                format!(
                    "{}: row `{name}` has no numeric `sweep_secs`",
                    path.display()
                )
            })?;
        let speedup = row.get("speedup").and_then(JsonValue::as_f64);
        rows.push(BenchRow {
            name,
            serial_secs,
            sweep_secs,
            speedup,
        });
    }
    Ok(BenchFile {
        host_parallelism: doc.get("host_parallelism").and_then(JsonValue::as_f64),
        parallel_threads: doc.get("parallel_threads").and_then(JsonValue::as_f64),
        rows,
    })
}

/// One sweep point of `BENCH_scale.json`, as the checker reads it.
#[derive(Debug)]
pub struct ScalePoint {
    /// Generator name (e.g. `waxman`).
    pub generator: String,
    /// Node count of the point.
    pub nodes: f64,
    /// Link count of the point.
    pub links: f64,
    /// Grid-indexed cross-link table build wall time.
    pub crosslink_secs: f64,
}

/// Reads a `BENCH_scale.json` and validates its schema: the
/// [`SCALE_SCHEMA`] tag, a non-empty `points` array, and per point a
/// string `generator` plus numeric `nodes`, `links`, `build_secs`,
/// `crosslink_secs`, `sweep_secs`, `recover_secs`, and `peak_rss_mb`.
/// With `require_full`, additionally enforces the full-sweep floor:
/// at least [`SCALE_MIN_POINTS`] points, a maximum node count of at
/// least [`SCALE_MIN_MAX_NODES`], and every `crosslink_secs` under
/// [`SCALE_MAX_CROSSLINK_SECS`].
///
/// # Errors
///
/// Reports the first missing field, schema mismatch, or floor violation
/// with the file's path.
pub fn parse_scale_file(path: &Path, require_full: bool) -> Result<Vec<ScalePoint>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json_parse(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    if schema != Some(SCALE_SCHEMA) {
        return Err(format!(
            "{}: schema {schema:?} is not {SCALE_SCHEMA:?}",
            path.display()
        ));
    }
    let raw = doc
        .get("points")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{}: missing `points` array", path.display()))?;
    if raw.is_empty() {
        return Err(format!("{}: `points` is empty", path.display()));
    }
    let mut points = Vec::new();
    for (i, p) in raw.iter().enumerate() {
        let generator = p
            .get("generator")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{}: point {i} has no string `generator`", path.display()))?
            .to_owned();
        let num = |field: &str| {
            p.get(field).and_then(JsonValue::as_f64).ok_or_else(|| {
                format!(
                    "{}: point {i} (`{generator}`) has no numeric `{field}`",
                    path.display()
                )
            })
        };
        // Fields not carried in `ScalePoint` are still schema-required.
        for field in ["build_secs", "sweep_secs", "recover_secs", "peak_rss_mb"] {
            num(field)?;
        }
        points.push(ScalePoint {
            nodes: num("nodes")?,
            links: num("links")?,
            crosslink_secs: num("crosslink_secs")?,
            generator,
        });
    }
    if require_full {
        if points.len() < SCALE_MIN_POINTS {
            return Err(format!(
                "{}: full sweep has {} points, need at least {SCALE_MIN_POINTS}",
                path.display(),
                points.len()
            ));
        }
        let max_nodes = points.iter().map(|p| p.nodes).fold(0.0, f64::max);
        if max_nodes < SCALE_MIN_MAX_NODES {
            return Err(format!(
                "{}: full sweep tops out at {max_nodes:.0} nodes, need at least \
                 {SCALE_MIN_MAX_NODES:.0}",
                path.display()
            ));
        }
        for p in &points {
            if p.crosslink_secs > SCALE_MAX_CROSSLINK_SECS {
                return Err(format!(
                    "{}: `{}` at {:.0} nodes took {:.1}s to build its cross-link \
                     table (ceiling {SCALE_MAX_CROSSLINK_SECS:.0}s) — the spatial \
                     index is not doing its job",
                    path.display(),
                    p.generator,
                    p.nodes,
                    p.crosslink_secs
                ));
            }
        }
    }
    Ok(points)
}

/// One timeline workload of `BENCH_churn.json`, as the checker reads it.
#[derive(Debug)]
pub struct ChurnPoint {
    /// Workload name (e.g. `AS1239-churn`).
    pub name: String,
    /// Timeline length in events.
    pub events: f64,
    /// Median per-event wall time of the incremental baseline patch.
    pub incremental_median_secs: f64,
    /// Median per-event wall time of the from-scratch rebuild oracle.
    pub rebuild_median_secs: f64,
}

/// Reads a `BENCH_churn.json` and validates its schema: the
/// [`CHURN_SCHEMA`] tag, a non-empty `points` array, per point the key
/// set the recorder writes, `oracle_checked` set on every point (the
/// recorder refuses to record an unverified patch), and — the headline
/// gate — *incremental median ≤ rebuild median* per workload: if patching
/// the believed state in place is not cheaper than recomputing it, the
/// incremental machinery has regressed. With `require_full`, additionally
/// requires at least [`CHURN_MIN_POINTS`] workloads.
///
/// # Errors
///
/// Reports the first missing field, schema mismatch, unverified point, or
/// median inversion with the file's path.
pub fn parse_churn_file(path: &Path, require_full: bool) -> Result<Vec<ChurnPoint>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json_parse(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    if schema != Some(CHURN_SCHEMA) {
        return Err(format!(
            "{}: schema {schema:?} is not {CHURN_SCHEMA:?}",
            path.display()
        ));
    }
    let raw = doc
        .get("points")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{}: missing `points` array", path.display()))?;
    if raw.is_empty() {
        return Err(format!("{}: `points` is empty", path.display()));
    }
    let mut points = Vec::new();
    for (i, p) in raw.iter().enumerate() {
        let name = p
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{}: point {i} has no string `name`", path.display()))?
            .to_owned();
        let num = |field: &str| {
            p.get(field).and_then(JsonValue::as_f64).ok_or_else(|| {
                format!(
                    "{}: point {i} (`{name}`) has no numeric `{field}`",
                    path.display()
                )
            })
        };
        for field in ["nodes", "links", "labels_touched_total"] {
            num(field)?;
        }
        if num("oracle_checked")? < 1.0 {
            return Err(format!(
                "{}: `{name}` was recorded without the rebuild oracle check",
                path.display()
            ));
        }
        let point = ChurnPoint {
            events: num("events")?,
            incremental_median_secs: num("incremental_median_secs")?,
            rebuild_median_secs: num("rebuild_median_secs")?,
            name,
        };
        if point.incremental_median_secs > point.rebuild_median_secs {
            return Err(format!(
                "{}: `{}` patches slower than it rebuilds (incremental median \
                 {:.6}s > rebuild median {:.6}s) — the incremental baseline \
                 machinery has regressed",
                path.display(),
                point.name,
                point.incremental_median_secs,
                point.rebuild_median_secs
            ));
        }
        points.push(point);
    }
    if require_full && points.len() < CHURN_MIN_POINTS {
        return Err(format!(
            "{}: full run has {} workloads, need at least {CHURN_MIN_POINTS}",
            path.display(),
            points.len()
        ));
    }
    Ok(points)
}

/// Regenerates `BENCH_churn.json` at the workspace root (or, with
/// `smoke`, a small-grid artifact under `target/bench-churn/`) and
/// validates what was written.
///
/// # Errors
///
/// Reports a recorder failure or a validation error on the fresh file.
pub fn run_bench_churn(root: &Path, smoke: bool) -> Result<(), String> {
    let out = if smoke {
        let dir = root.join("target").join("bench-churn");
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        dir.join("BENCH_churn.smoke.json")
    } else {
        root.join("BENCH_churn.json")
    };
    let mut cmd = std::process::Command::new("cargo");
    cmd.args([
        "run",
        "--release",
        "-p",
        "rtr-bench",
        "--bin",
        "bench_churn",
        "--",
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .arg(&out)
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot launch cargo: {e}"))?;
    if !status.success() {
        return Err(format!("bench_churn exited with {status}"));
    }
    let points = parse_churn_file(&out, !smoke)?;
    println!(
        "cargo xtask bench-churn: wrote {} ({} workloads{})",
        out.display(),
        points.len(),
        if smoke { ", smoke" } else { "" }
    );
    Ok(())
}

/// Scenario classes a committed `results/matrix.json` must cover, in the
/// evaluation's canonical order.
pub const MATRIX_CLASSES: [&str; 4] = [
    "single-link",
    "sparse-multi-link",
    "correlated-area",
    "multi-area",
];

/// Schemes every class row of a committed matrix must report, in
/// `SchemeId` order.
pub const MATRIX_SCHEMES: [&str; 5] = ["RTR", "FCP", "MRC", "eMRC", "FEP"];

/// Reads a `results/matrix.json` (Extension M) and validates its schema:
/// a `classes` array covering exactly [`MATRIX_CLASSES`] in order, each
/// row carrying a positive numeric `cases` and one entry per
/// [`MATRIX_SCHEMES`] member with a finite `delivery_pct` and
/// `optimal_pct` in `0..=100` (`mean_stretch` may be `null` — a scheme
/// that never delivered has no stretch). Returns `(classes, schemes)`
/// counts.
///
/// # Errors
///
/// Reports the first missing field, out-of-range value, or class/scheme
/// mismatch with the file's path.
pub fn parse_matrix_file(path: &Path) -> Result<(usize, usize), String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json_parse(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    let classes = doc
        .get("classes")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{}: missing `classes` array", path.display()))?;
    if classes.len() != MATRIX_CLASSES.len() {
        return Err(format!(
            "{}: {} classes, expected the {} of {MATRIX_CLASSES:?}",
            path.display(),
            classes.len(),
            MATRIX_CLASSES.len()
        ));
    }
    for (row, expected_class) in classes.iter().zip(MATRIX_CLASSES) {
        let class = row.get("class").and_then(JsonValue::as_str).unwrap_or("");
        if class != expected_class {
            return Err(format!(
                "{}: class `{class}` where `{expected_class}` was expected",
                path.display()
            ));
        }
        let cases = row.get("cases").and_then(JsonValue::as_f64).unwrap_or(0.0);
        if cases < 1.0 {
            return Err(format!(
                "{}: class `{class}` aggregates no cases",
                path.display()
            ));
        }
        let schemes = row
            .get("schemes")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{}: class `{class}` has no `schemes`", path.display()))?;
        if schemes.len() != MATRIX_SCHEMES.len() {
            return Err(format!(
                "{}: class `{class}` reports {} schemes, expected the {} of {MATRIX_SCHEMES:?}",
                path.display(),
                schemes.len(),
                MATRIX_SCHEMES.len()
            ));
        }
        for (cell, expected_scheme) in schemes.iter().zip(MATRIX_SCHEMES) {
            let scheme = cell.get("scheme").and_then(JsonValue::as_str).unwrap_or("");
            if scheme != expected_scheme {
                return Err(format!(
                    "{}: class `{class}` lists scheme `{scheme}` where \
                     `{expected_scheme}` was expected",
                    path.display()
                ));
            }
            for field in ["delivery_pct", "optimal_pct"] {
                let v = cell.get(field).and_then(JsonValue::as_f64);
                match v {
                    Some(v) if (0.0..=100.0).contains(&v) => {}
                    _ => {
                        return Err(format!(
                            "{}: class `{class}`, scheme `{scheme}`: `{field}` \
                             {v:?} is not a percentage",
                            path.display()
                        ))
                    }
                }
            }
        }
    }
    Ok((MATRIX_CLASSES.len(), MATRIX_SCHEMES.len()))
}

/// Validates the recorded speedups: a sub-1.0 speedup is a hard failure
/// on a host with at least as many cores as the measurement used, but
/// only a warning on an undersized recorder (oversubscribed threads slow
/// each other down; the number says nothing about the algorithm). Returns
/// the warnings to print.
///
/// # Errors
///
/// Fails on the first sub-1.0 speedup recorded on an adequately-sized
/// host.
pub fn check_speedups(file: &BenchFile) -> Result<Vec<String>, String> {
    let (Some(host), Some(threads)) = (file.host_parallelism, file.parallel_threads) else {
        return Ok(Vec::new()); // pre-speedup schema: nothing to check
    };
    let undersized = host < threads;
    let mut warnings = Vec::new();
    for row in &file.rows {
        let Some(speedup) = row.speedup else { continue };
        if speedup >= 1.0 {
            continue;
        }
        if undersized {
            warnings.push(format!(
                "warning: `{}` records speedup {speedup:.3} < 1.0, but the recording \
                 host is undersized (host_parallelism {host:.0} < parallel_threads \
                 {threads:.0}) — oversubscription artifact, not gated; re-record on \
                 a host with >= {threads:.0} cores for a meaningful number",
                row.name
            ));
        } else {
            return Err(format!(
                "parallel regression on `{}`: recorded speedup {speedup:.3} < 1.0 on an \
                 adequately-sized host (host_parallelism {host:.0} >= parallel_threads \
                 {threads:.0}) — investigate before re-recording",
                row.name
            ));
        }
    }
    Ok(warnings)
}

/// Runs the `bench_eval` recorder and leaves `BENCH_eval.json` at the
/// workspace root.
///
/// # Errors
///
/// Fails when the recorder cannot be launched or exits non-zero.
pub fn run_bench_record(root: &Path) -> Result<(), String> {
    let out = root.join("BENCH_eval.json");
    let status = std::process::Command::new("cargo")
        .args(["run", "--release", "-p", "rtr-bench", "--bin", "bench_eval"])
        .arg("--")
        .arg(&out)
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot launch cargo: {e}"))?;
    if !status.success() {
        return Err(format!("bench_eval exited with {status}"));
    }
    println!("cargo xtask bench-record: wrote {}", out.display());
    Ok(())
}

/// Runs the `bench_scale` recorder. A full run leaves `BENCH_scale.json`
/// at the workspace root and enforces the full-sweep floor; `--smoke`
/// (the CI scale-smoke job) sweeps only the 1k tier into
/// `target/bench-scale/` and checks schema only.
///
/// # Errors
///
/// Fails when the recorder cannot be launched, exits non-zero, or writes
/// a file that does not validate.
pub fn run_bench_scale(root: &Path, smoke: bool) -> Result<(), String> {
    let out = if smoke {
        let dir = root.join("target").join("bench-scale");
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        dir.join("BENCH_scale.smoke.json")
    } else {
        root.join("BENCH_scale.json")
    };
    let mut cmd = std::process::Command::new("cargo");
    cmd.args([
        "run",
        "--release",
        "-p",
        "rtr-bench",
        "--bin",
        "bench_scale",
        "--",
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .arg(&out)
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot launch cargo: {e}"))?;
    if !status.success() {
        return Err(format!("bench_scale exited with {status}"));
    }
    let points = parse_scale_file(&out, !smoke)?;
    println!(
        "cargo xtask bench-scale: wrote {} ({} points{})",
        out.display(),
        points.len(),
        if smoke { ", smoke" } else { "" }
    );
    Ok(())
}

/// Validates the committed `BENCH_eval.json` and guards against gross
/// performance regressions: records a fresh file under `target/`, then
/// fails if the fresh quick-workload serial total exceeds 2× the
/// committed total, or if any single topology's phase-1 sweep time
/// exceeds 2× its committed `sweep_secs` plus 1 ms of absolute slack
/// (the per-topology sweep is sub-millisecond on small graphs, so the
/// floor keeps timer noise from tripping the ratio). Coarse gates that
/// survive CI-machine noise while catching algorithmic regressions.
/// Recorded speedups are additionally validated via [`check_speedups`],
/// and the committed `BENCH_scale.json` / `BENCH_churn.json` /
/// `results/matrix.json` artifacts are schema-validated (the matrix
/// through [`parse_matrix_file`]).
///
/// # Errors
///
/// Fails on parse errors, missing topologies, regression-gate trips, and
/// sub-1.0 speedups recorded on adequately-sized hosts.
pub fn run_bench_check(root: &Path) -> Result<(), String> {
    let committed_file = parse_bench_file(&root.join("BENCH_eval.json"))?;
    for warning in check_speedups(&committed_file)? {
        println!("cargo xtask bench-check: {warning}");
    }
    let committed = &committed_file.rows;

    let fresh_dir = root.join("target").join("bench-check");
    fs::create_dir_all(&fresh_dir)
        .map_err(|e| format!("cannot create {}: {e}", fresh_dir.display()))?;
    let fresh_path = fresh_dir.join("BENCH_eval.fresh.json");
    let status = std::process::Command::new("cargo")
        .args(["run", "--release", "-p", "rtr-bench", "--bin", "bench_eval"])
        .arg("--")
        .arg(&fresh_path)
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot launch cargo: {e}"))?;
    if !status.success() {
        return Err(format!("bench_eval exited with {status}"));
    }
    let fresh = parse_bench_file(&fresh_path)?.rows;

    for c in committed {
        let Some(f) = fresh.iter().find(|f| f.name == c.name) else {
            return Err(format!(
                "fresh run is missing committed topology `{}`",
                c.name
            ));
        };
        if f.sweep_secs > 2.0 * c.sweep_secs + 0.001 {
            return Err(format!(
                "phase-1 sweep regression on `{}`: fresh sweep_secs {:.6}s > \
                 2x committed {:.6}s + 1ms — investigate before re-recording \
                 with `cargo xtask bench-record`",
                c.name, f.sweep_secs, c.sweep_secs
            ));
        }
    }
    let committed_total: f64 = committed.iter().map(|r| r.serial_secs).sum();
    let fresh_total: f64 = fresh.iter().map(|r| r.serial_secs).sum();
    if fresh_total > 2.0 * committed_total {
        return Err(format!(
            "quick-workload serial regression: fresh total {fresh_total:.4}s > \
             2x committed total {committed_total:.4}s — investigate before \
             re-recording with `cargo xtask bench-record`"
        ));
    }
    println!(
        "cargo xtask bench-check: OK — {} topologies, fresh serial total \
         {fresh_total:.4}s vs committed {committed_total:.4}s (gates: 2x \
         total, 2x+1ms per-topology sweep)",
        committed.len()
    );

    // The committed scale sweep is validated schema-only (no fresh run:
    // the 100k tier is minutes of work, not a CI-check budget).
    let scale_points = parse_scale_file(&root.join("BENCH_scale.json"), true)?;
    println!(
        "cargo xtask bench-check: OK — BENCH_scale.json carries {} full-sweep points",
        scale_points.len()
    );

    // The committed churn sweep is validated schema-plus-invariants (no
    // fresh run — the churn-smoke CI job replays a live oracle-checked
    // timeline instead): every point oracle-verified, incremental median
    // at or below rebuild median.
    let churn_points = parse_churn_file(&root.join("BENCH_churn.json"), true)?;
    println!(
        "cargo xtask bench-check: OK — BENCH_churn.json carries {} oracle-checked \
         timeline workloads (incremental median <= rebuild median on each)",
        churn_points.len()
    );

    // The committed scenario-class matrix (Extension M) is schema-gated
    // the same way: the full run is a repro-budget job, not a CI one.
    let (mclasses, mschemes) = parse_matrix_file(&root.join("results").join("matrix.json"))?;
    println!(
        "cargo xtask bench-check: OK — results/matrix.json carries the \
         {mclasses}×{mschemes} class × scheme matrix"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_file(host: f64, threads: f64, speedups: &[f64]) -> BenchFile {
        BenchFile {
            host_parallelism: Some(host),
            parallel_threads: Some(threads),
            rows: speedups
                .iter()
                .enumerate()
                .map(|(i, &s)| BenchRow {
                    name: format!("T{i}"),
                    serial_secs: 1.0,
                    sweep_secs: 0.001,
                    speedup: Some(s),
                })
                .collect(),
        }
    }

    #[test]
    fn undersized_host_warns_instead_of_gating() {
        let f = bench_file(1.0, 8.0, &[0.74, 0.93, 1.2]);
        let warnings = check_speedups(&f).expect("undersized host must not gate");
        assert_eq!(warnings.len(), 2, "got: {warnings:?}");
        assert!(warnings.iter().all(|w| w.contains("undersized")));
    }

    #[test]
    fn adequately_sized_host_gates_on_sub_unity_speedup() {
        let f = bench_file(8.0, 8.0, &[1.5, 0.9]);
        let err = check_speedups(&f).expect_err("regression must gate");
        assert!(err.contains("T1"), "got: {err}");
        assert!(check_speedups(&bench_file(16.0, 8.0, &[1.5, 3.2])).is_ok());
    }

    #[test]
    fn pre_speedup_schema_passes() {
        let f = BenchFile {
            host_parallelism: None,
            parallel_threads: None,
            rows: Vec::new(),
        };
        assert!(check_speedups(&f).unwrap().is_empty());
    }

    fn scale_json(n_points: usize, max_nodes: f64, crosslink_secs: f64) -> String {
        let points: Vec<String> = (0..n_points)
            .map(|i| {
                let nodes = if i == 0 { max_nodes } else { 1000.0 };
                format!(
                    "{{\"generator\": \"waxman\", \"nodes\": {nodes}, \"links\": {}, \
                     \"build_secs\": 0.1, \"crosslink_secs\": {crosslink_secs}, \
                     \"sweep_secs\": 0.01, \"recover_secs\": 0.01, \"peak_rss_mb\": 100}}",
                    nodes * 2.0
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{SCALE_SCHEMA}\", \"points\": [{}]}}",
            points.join(",")
        )
    }

    fn write_scale(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xtask-bench-scale-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        fs::write(&p, text).unwrap();
        p
    }

    #[test]
    fn parse_scale_file_accepts_a_full_sweep() {
        let p = write_scale("full.json", &scale_json(SCALE_MIN_POINTS, 100_000.0, 3.0));
        let points = parse_scale_file(&p, true).unwrap();
        assert_eq!(points.len(), SCALE_MIN_POINTS);
        assert_eq!(points[0].generator, "waxman");
        assert_eq!(points[0].nodes, 100_000.0);
    }

    #[test]
    fn parse_scale_file_enforces_the_full_sweep_floor() {
        let few = write_scale("few.json", &scale_json(3, 100_000.0, 3.0));
        assert!(parse_scale_file(&few, true).unwrap_err().contains("points"));
        // The same file passes as a smoke (schema-only) artifact.
        assert_eq!(parse_scale_file(&few, false).unwrap().len(), 3);

        let small = write_scale("small.json", &scale_json(SCALE_MIN_POINTS, 10_000.0, 3.0));
        assert!(parse_scale_file(&small, true)
            .unwrap_err()
            .contains("tops out"));

        let slow = write_scale("slow.json", &scale_json(SCALE_MIN_POINTS, 100_000.0, 500.0));
        assert!(parse_scale_file(&slow, true)
            .unwrap_err()
            .contains("spatial index"));
    }

    #[test]
    fn parse_scale_file_rejects_schema_drift() {
        let bad_tag = write_scale(
            "tag.json",
            "{\"schema\": \"bench-scale-v0\", \"points\": [{}]}",
        );
        assert!(parse_scale_file(&bad_tag, false)
            .unwrap_err()
            .contains("schema"));

        let missing_field = write_scale(
            "field.json",
            &format!(
                "{{\"schema\": \"{SCALE_SCHEMA}\", \"points\": [\
                 {{\"generator\": \"waxman\", \"nodes\": 1000}}]}}"
            ),
        );
        let err = parse_scale_file(&missing_field, false).unwrap_err();
        assert!(err.contains("build_secs"), "got: {err}");
    }

    /// A well-formed churn document with `n_points` identical workloads.
    fn churn_json(n_points: usize, inc_median: f64, reb_median: f64, oracle: f64) -> String {
        let points: Vec<String> = (0..n_points)
            .map(|i| {
                format!(
                    "{{\"name\": \"w{i}-churn\", \"nodes\": 52, \"links\": 84, \
                     \"events\": 10, \"incremental_median_secs\": {inc_median}, \
                     \"rebuild_median_secs\": {reb_median}, \
                     \"labels_touched_total\": 6610, \"oracle_checked\": {oracle}}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{CHURN_SCHEMA}\", \"points\": [{}]}}",
            points.join(",")
        )
    }

    fn write_churn(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xtask-bench-churn-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        fs::write(&p, text).unwrap();
        p
    }

    #[test]
    fn parse_churn_file_accepts_a_full_run() {
        let p = write_churn("full.json", &churn_json(3, 0.0001, 0.0009, 1.0));
        let points = parse_churn_file(&p, true).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].name, "w0-churn");
        assert_eq!(points[0].events, 10.0);
    }

    #[test]
    fn parse_churn_file_enforces_the_gates() {
        // A single workload passes as smoke but not as the full artifact.
        let few = write_churn("few.json", &churn_json(1, 0.0001, 0.0009, 1.0));
        assert_eq!(parse_churn_file(&few, false).unwrap().len(), 1);
        assert!(parse_churn_file(&few, true)
            .unwrap_err()
            .contains("workloads"));

        // Incremental slower than rebuild = regression, at any level.
        let slow = write_churn("slow.json", &churn_json(3, 0.002, 0.001, 1.0));
        assert!(parse_churn_file(&slow, false)
            .unwrap_err()
            .contains("patches slower"));

        // A point recorded without the oracle check is rejected.
        let unverified = write_churn("unverified.json", &churn_json(3, 0.0001, 0.0009, 0.0));
        assert!(parse_churn_file(&unverified, false)
            .unwrap_err()
            .contains("oracle"));
    }

    #[test]
    fn parse_churn_file_rejects_schema_drift() {
        let bad_tag = write_churn(
            "tag.json",
            "{\"schema\": \"bench-churn-v0\", \"points\": [{}]}",
        );
        assert!(parse_churn_file(&bad_tag, false)
            .unwrap_err()
            .contains("schema"));

        let missing = write_churn(
            "field.json",
            &format!(
                "{{\"schema\": \"{CHURN_SCHEMA}\", \"points\": [\
                 {{\"name\": \"w0-churn\", \"nodes\": 52}}]}}"
            ),
        );
        let err = parse_churn_file(&missing, false).unwrap_err();
        assert!(err.contains("links"), "got: {err}");
    }

    /// A well-formed matrix document; `mutate` lets a test break it.
    fn matrix_json(mutate: impl Fn(String) -> String) -> String {
        let rows: Vec<String> = MATRIX_CLASSES
            .iter()
            .map(|class| {
                let cells: Vec<String> = MATRIX_SCHEMES
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"scheme\": \"{s}\", \"delivery_pct\": 97.5, \
                             \"optimal_pct\": 88.0, \"mean_stretch\": 1.02}}"
                        )
                    })
                    .collect();
                format!(
                    "{{\"class\": \"{class}\", \"cases\": 240, \"schemes\": [{}]}}",
                    cells.join(",")
                )
            })
            .collect();
        mutate(format!(
            "{{\"id\": \"Extension M\", \"classes\": [{}]}}",
            rows.join(",")
        ))
    }

    fn write_matrix(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xtask-bench-matrix-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        fs::write(&p, text).unwrap();
        p
    }

    #[test]
    fn parse_matrix_file_accepts_the_full_matrix() {
        let p = write_matrix("ok.json", &matrix_json(|s| s));
        assert_eq!(parse_matrix_file(&p).unwrap(), (4, 5));
        // A null stretch (scheme never delivered) is valid.
        let p = write_matrix(
            "nullstretch.json",
            &matrix_json(|s| s.replace("\"mean_stretch\": 1.02", "\"mean_stretch\": null")),
        );
        assert_eq!(parse_matrix_file(&p).unwrap(), (4, 5));
    }

    #[test]
    fn parse_matrix_file_rejects_drift() {
        let missing_class = write_matrix(
            "class.json",
            &matrix_json(|s| s.replace("multi-area", "multi-zone")),
        );
        assert!(parse_matrix_file(&missing_class)
            .unwrap_err()
            .contains("multi-area"));

        let wrong_scheme = write_matrix(
            "scheme.json",
            &matrix_json(|s| s.replace("\"eMRC\"", "\"MRC2\"")),
        );
        assert!(parse_matrix_file(&wrong_scheme)
            .unwrap_err()
            .contains("eMRC"));

        let bad_pct = write_matrix(
            "pct.json",
            &matrix_json(|s| s.replace("\"delivery_pct\": 97.5", "\"delivery_pct\": 250.0")),
        );
        assert!(parse_matrix_file(&bad_pct)
            .unwrap_err()
            .contains("delivery_pct"));

        let empty = write_matrix(
            "cases.json",
            &matrix_json(|s| s.replace("\"cases\": 240", "\"cases\": 0")),
        );
        assert!(parse_matrix_file(&empty).unwrap_err().contains("no cases"));
    }

    #[test]
    fn parse_bench_file_reads_the_recorder_schema() {
        let dir = std::env::temp_dir().join("xtask-bench-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_eval.json");
        fs::write(
            &p,
            "{\"host_parallelism\": 4, \"parallel_threads\": 4, \"topologies\": [\
             {\"name\": \"A\", \"serial_secs\": 0.5, \"sweep_secs\": 0.001, \"speedup\": 2.0}]}",
        )
        .unwrap();
        let f = parse_bench_file(&p).unwrap();
        assert_eq!(f.rows.len(), 1);
        assert_eq!(f.rows[0].speedup, Some(2.0));
        assert_eq!(f.host_parallelism, Some(4.0));
        fs::write(&p, "{\"topologies\": [{\"name\": \"A\"}]}").unwrap();
        assert!(
            parse_bench_file(&p).is_err(),
            "missing serial_secs accepted"
        );
    }
}
