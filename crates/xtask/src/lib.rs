//! Workspace static-analysis subsystem: `cargo xtask analyze`.
//!
//! The paper's correctness claims (Theorems 1–3) are enforced by code that
//! runs on the forwarding hot path, so this crate turns the workspace's
//! hygiene rules into a mechanical, CI-enforced pass. A hand-rolled Rust
//! tokenizer ([`lexer`]) feeds a token-stream source model ([`engine`]);
//! the rule families ([`rules`], listed by `cargo xtask analyze
//! --list-rules` and tabulated in DESIGN.md §7) run over that model, and
//! every surviving violation must match a justified entry in
//! `crates/xtask/allow.toml` ([`allow`]).
//!
//! `cargo xtask bench-record` / `bench-check` ([`bench`]) regenerate and
//! validate the committed `BENCH_eval.json`.

#![deny(missing_docs)]

pub mod allow;
pub mod bench;
pub mod engine;
pub mod json;
pub mod lexer;
pub mod rules;

use engine::Violation;
use json::JsonValue;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// The result of one `cargo xtask analyze` run.
#[derive(Debug)]
pub struct AnalyzeReport {
    /// Library source files scanned.
    pub files_scanned: usize,
    /// Of those, files in the hot-path crates.
    pub hot_files: usize,
    /// Violations matched by justified `allow.toml` entries.
    pub allowed: usize,
    /// Live (unjustified) violations, including `stale-allow` findings.
    pub violations: Vec<Violation>,
}

impl AnalyzeReport {
    /// True when the pass is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every rule family over the workspace and applies the allowlist.
///
/// # Errors
///
/// I/O failures, unlexable source files, malformed `allow.toml`, and a
/// theorem audit that cannot run are hard errors (distinct from rule
/// violations, which are data).
pub fn run_analyze() -> Result<AnalyzeReport, String> {
    let root = engine::workspace_root()?;
    let allow_path = root.join("crates/xtask/allow.toml");
    let allow = allow::load_allowlist(&allow_path)?;

    // Hot-path-scoped families run on the six hot-path crates; the rest
    // run on every crate's library source plus the root facade.
    let mut hot_files = Vec::new();
    for krate in rules::HOT_PATH_CRATES {
        engine::collect_rs_files(&root.join("crates").join(krate).join("src"), &mut hot_files)?;
    }
    let mut all_files = Vec::new();
    // Integration tests and benches are exempt from the library rules but
    // not from the unsafe audit: an unjustified `unsafe` in a test harness
    // (e.g. a custom `GlobalAlloc`) still deserves a SAFETY comment.
    let mut test_files = Vec::new();
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read crates/: {e}"))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            engine::collect_rs_files(&src, &mut all_files)?;
        }
        for aux in ["tests", "benches"] {
            let dir = entry.path().join(aux);
            if dir.is_dir() {
                engine::collect_rs_files(&dir, &mut test_files)?;
            }
        }
    }
    engine::collect_rs_files(&root.join("src"), &mut all_files)?;

    let mut violations = Vec::new();
    let mut steady_seen = BTreeSet::new();
    let hot_set: BTreeSet<PathBuf> = hot_files.iter().cloned().collect();
    for path in &all_files {
        let file = engine::load_source(&root, path)?;
        if hot_set.contains(path) {
            rules::panic_freedom::check(&file, &mut violations);
            rules::print::check(&file, &mut violations);
            rules::determinism::check(&file, &mut violations);
        }
        rules::invariants::check_header_discipline(&file, &mut violations);
        rules::invariants::check_float_eq(&file, &mut violations);
        rules::confinement::check_thread_discipline(&file, &mut violations);
        rules::membership::check(&file, &mut violations);
        rules::unsafe_audit::check(&file, &mut violations);
        rules::alloc::check(&file, &mut violations, &mut steady_seen);
    }
    for path in &test_files {
        let file = engine::load_source(&root, path)?;
        rules::unsafe_audit::check(&file, &mut violations);
    }
    rules::alloc::check_config_complete(&steady_seen, &mut violations);
    rules::coverage::check(&root, &mut violations)?;

    let (live, allowed) = allow::apply_allowlist(violations, &allow);
    Ok(AnalyzeReport {
        files_scanned: all_files.len() + test_files.len(),
        hot_files: hot_files.len(),
        allowed,
        violations: live,
    })
}

/// Serializes `report` as the `--json` machine-readable form; the output
/// round-trips through [`json::json_parse`].
pub fn report_to_json(report: &AnalyzeReport) -> String {
    let violations = report
        .violations
        .iter()
        .map(|v| {
            JsonValue::Obj(vec![
                ("file".into(), JsonValue::Str(v.file.clone())),
                ("line".into(), JsonValue::Num(v.line as f64)),
                ("rule".into(), JsonValue::Str(v.rule.to_owned())),
                ("excerpt".into(), JsonValue::Str(v.excerpt.clone())),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("ok".into(), JsonValue::Bool(report.ok())),
        (
            "files_scanned".into(),
            JsonValue::Num(report.files_scanned as f64),
        ),
        ("hot_files".into(), JsonValue::Num(report.hot_files as f64)),
        ("allowed".into(), JsonValue::Num(report.allowed as f64)),
        ("violations".into(), JsonValue::Arr(violations)),
    ])
    .to_json()
}

/// Renders `report` as GitHub Actions `::error` workflow annotations, one
/// per violation, so CI failures point at the offending line in the PR
/// diff view.
pub fn report_to_github(report: &AnalyzeReport) -> String {
    let mut out = String::new();
    for v in &report.violations {
        // `::error` consumes the message verbatim up to the newline;
        // escape per the workflow-command grammar.
        let msg = format!("[{}] {}", v.rule, v.excerpt)
            .replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A");
        out.push_str(&format!(
            "::error file={},line={}::{}\n",
            v.file, v.line, msg
        ));
    }
    out
}

/// Renders the rule registry as the markdown table embedded in DESIGN.md
/// §7, with a live per-rule count of `allow.toml` entries.
///
/// # Errors
///
/// Fails when `allow.toml` cannot be loaded.
pub fn list_rules() -> Result<String, String> {
    let root = engine::workspace_root()?;
    let allow = allow::load_allowlist(&root.join("crates/xtask/allow.toml"))?;
    let mut out = String::new();
    out.push_str("| rule | family | scope | allows | rationale |\n");
    out.push_str("|---|---|---|---|---|\n");
    for rule in rules::RULES {
        let allows = allow.iter().filter(|a| a.rule == rule.name).count();
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            rule.name, rule.family, rule.scope, allows, rule.rationale
        ));
    }
    Ok(out)
}
