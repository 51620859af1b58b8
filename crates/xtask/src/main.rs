//! Thin CLI over the [`xtask`] static-analysis library: argument parsing
//! and output rendering only. The tokenizer, rule engine, rule families,
//! allowlist flow and bench gates all live in the library (see
//! `src/lib.rs`), where they are unit- and integration-tested.

use std::process::ExitCode;

/// Output mode for `cargo xtask analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnalyzeMode {
    /// Human-readable `file:line: [rule] excerpt` lines plus a summary.
    Text,
    /// Machine-readable JSON report on stdout.
    Json,
    /// Text output plus GitHub Actions `::error` annotations.
    Github,
    /// Print the rule registry table and exit.
    ListRules,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let mode = match args.get(1).map(String::as_str) {
                None => AnalyzeMode::Text,
                Some("--json") => AnalyzeMode::Json,
                Some("--github") => AnalyzeMode::Github,
                Some("--list-rules") => AnalyzeMode::ListRules,
                Some(other) => {
                    eprintln!(
                        "cargo xtask analyze: unknown flag `{other}` \
                         (expected --json, --github, or --list-rules)"
                    );
                    return ExitCode::FAILURE;
                }
            };
            run_analyze_cli(mode)
        }
        Some("bench-record") => run_bench(xtask::bench::run_bench_record, "bench-record"),
        Some("bench-check") => run_bench(xtask::bench::run_bench_check, "bench-check"),
        Some("bench-scale") => {
            let smoke = match args.get(1).map(String::as_str) {
                None => false,
                Some("--smoke") => true,
                Some(other) => {
                    eprintln!("cargo xtask bench-scale: unknown flag `{other}` (expected --smoke)");
                    return ExitCode::FAILURE;
                }
            };
            run_bench(
                move |root| xtask::bench::run_bench_scale(root, smoke),
                "bench-scale",
            )
        }
        Some("bench-churn") => {
            let smoke = match args.get(1).map(String::as_str) {
                None => false,
                Some("--smoke") => true,
                Some(other) => {
                    eprintln!("cargo xtask bench-churn: unknown flag `{other}` (expected --smoke)");
                    return ExitCode::FAILURE;
                }
            };
            run_bench(
                move |root| xtask::bench::run_bench_churn(root, smoke),
                "bench-churn",
            )
        }
        other => {
            eprintln!(
                "usage: cargo xtask <analyze [--json|--github|--list-rules]|bench-record|bench-check|bench-scale [--smoke]|bench-churn [--smoke]>\n  \
                 (got {:?})\n\n\
                 analyze       Runs the workspace static-analysis pass: panic-freedom,\n\
                 \x20             print/determinism discipline in the hot-path crates,\n\
                 \x20             paper-invariant lints, theorem coverage, thread\n\
                 \x20             discipline, link-set membership, unsafe-audit, and\n\
                 \x20             allocation discipline in steady-state functions.\n\
                 \x20             --json emits a machine-readable report, --github adds\n\
                 \x20             workflow ::error annotations, --list-rules prints the\n\
                 \x20             rule registry (the DESIGN.md \u{a7}7 table).\n\
                 bench-record  Regenerates BENCH_eval.json at the workspace root\n\
                 \x20             (driver wall times serial vs parallel, per kernel).\n\
                 bench-check   Validates the committed BENCH_eval.json (parses, rows\n\
                 \x20             carry serial_secs/sweep_secs, speedups sane for the\n\
                 \x20             recording host) and fails if a fresh run regresses\n\
                 \x20             >2x on the serial total or on any topology's sweep_secs;\n\
                 \x20             also schema-validates the committed BENCH_scale.json\n\
                 \x20             and BENCH_churn.json (oracle-checked, incremental <=\n\
                 \x20             rebuild).\n\
                 bench-scale   Regenerates BENCH_scale.json at the workspace root\n\
                 \x20             (1k-100k-node size sweep per generator); --smoke runs\n\
                 \x20             only the 1k tier into target/bench-scale/ (the CI job).\n\
                 bench-churn   Regenerates BENCH_churn.json at the workspace root\n\
                 \x20             (per-event incremental vs rebuild baseline cost, every\n\
                 \x20             event oracle-checked); --smoke runs one small-grid\n\
                 \x20             timeline into target/bench-churn/ (the CI job).",
                other.unwrap_or("<nothing>")
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs the analyze pass and renders it in `mode`.
fn run_analyze_cli(mode: AnalyzeMode) -> ExitCode {
    if mode == AnalyzeMode::ListRules {
        return match xtask::list_rules() {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cargo xtask analyze: error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match xtask::run_analyze() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("cargo xtask analyze: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match mode {
        AnalyzeMode::Json => print!("{}", xtask::report_to_json(&report)),
        AnalyzeMode::Github | AnalyzeMode::Text => {
            if mode == AnalyzeMode::Github {
                print!("{}", xtask::report_to_github(&report));
            }
            for v in &report.violations {
                println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.excerpt);
            }
            if report.ok() {
                println!(
                    "cargo xtask analyze: OK — {} files scanned ({} hot-path), \
                     0 violations, {} allowlisted sites",
                    report.files_scanned, report.hot_files, report.allowed,
                );
            } else {
                println!(
                    "cargo xtask analyze: FAILED — {} violation(s), {} allowlisted sites \
                     (add a justified entry to crates/xtask/allow.toml only for \
                     documented-contract sites)",
                    report.violations.len(),
                    report.allowed,
                );
            }
        }
        AnalyzeMode::ListRules => {}
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one bench subcommand with the workspace root resolved.
fn run_bench(f: impl FnOnce(&std::path::Path) -> Result<(), String>, name: &str) -> ExitCode {
    let root = match xtask::engine::workspace_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("cargo xtask {name}: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match f(&root) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cargo xtask {name}: error: {e}");
            ExitCode::FAILURE
        }
    }
}
