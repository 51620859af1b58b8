//! Confinement rule: threads are created only in the fork-join executor
//! and the service worker runtime.

use crate::engine::{SourceFile, Violation};

/// The batch-side file allowed to create threads: the fork-join executor.
pub const THREAD_EXECUTOR: &str = "crates/eval/src/par.rs";

/// The serving-side file allowed to create threads: `rtr-serve`'s worker
/// runtime, where `serve()` scopes its worker, acceptor and
/// connection-reader threads.
pub const SERVE_RUNTIME: &str = "crates/serve/src/service.rs";

/// Thread discipline: `thread::spawn` / `thread::scope` only inside the
/// executor module and the service runtime. Everything else must go
/// through `rtr_eval::par` (batch) or `rtr_serve::serve` (serving), so
/// each determinism argument — the scenario-order merge, the
/// one-pool-per-worker session layout — stays local to one module.
pub fn check_thread_discipline(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel == THREAD_EXECUTOR || file.rel == SERVE_RUNTIME {
        return;
    }
    for p in 0..file.len() {
        if file.cin_test(p) {
            continue;
        }
        if file.ct(p) == "thread"
            && file.ct(p + 1) == "::"
            && matches!(file.ct(p + 2), "spawn" | "scope")
        {
            out.push(file.violation("thread-discipline", p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel, src).unwrap()
    }

    #[test]
    fn thread_discipline_flags_spawns_outside_executor() {
        let src = "fn f() { std::thread::spawn(|| {}); thread::scope(|s| {}); }";
        let mut out = Vec::new();
        check_thread_discipline(&file("crates/core/src/x.rs", src), &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.rule == "thread-discipline"));
    }

    #[test]
    fn thread_discipline_exempts_the_executor_module() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        let mut out = Vec::new();
        check_thread_discipline(&file("crates/eval/src/par.rs", src), &mut out);
        assert!(out.is_empty(), "false positives: {out:?}");
    }

    #[test]
    fn thread_discipline_exempts_the_serve_runtime() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        let mut out = Vec::new();
        check_thread_discipline(&file("crates/serve/src/service.rs", src), &mut out);
        assert!(out.is_empty(), "false positives: {out:?}");
        // Other serve modules stay confined.
        check_thread_discipline(&file("crates/serve/src/load.rs", src), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn split_paths_still_match() {
        let src = "fn f() {\n  std::thread::\n    spawn(|| {});\n}\n";
        let mut out = Vec::new();
        check_thread_discipline(&file("crates/core/src/x.rs", src), &mut out);
        assert_eq!(out.len(), 1);
    }
}
