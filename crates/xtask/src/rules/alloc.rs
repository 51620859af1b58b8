//! Allocation discipline: a configured list of steady-state functions —
//! the phase-1 sweep, the phase-2 walk, the recovery entry points, and the
//! queue and mask inner loops — must not lexically contain allocating
//! constructors. The static list is cross-checked by the dynamic
//! counting-`GlobalAlloc` test in `crates/core/tests/alloc_discipline.rs`,
//! which proves zero allocations per recovery after warm-up.
//!
//! The check is shallow (one function body, no call-graph transitivity):
//! it catches the overwhelmingly common regression — someone reaching for
//! `Vec::new` / `collect` / `format!` inside a hot loop — while the
//! dynamic test catches everything transitive.

use crate::engine::{SourceFile, Violation};
use crate::lexer::TokKind;
use std::collections::BTreeSet;

/// The steady-state functions held to zero lexical allocations, as
/// `(workspace-relative file, fn name)`. Every same-named non-test `fn`
/// in the file is checked.
pub const STEADY_STATE_FNS: [(&str, &str); 15] = [
    // Phase-1 sweep: next-hop selection and crossing-mask exclusion.
    ("crates/core/src/sweep.rs", "select_next_hop"),
    ("crates/core/src/sweep.rs", "is_excluded"),
    // Hybrid dense/sparse crossing probe behind `is_excluded`, and the
    // grid-index candidate query behind region harvests.
    ("crates/topology/src/crosslinks.rs", "crosses_any"),
    ("crates/topology/src/grid.rs", "for_candidates"),
    ("crates/core/src/phase1.rs", "collect_failure_info_traced"),
    ("crates/core/src/phase1.rs", "record_selection_crossing"),
    // Phase-2 walk: cached path lookup and the reusing source-route walk.
    ("crates/core/src/phase2.rs", "recovery_path_ref"),
    ("crates/core/src/phase2.rs", "source_route_walk_reusing"),
    // Session entry points.
    ("crates/core/src/recovery.rs", "recover_traced"),
    ("crates/core/src/recovery.rs", "recover_reusing"),
    // Phase-2 tree seeded from the converged routing table.
    ("crates/routing/src/spt.rs", "seeded_in"),
    // Dijkstra bucket-queue inner ops.
    ("crates/routing/src/dial.rs", "push"),
    ("crates/routing/src/dial.rs", "pop"),
    // Bitset membership and the chunked crossing-mask probe.
    ("crates/topology/src/bitset.rs", "contains"),
    ("crates/topology/src/bitset.rs", "intersects_words"),
];

/// Types whose `new` / `with_capacity` / `from` constructors allocate.
const ALLOC_TYPES: [&str; 10] = [
    "Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
];

/// Allocating constructor associated functions on [`ALLOC_TYPES`].
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

/// Method calls that allocate a fresh container/string.
const ALLOC_METHODS: [&str; 4] = ["to_vec", "to_owned", "to_string", "collect"];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Runs the allocation-discipline rule over `file`, marking every
/// configured `(file, fn)` pair it finds in `seen` (by index into
/// [`STEADY_STATE_FNS`]) so the driver can flag stale configuration.
pub fn check(file: &SourceFile, out: &mut Vec<Violation>, seen: &mut BTreeSet<usize>) {
    for (idx, (rel, fn_name)) in STEADY_STATE_FNS.iter().enumerate() {
        if file.rel != *rel {
            continue;
        }
        let spans = file.fn_body_spans(fn_name);
        if !spans.is_empty() {
            seen.insert(idx);
        }
        for (lo, hi) in spans {
            check_span(file, lo, hi, out);
        }
    }
}

/// Code position just past a `::<..>` turbofish starting at `q`, or `q`
/// unchanged when there is none.
fn skip_turbofish(file: &SourceFile, mut q: usize, hi: usize) -> usize {
    if file.ct(q) != "::" || file.ct(q + 1) != "<" {
        return q;
    }
    let mut depth = 0usize;
    q += 1;
    while q <= hi {
        // Two closing angles lex as one `>>` shift token inside nested
        // generics (`Vec<Vec<_>>`), so both arrows count here.
        match file.ct(q) {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            ">>" => {
                depth = depth.saturating_sub(2);
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        q += 1;
    }
    q + 1
}

/// Flags denied constructs inside one body span (code positions).
fn check_span(file: &SourceFile, lo: usize, hi: usize, out: &mut Vec<Violation>) {
    for p in lo..=hi {
        if file.ck(p) != Some(TokKind::Ident) {
            // Allocating method calls hang off a `.` token, possibly with
            // a `.collect::<Vec<_>>()` turbofish before the parens.
            if file.ct(p) == "." && ALLOC_METHODS.contains(&file.ct(p + 1)) {
                let q = skip_turbofish(file, p + 2, hi);
                if file.ct(q) == "(" {
                    out.push(file.violation("alloc-discipline", p + 1));
                }
            }
            continue;
        }
        // `vec![..]` / `format!(..)`.
        if ALLOC_MACROS.contains(&file.ct(p)) && file.ct(p + 1) == "!" {
            out.push(file.violation("alloc-discipline", p));
            continue;
        }
        // `Vec::new(..)`, `Box::from(..)`, `String::with_capacity(..)`, ...
        // tolerating `Vec::<u32>::new()` turbofish between the two.
        if ALLOC_TYPES.contains(&file.ct(p)) {
            let q = skip_turbofish(file, p + 1, hi);
            if file.ct(q) == "::" && ALLOC_CTORS.contains(&file.ct(q + 1)) {
                out.push(file.violation("alloc-discipline", p));
            }
        }
    }
}

/// Emits a violation for every configured steady-state fn that was never
/// found, so the static list cannot silently rot as code moves.
pub fn check_config_complete(seen: &BTreeSet<usize>, out: &mut Vec<Violation>) {
    for (idx, (rel, fn_name)) in STEADY_STATE_FNS.iter().enumerate() {
        if !seen.contains(&idx) {
            out.push(Violation {
                file: (*rel).to_owned(),
                line: 0,
                rule: "alloc-discipline",
                excerpt: format!(
                    "steady-state fn `{fn_name}` not found in {rel} — update \
                     STEADY_STATE_FNS in crates/xtask/src/rules/alloc.rs"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_src(rel: &str, src: &str) -> Vec<Violation> {
        let file = SourceFile::parse(rel, src).unwrap();
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        check(&file, &mut out, &mut seen);
        out
    }

    #[test]
    fn allocating_constructors_in_steady_fns_are_flagged() {
        let src = "fn select_next_hop() {\n  let v = Vec::new();\n  let b = Box::new(1);\n  \
                   let s = format!(\"x\");\n  let w = vec![1, 2];\n  \
                   let t = Vec::<u32>::with_capacity(4);\n}\n";
        let out = check_src("crates/core/src/sweep.rs", src);
        assert_eq!(out.len(), 5, "got: {out:?}");
        assert!(out.iter().all(|v| v.rule == "alloc-discipline"));
    }

    #[test]
    fn allocating_methods_are_flagged() {
        let src = "fn is_excluded(xs: &[u32]) -> Vec<u32> {\n  \
                   let _ = xs.to_vec();\n  xs.iter().copied().collect()\n}\n";
        let out = check_src("crates/core/src/sweep.rs", src);
        assert_eq!(out.len(), 2, "got: {out:?}");
    }

    #[test]
    fn turbofish_collect_is_flagged() {
        let src = "fn is_excluded(xs: &[u32]) -> usize {\n  \
                   xs.iter().copied().collect::<Vec<_>>().len()\n}\n";
        let out = check_src("crates/core/src/sweep.rs", src);
        assert_eq!(out.len(), 1, "got: {out:?}");
    }

    #[test]
    fn non_allocating_bodies_and_other_fns_pass() {
        // `bucket.push(x)` is a method call, not `Vec::new`; fns outside
        // the configured list may allocate freely.
        let src = "fn select_next_hop(b: &mut Vec<u32>, x: u32) {\n  b.push(x);\n  \
                   b.truncate(2);\n}\nfn helper() -> Vec<u32> { Vec::new() }\n";
        let out = check_src("crates/core/src/sweep.rs", src);
        assert!(out.is_empty(), "false positives: {out:?}");
    }

    #[test]
    fn files_outside_the_list_are_ignored() {
        let src = "fn select_next_hop() { let v = Vec::new(); }";
        let out = check_src("crates/eval/src/x.rs", src);
        assert!(out.is_empty(), "got: {out:?}");
    }

    #[test]
    fn stale_config_entries_are_reported() {
        let file =
            SourceFile::parse("crates/core/src/sweep.rs", "fn select_next_hop() {}").unwrap();
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        check(&file, &mut out, &mut seen);
        assert!(seen.contains(&0), "select_next_hop not marked seen");
        // Only the two sweep.rs entries could be seen from this one file;
        // completeness over the whole workspace flags the rest.
        let mut stale = Vec::new();
        check_config_complete(&seen, &mut stale);
        assert_eq!(stale.len(), STEADY_STATE_FNS.len() - 1);
        assert!(stale.iter().all(|v| v.rule == "alloc-discipline"));
        assert!(stale.iter().any(|v| v.excerpt.contains("is_excluded")));
    }
}
