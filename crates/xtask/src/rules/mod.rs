//! The rule families `cargo xtask analyze` runs, each over the token
//! engine in [`crate::engine`], plus the machine-readable rule registry
//! behind `--list-rules` (and DESIGN.md §7, which is generated from it).

pub mod alloc;
pub mod confinement;
pub mod coverage;
pub mod determinism;
pub mod invariants;
pub mod membership;
pub mod panic_freedom;
pub mod print;
pub mod unsafe_audit;

/// Hot-path crate directories (under `crates/`) subject to panic-freedom,
/// print and determinism discipline.
pub const HOT_PATH_CRATES: [&str; 7] = [
    "baselines",
    "core",
    "obs",
    "routing",
    "serve",
    "sim",
    "topology",
];

/// Registry metadata for one rule, as printed by `--list-rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name, matching [`crate::engine::Violation::rule`] and the
    /// `rule` key of `allow.toml` entries.
    pub name: &'static str,
    /// Rule family, grouping related rules in DESIGN.md §7.
    pub family: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// Why the rule exists — the property it protects.
    pub rationale: &'static str,
}

/// Every rule `cargo xtask analyze` can report, in registry order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "unwrap",
        family: "panic-freedom",
        scope: "hot-path crates, non-test",
        rationale: "`.unwrap()` aborts the forwarding hot path on `None`/`Err`; recovery code must degrade, not panic",
    },
    RuleInfo {
        name: "expect",
        family: "panic-freedom",
        scope: "hot-path crates, non-test",
        rationale: "`.expect(..)` is `.unwrap()` with a message; same abort risk on the hot path",
    },
    RuleInfo {
        name: "panic-macro",
        family: "panic-freedom",
        scope: "hot-path crates, non-test",
        rationale: "`panic!`/`unreachable!`/`todo!`/`unimplemented!` abort recovery instead of returning an outcome",
    },
    RuleInfo {
        name: "indexing",
        family: "panic-freedom",
        scope: "hot-path crates, non-test",
        rationale: "`expr[..]` panics out of bounds; hot-path lookups use `get`/typed ids or a justified allow",
    },
    RuleInfo {
        name: "header-mutation",
        family: "paper-invariants",
        scope: "all library code",
        rationale: "Theorem 2's header monotonicity holds only if `failed_links`/`cross_links` mutate solely via the typed setters in crates/sim/src/header.rs",
    },
    RuleInfo {
        name: "header-privacy",
        family: "paper-invariants",
        scope: "crates/sim/src/header.rs",
        rationale: "public header fields would let callers bypass the setters the mutation rule guards",
    },
    RuleInfo {
        name: "float-eq",
        family: "paper-invariants",
        scope: "all library code",
        rationale: "exact `==`/`!=` on link weights is order-sensitive; geometry uses tolerances or documented exact cases",
    },
    RuleInfo {
        name: "theorem-coverage",
        family: "coverage",
        scope: "DESIGN.md + crates/core/tests/theorems.rs",
        rationale: "every theorem stated in DESIGN.md must map to at least one named `#[test]`",
    },
    RuleInfo {
        name: "thread-discipline",
        family: "confinement",
        scope: "everywhere except crates/eval/src/par.rs and crates/serve/src/service.rs",
        rationale: "threads are born in the fork-join executor or the service worker runtime, keeping each determinism argument local to one module",
    },
    RuleInfo {
        name: "linkset-membership",
        family: "membership",
        scope: "crates/core, non-test",
        rationale: "linear `.iter().any(`/`.contains(&` scans hide O(|set|) work per probe; the phase-1 sweep uses the word-parallel bitset API",
    },
    RuleInfo {
        name: "print-discipline",
        family: "print",
        scope: "hot-path crates, non-test",
        rationale: "stdout/stderr belong to the eval writer funnel; hot-path events go through `rtr_obs::TraceSink` so `--trace` observes everything",
    },
    RuleInfo {
        name: "determinism",
        family: "determinism",
        scope: "hot-path crates, non-test",
        rationale: "iteration-order-randomized containers (`HashMap`/`HashSet`), wall clocks (`Instant`/`SystemTime`) and thread-count probes make recovery results depend on the host, breaking byte-identical reproduction",
    },
    RuleInfo {
        name: "unsafe-audit",
        family: "unsafe-audit",
        scope: "all scanned code, tests included",
        rationale: "every `unsafe` block/fn/impl must carry an adjacent `SAFETY:` justification naming the invariant it relies on",
    },
    RuleInfo {
        name: "alloc-discipline",
        family: "allocation",
        scope: "configured steady-state functions",
        rationale: "steady-state recovery (sweep, walk, recover) must not allocate after warm-up; cross-checked by the counting-allocator test in crates/core/tests/alloc_discipline.rs",
    },
    RuleInfo {
        name: "stale-allow",
        family: "allowlist",
        scope: "crates/xtask/allow.toml",
        rationale: "an allowlist entry matching no site is a leftover exemption; remove it so the allowlist stays an exact map of justified sites",
    },
];
