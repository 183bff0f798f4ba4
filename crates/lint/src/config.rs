//! The checked-in determinism-contract policy: which directories are
//! scanned, which modules are allowlisted per rule, and which crates
//! must adopt the workspace lint table.
//!
//! Paths are repo-relative with `/` separators. An allowlist entry
//! ending in `/` is a directory prefix; anything else must match the
//! file path exactly. Changing any list here is a reviewable policy
//! change — that is the point of baking it into a source file instead
//! of accepting CLI flags.

/// Directories (relative to the repo root) whose `.rs` files are
/// scanned by the source rules.
pub const SCAN_DIRS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path prefixes never scanned: build output, vendored third-party
/// subsets (dev-deps outside the simulation domain, kept close to
/// upstream idiom), artifacts, and xlint's own deliberately-violating
/// fixture corpus.
pub const SKIP_PREFIXES: &[&str] = &[
    "target/",
    "vendor/",
    "results/",
    "crates/lint/tests/fixtures/",
];

/// `wall-clock`: `Instant::now`/`SystemTime` are determinism hazards —
/// host time must never influence the simulation domain. Allowed only
/// in the flight recorder (wall-clock is its entire subject) and the
/// bench harness (which measures the simulator from outside). The
/// phase-timing blocks of the event loop (`shard.rs`), the Solstice
/// trace spans and the sweep watchdog deadline (`exec.rs`) carry inline
/// waivers instead: those files are mostly simulation-domain code, and
/// a file-level allowlist entry would hide a genuinely misplaced clock
/// read there.
pub const WALL_CLOCK_ALLOW: &[&str] = &["crates/core/src/trace.rs", "crates/bench/"];

/// `random-state`: std's `HashMap`/`HashSet` default to a randomly
/// seeded SipHash, so iteration order varies run to run — deterministic
/// code must use `xds_metrics::FastHashBuilder`-backed maps or
/// `BTreeMap`/`BTreeSet`. No module is exempt; the one legitimate
/// mention (the `FastHashMap` alias definition) carries a waiver.
pub const RANDOM_STATE_ALLOW: &[&str] = &[];

/// `thread-spawn`: stray threads are both a determinism and a
/// reproducibility hazard. `std::thread` is allowed only in the shard
/// window executor and the sweep executor, whose merge points are
/// designed (and tested) to be schedule-invariant.
pub const THREAD_SPAWN_ALLOW: &[&str] =
    &["crates/core/src/shard.rs", "crates/scenario/src/exec.rs"];

/// `golden-serialization`: function names whose bodies form the
/// golden-trace serialization surface.
pub const GOLDEN_FNS: &[&str] = &["trace_json"];

/// Identifiers that are wall-clock-derived and must therefore never
/// appear inside a golden-serialization body: the epoch phase split,
/// the Chrome-trace payload, and the per-phase span fields the bench
/// artifact emits.
pub const GOLDEN_FORBIDDEN: &[&str] = &[
    "phases",
    "chrome_trace",
    "phase_estimate_ns",
    "phase_decompose_ns",
    "phase_apply_ns",
];

/// Every workspace crate directory, for the `unsafe-header` rule: each
/// must either adopt the workspace lint table (`[lints] workspace =
/// true` with `unsafe_code = "forbid"` in the root manifest) or carry
/// `#![forbid(unsafe_code)]` in its crate root (the vendored subsets do
/// the latter).
pub const CRATE_DIRS: &[&str] = &[
    ".",
    "crates/sim",
    "crates/net",
    "crates/traffic",
    "crates/switch",
    "crates/hw",
    "crates/metrics",
    "crates/core",
    "crates/estimate",
    "crates/scenario",
    "crates/bench",
    "crates/lint",
    "vendor/proptest",
    "vendor/criterion",
];

/// True when `path` (repo-relative, `/`-separated) is covered by an
/// allowlist entry: a `/`-terminated entry matches as a prefix, any
/// other entry matches exactly.
pub fn allowed(path: &str, allowlist: &[&str]) -> bool {
    allowlist.iter().any(|entry| {
        if let Some(prefix) = entry.strip_suffix('/') {
            path.strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with('/'))
            // `crates/bench/` covers `crates/bench/src/bench.rs`, not
            // `crates/bench2/...`.
        } else {
            path == *entry
        }
    })
}

/// True when `path` falls under a skipped prefix.
pub fn skipped(path: &str) -> bool {
    SKIP_PREFIXES.iter().any(|p| path.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_entries_cover_subpaths_exactly() {
        assert!(allowed("crates/bench/src/bench.rs", WALL_CLOCK_ALLOW));
        assert!(allowed("crates/core/src/trace.rs", WALL_CLOCK_ALLOW));
        assert!(!allowed("crates/core/src/runtime.rs", WALL_CLOCK_ALLOW));
        assert!(!allowed("crates/benchmarks/src/lib.rs", WALL_CLOCK_ALLOW));
    }

    #[test]
    fn fixture_corpus_is_never_scanned() {
        assert!(skipped(
            "crates/lint/tests/fixtures/wall_clock_violation.rs"
        ));
        assert!(skipped("vendor/criterion/src/lib.rs"));
        assert!(!skipped("crates/lint/tests/fixtures.rs"));
        assert!(!skipped("crates/lint/src/lib.rs"));
    }
}
