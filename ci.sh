#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings: no broken or private intra-doc links)"
# The vendored proptest subset keeps two ambiguous-link warnings of its
# own, so it is excluded; every first-party crate must document clean.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest

echo "==> xlint (workspace determinism-contract static analysis)"
# Zero unwaived findings, and the waiver count is pinned: a new inline
# `// xlint: allow(...)` waiver anywhere in the tree requires an
# explicit diff of the expected number below.
XLINT_EXPECTED_WAIVERS=15
xlint_out=$(cargo run -q -p xds-lint -- --stats) || {
    printf '%s\n' "$xlint_out"
    echo "ci.sh: xlint found determinism-contract violations"
    exit 1
}
printf '%s\n' "$xlint_out"
xlint_waivers=$(printf '%s\n' "$xlint_out" | sed -n 's/^waivers: \([0-9][0-9]*\)$/\1/p')
[ "$xlint_waivers" = "$XLINT_EXPECTED_WAIVERS" ] \
    || { echo "ci.sh: xlint waiver count ${xlint_waivers:-?} != expected $XLINT_EXPECTED_WAIVERS (new waivers need an explicit diff here)"; exit 1; }

echo "==> perfbench lockfile (no dependency change may make cargo rewrite it)"
# `--locked` fails instead of writing when the lockfile would change, so
# this edits nothing under perfbench/.
cargo tree --offline --locked --manifest-path perfbench/Cargo.toml >/dev/null \
    || { echo "ci.sh: perfbench/Cargo.lock is stale: a [dependencies] change would make cargo rewrite it"; exit 1; }

echo "==> cargo build --release"
cargo build --release

echo "==> experiment binaries and examples (every one must run and exit 0)"
# Compiling them proves nothing about run time: a panic, or fig2_pipeline's
# failed-invariant exit, must fail CI. Output is shown only on failure.
for src in crates/bench/src/bin/fig*.rs crates/bench/src/bin/exp_*.rs; do
    bin=$(basename "$src" .rs)
    out=$(cargo run --release -q -p xds-bench --bin "$bin" 2>&1) || {
        printf '%s\n' "$out"
        echo "ci.sh: experiment binary $bin exited nonzero"
        exit 1
    }
done
for src in examples/*.rs; do
    ex=$(basename "$src" .rs)
    out=$(cargo run --release -q --example "$ex" 2>&1) || {
        printf '%s\n' "$out"
        echo "ci.sh: example $ex exited nonzero"
        exit 1
    }
done

echo "==> cargo test -q"
cargo test -q

echo "==> sweep bench --smoke (perf harness liveness; output under results/)"
cargo run --release -q -p xds-bench --bin sweep -- bench --smoke \
    --out results/bench_smoke_ci.json
grep -q '"name": "scale-stress/n512"' results/bench_smoke_ci.json \
    || { echo "ci.sh: smoke subset lost the 512-port scale point"; exit 1; }
grep -q '"name": "scale-stress/n1024"' results/bench_smoke_ci.json \
    || { echo "ci.sh: smoke subset lost the kilofabric scale point"; exit 1; }
grep -q '"name": "scale-stress/n2048"' results/bench_smoke_ci.json \
    || { echo "ci.sh: smoke subset lost the 2048-port sharded scale point"; exit 1; }
grep -q '"phase_decompose_ns"' results/bench_smoke_ci.json \
    || { echo "ci.sh: per-phase epoch timings missing from bench artifact"; exit 1; }
grep -q '"phase_estimate_ns"' results/bench_smoke_ci.json \
    || { echo "ci.sh: per-phase epoch timings missing from bench artifact"; exit 1; }
grep -q '"profile": "lean"' results/bench_smoke_ci.json \
    || { echo "ci.sh: bench artifact must record the lean instrumentation profile"; exit 1; }

echo "==> sweep bench --smoke --shards 2 (sharded core: events/bytes are shard-count-invariant)"
# Force every smoke point onto 2 shards (the catalogue default runs the
# kilofabric rungs at K=n and the rest at K=1): the simulated behavior —
# event and delivered-byte counts per point — must not move at all.
cargo run --release -q -p xds-bench --bin sweep -- bench --smoke --shards 2 \
    --out results/bench_smoke_ci_sh2.json
for field in events delivered_bytes; do
    ref=$(grep -o "\"$field\": [0-9]*" results/bench_smoke_ci.json)
    sh2=$(grep -o "\"$field\": [0-9]*" results/bench_smoke_ci_sh2.json)
    [ -n "$ref" ] \
        || { echo "ci.sh: smoke artifact lost its $field fields"; exit 1; }
    [ "$ref" = "$sh2" ] \
        || { echo "ci.sh: $field diverged between the default and --shards 2 smoke runs"; exit 1; }
done

echo "==> instrumentation profiles (lean/full event counts must agree on one point)"
cargo run --release -q -p xds-bench --bin sweep -- run uniform \
    --duration-ms 1 --threads 1 --profile full --out ci_profile_full >/dev/null
cargo run --release -q -p xds-bench --bin sweep -- run uniform \
    --duration-ms 1 --threads 1 --profile lean --out ci_profile_lean >/dev/null
full_events=$(grep -o '"events": [0-9]*' results/ci_profile_full.json | head -1)
lean_events=$(grep -o '"events": [0-9]*' results/ci_profile_lean.json | head -1)
[ -n "$full_events" ] \
    || { echo "ci.sh: full-profile sweep row lost its event count"; exit 1; }
[ "$full_events" = "$lean_events" ] \
    || { echo "ci.sh: lean/full event counts diverged ($lean_events vs $full_events)"; exit 1; }

echo "==> sweep timeseries (epoch-resolution artifact must be non-empty)"
cargo run --release -q -p xds-bench --bin sweep -- timeseries uniform \
    --duration-ms 1 --threads 1 --out ci_timeseries >/dev/null
grep -q '"epoch": 0' results/ci_timeseries.timeseries.json \
    || { echo "ci.sh: timeseries artifact is empty"; exit 1; }
grep -q '"duty_cycle"' results/ci_timeseries.timeseries.json \
    || { echo "ci.sh: timeseries rows lost the duty-cycle column"; exit 1; }

echo "==> sweep trace (flight-recorder artifact must be valid Chrome-trace JSON)"
cargo run --release -q -p xds-bench --bin sweep -- trace scale-stress-256 \
    --duration-ms 1 --threads 1 --out ci_trace >/dev/null
[ -s results/ci_trace.trace.json ] \
    || { echo "ci.sh: trace artifact missing or empty"; exit 1; }
grep -q '"traceEvents"' results/ci_trace.trace.json \
    || { echo "ci.sh: trace artifact is not Chrome Trace Event Format"; exit 1; }
grep -q '"ph": "X"' results/ci_trace.trace.json \
    || { echo "ci.sh: trace artifact has no complete events"; exit 1; }
for span in epoch estimate decompose apply probe grant_burst; do
    grep -q "\"name\": \"$span\"" results/ci_trace.trace.json \
        || { echo "ci.sh: trace artifact lost the $span span family"; exit 1; }
done
grep -q 'sched_probes' results/ci_trace.json \
    || { echo "ci.sh: counters columns missing from traced sweep output"; exit 1; }

echo "==> traced grid (a traced sweep over several points writes one trace per point)"
cargo run --release -q -p xds-bench --bin sweep -- run uniform --loads 0.3,0.6 \
    --trace --duration-ms 1 --threads 1 --out ci_trace_grid >/dev/null
for point in load0.30 load0.60; do
    f="results/ci_trace_grid.uniform_$point.trace.json"
    [ -s "$f" ] \
        || { echo "ci.sh: traced grid point $point wrote no trace ($f)"; exit 1; }
    grep -q '"traceEvents"' "$f" \
        || { echo "ci.sh: $f is not Chrome Trace Event Format"; exit 1; }
done

echo "==> counters columns (--counters must add the registry to sweep output)"
cargo run --release -q -p xds-bench --bin sweep -- run uniform \
    --duration-ms 1 --threads 1 --counters --out ci_counters >/dev/null
grep -q '"pool_allocs"' results/ci_counters.json \
    || { echo "ci.sh: counters columns missing from sweep JSON"; exit 1; }
head -1 results/ci_counters.csv | grep -q 'sched_memo_hits' \
    || { echo "ci.sh: counters columns missing from sweep CSV header"; exit 1; }

echo "==> fault injection (a faulted smoke point must visibly degrade, gracefully)"
# The watchdog flag rides along so the guarded-runner path is the one
# CI exercises; 600 s is a liveness bound, not a measurement.
cargo run --release -q -p xds-bench --bin sweep -- run fault-storm \
    --duration-ms 2 --threads 1 --counters --point-timeout 600 \
    --out ci_faults >/dev/null
grep -q '"faults": "link+misfire+stall"' results/ci_faults.json \
    || { echo "ci.sh: fault-storm row lost its fault-plan tag"; exit 1; }
grep -o '"fault_events_injected": [0-9]*' results/ci_faults.json | grep -qv ': 0$' \
    || { echo "ci.sh: fault-storm injected no faults"; exit 1; }
grep -o '"fault_degraded_ns": [0-9]*' results/ci_faults.json | grep -qv ': 0$' \
    || { echo "ci.sh: fault-storm registered no degraded time"; exit 1; }
head -1 results/ci_faults.csv | grep -q 'fault_failover_bytes' \
    || { echo "ci.sh: degraded-mode columns missing from sweep CSV header"; exit 1; }
# Zero-cost-off: a spec with no fault plan must report the axis as
# "none" with every fault tally at exactly zero — the fault machinery
# may not perturb (or even touch) an unfaulted run. Byte-identity of
# the unfaulted goldens themselves is pinned by `cargo test` above.
grep -q '"faults": "none"' results/ci_counters.json \
    || { echo "ci.sh: unfaulted sweep rows lost the faults=none column"; exit 1; }
if grep -o '"fault_events_injected": [0-9]*' results/ci_counters.json | grep -qv ': 0$'; then
    echo "ci.sh: an unfaulted run reported injected faults"; exit 1
fi

echo "==> fidelity axis (estimate rows must ride the same artifact schema)"
cargo run --release -q -p xds-bench --bin sweep -- run uniform \
    --duration-ms 1 --threads 2 --fidelity exact,estimate \
    --out ci_fidelity >/dev/null
grep -q '"fidelity": "exact"' results/ci_fidelity.json \
    || { echo "ci.sh: exact rows lost the fidelity column"; exit 1; }
grep -q '"fidelity": "estimate"' results/ci_fidelity.json \
    || { echo "ci.sh: estimate rows missing from the fidelity sweep"; exit 1; }
head -1 results/ci_fidelity.csv | grep -q ',fidelity,' \
    || { echo "ci.sh: fidelity column missing from sweep CSV header"; exit 1; }

echo "==> sweep validate-estimates --smoke (estimate-tier error envelope)"
cargo run --release -q -p xds-bench --bin sweep -- validate-estimates --smoke \
    --out validate_ci --point-timeout 600
[ -s results/validate_ci.validation.json ] \
    || { echo "ci.sh: validation artifact missing or empty"; exit 1; }
grep -q '"schema": "xds-validate-v1"' results/validate_ci.validation.json \
    || { echo "ci.sh: validation artifact is not xds-validate-v1"; exit 1; }
# Coverage: every pinned catalogue point (the names the smoke bench just
# emitted) must have a validation row.
names=$(grep -o '"name": "[^"]*"' results/bench_smoke_ci.json | sed 's/"name": "//;s/"$//' | sort -u)
[ -n "$names" ] || { echo "ci.sh: could not enumerate catalogue names"; exit 1; }
for n in $names; do
    grep -q "\"name\": \"$n\"" results/validate_ci.validation.json \
        || { echo "ci.sh: validation artifact lost catalogue point $n"; exit 1; }
done
# The envelope must be recorded and finite (smoke horizons are too short
# to gate its magnitude; the full-catalogue envelope is the contract).
grep -q '"err_p95"' results/validate_ci.validation.json \
    || { echo "ci.sh: error percentiles missing from validation artifact"; exit 1; }
if grep -E '"err_(p50|p95|max)": *(inf|-inf|NaN)' -q results/validate_ci.validation.json; then
    echo "ci.sh: smoke error envelope is not finite"; exit 1
fi
grep -q '"min_kilofabric_speedup"' results/validate_ci.validation.json \
    || { echo "ci.sh: kilofabric speedup missing from validation artifact"; exit 1; }
[ -s results/validate_ci.validation.csv ] \
    || { echo "ci.sh: validation CSV missing or empty"; exit 1; }
head -1 results/validate_ci.validation.csv | grep -q '^scenario,n_ports,metric,' \
    || { echo "ci.sh: validation CSV header drifted"; exit 1; }

echo "ci.sh: all green"
