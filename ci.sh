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

echo "==> shuffle at 1024 ports under a 1 GiB address-space cap (traffic matrices sized by their support)"
# The 1023 shuffle stages list 1024 cells each; as dense n² arrays they
# needed ~8 GiB. One sweep thread and K = 1: every worker thread
# reserves its own malloc arena, so more threads would grow the address
# space with the host's CPU count. The subshell's ulimit binds only it.
( ulimit -v 1048576; target/release/sweep run shuffle --ports 1024 \
    --fidelity exact,estimate --duration-ms 1 --profile lean --threads 1 \
    --out ci_shuffle_1024 >/dev/null ) \
    || { echo "ci.sh: shuffle at 1024 ports failed under a 1 GiB address-space cap"; exit 1; }
shuffle_rows=$(grep -c '"error": null' results/ci_shuffle_1024.json)
[ "$shuffle_rows" = 2 ] \
    || { echo "ci.sh: shuffle at 1024 ports wrote $shuffle_rows error-free rows, want 2 (exact, estimate)"; exit 1; }

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
# The one software-placement point: the --shards 2 invariance pass
# below is the only bench check of the host side's VOQs and grants.
grep -q '"name": "hotspot-sw/n16"' results/bench_smoke_ci.json \
    || { echo "ci.sh: smoke subset lost the software-placement point"; exit 1; }
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
# The event queue is a binary heap: the ladder's spread/spill/direct-sort
# counters are retired, and `queue_pops` is the queue's one column.
counters_header=$(head -1 results/ci_counters.csv)
printf '%s\n' "$counters_header" | tr ',' '\n' | grep -qx 'queue_pops' \
    || { echo "ci.sh: queue_pops missing from sweep CSV header"; exit 1; }
for retired in queue_spreads queue_spills queue_direct_sorts; do
    if printf '%s\n' "$counters_header" | tr ',' '\n' | grep -qx "$retired"; then
        echo "ci.sh: retired counter $retired is back in the sweep CSV header"; exit 1
    fi
done

echo "==> host staging (hosts hold flows, the VOQ bank runs: pool allocations <= events, and bounded by flows)"
# Every pool entry is pushed by the handler of its own event — a staged
# flow by its injection or app send, a VOQ run of a flow's consecutive
# packets by its first packet's switch arrival — so a run can never
# allocate more entries than it fires events. Staging each packet of a
# flow when the flow arrives breaks the bound sevenfold on this
# heavy-tailed point, whose flows mostly outlast the horizon.
# The VOQ side is bounded by flows, not packets: a host entry is a flow,
# and a new VOQ run starts only at a flow's first packet, after a drop
# gap, or after a grant burst emptied the pair (this point has no apps,
# no faults and hardware placement). Queuing one entry per packet
# breaks it: 188,964 allocations against a bound of 10,814.
cargo run --release -q -p xds-bench --bin sweep -- run datamining --ports 32 \
    --loads 0.9 --seeds 101 --duration-ms 50 --counters --threads 1 \
    --out ci_staging >/dev/null
staging_count() {
    grep -o "\"$1\": [0-9]*" results/ci_staging.json | grep -o '[0-9]*$'
}
staging_allocs=$(staging_count pool_allocs)
staging_events=$(staging_count events)
staging_flows=$(staging_count offered_flows)
staging_drops=$(staging_count drop_voq_full)
staging_bursts=$(staging_count grant_bursts)
[ -n "$staging_allocs" ] && [ -n "$staging_events" ] && [ -n "$staging_flows" ] \
    && [ -n "$staging_drops" ] && [ -n "$staging_bursts" ] \
    || { echo "ci.sh: staging row lost a pool_allocs, events, offered_flows, drop_voq_full or grant_bursts column"; exit 1; }
[ "$staging_allocs" -le "$staging_events" ] \
    || { echo "ci.sh: $staging_allocs pool allocations for $staging_events events: hosts stage packets, not flows"; exit 1; }
staging_bound=$((2 * staging_flows + staging_drops + staging_bursts))
[ "$staging_allocs" -le "$staging_bound" ] \
    || { echo "ci.sh: $staging_allocs pool allocations against a bound of $staging_bound (2 x $staging_flows flows + $staging_drops drops + $staging_bursts bursts): the VOQ bank queues packets, not runs"; exit 1; }

echo "==> VOQ bank sized by traffic (records only for the pairs the traffic reaches)"
# The bank makes a pair's record when the pair's first packet is
# admitted, so a run holds records for the pairs its traffic reaches,
# not for all n². scale-stress-1024's multi-ring sends to 4 of 1024
# destinations per source: 4,096 non-zero cells of 1,048,576. A bank
# that wrote a record for every pair would hold all of them.
cargo run --release -q -p xds-bench --bin sweep -- run scale-stress-1024 \
    --duration-ms 1 --counters --threads 1 --out ci_voq_pairs >/dev/null
voq_pairs=$(grep -o '"voq_pairs": [0-9]*' results/ci_voq_pairs.json | grep -o '[0-9]*$')
[ -n "$voq_pairs" ] \
    || { echo "ci.sh: scale-stress-1024 row lost its voq_pairs column"; exit 1; }
[ "$voq_pairs" -gt 0 ] && [ "$voq_pairs" -le $((4 * 1024)) ] \
    || { echo "ci.sh: $voq_pairs VOQ pair records on scale-stress-1024: want 1 to 4096, the multi-ring's non-zero cells"; exit 1; }

echo "==> NIC trains (a shard moves a host's back-to-back packets without a queue event apiece)"
# `events` counts the model's events, `queue_pops` the ones popped from an
# event queue. This point runs one shard per port, whose queue holds only
# its host's events, so a train takes each departure and switch arrival
# up to the host's next flow or the window's end: 13,601 pops of 867,761
# events. With trains off every event is popped.
train_count() {
    grep -o "\"$1\": [0-9]*" results/ci_voq_pairs.json | grep -o '[0-9]*$'
}
train_pops=$(train_count queue_pops)
train_events=$(train_count events)
[ -n "$train_pops" ] && [ -n "$train_events" ] \
    || { echo "ci.sh: scale-stress-1024 row lost its queue_pops or events column"; exit 1; }
[ $((10 * train_pops)) -lt "$train_events" ] \
    || { echo "ci.sh: $train_pops queue pops for $train_events events on scale-stress-1024: want under a tenth, NIC trains are off"; exit 1; }

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
