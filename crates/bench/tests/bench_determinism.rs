//! Determinism of the bench catalogue across worker counts: the
//! `sweep bench` points (including the 128/256-port `scale-stress`
//! scenario) must produce **byte-identical** serialized output whether
//! the sweep runs on 1, 2 or 8 threads. This extends the original
//! small-scenario determinism test to the catalogue that CI's liveness
//! pass and the estimate tier's validation run — a hot-path change that
//! races or reorders anything shows up here as a serialization diff.

use xds_bench::bench;
use xds_scenario::{library, ScenarioSpec, SweepExecutor};
use xds_sim::SimDuration;

/// The bench subset, shrunk to test-friendly horizons while keeping the
/// pinned seeds and every scenario shape (both scale-stress sizes
/// included).
fn subset() -> Vec<ScenarioSpec> {
    bench::catalogue(true)
        .into_iter()
        .map(|s| {
            // Large fabrics get a further-reduced horizon so the test
            // stays fast; seeds and shapes are untouched.
            if s.n_ports >= 128 {
                s.with_duration(SimDuration::from_micros(300))
            } else {
                s
            }
        })
        .collect()
}

#[test]
fn bench_subset_is_byte_identical_across_thread_counts() {
    let specs = subset();
    for ports in [128, 256, 512, 1024, 2048] {
        assert!(
            specs.iter().any(|s| s.n_ports == ports),
            "subset must include the scale-stress point at {ports} ports"
        );
    }
    // The largest rungs run on the sharded core inside sweep worker
    // threads — shard windows nested under sweep parallelism must stay
    // under the same byte-identical contract as everything else.
    assert!(
        specs.iter().any(|s| s.shards > 1),
        "subset must exercise the sharded core"
    );
    // The non-mirror estimator points (ground-truth snapshot + L1 epoch
    // path) are under the same determinism contract.
    for name in ["uniform-ewma/n16", "uniform-countmin/n16"] {
        assert!(
            specs.iter().any(|s| s.name == name),
            "subset must include {name}"
        );
    }
    // The fault-storm point keeps failover (link flaps, misfires,
    // stalls) under the same byte-identity contract: fault events are
    // coordinator-side draws from a dedicated RNG fork, so they must
    // land identically regardless of sweep parallelism.
    assert!(
        specs.iter().any(
            |s| s.name == "fault-storm/n16" && s.faults.as_ref().is_some_and(|p| p.is_active())
        ),
        "subset must include the armed fault-storm point"
    );
    let reference = SweepExecutor::with_threads(1).run(specs.clone());
    let ref_json = reference.to_json();
    let ref_csv = reference.to_csv();
    assert!(
        reference.points.iter().all(|p| p.report.is_ok()),
        "every bench point must run"
    );
    let storm = reference
        .points
        .iter()
        .find(|p| p.spec.name == "fault-storm/n16")
        .and_then(|p| p.report.as_ref().ok())
        .expect("fault-storm point runs");
    assert!(
        storm.counters.fault_events_injected > 0,
        "the storm plan must actually inject faults"
    );
    assert!(
        storm.fault_degraded_ns > 0,
        "injected link faults must register degraded time"
    );
    for threads in [2usize, 8] {
        let got = SweepExecutor::with_threads(threads).run(specs.clone());
        assert_eq!(
            got.to_json(),
            ref_json,
            "JSON diverged at {threads} threads"
        );
        assert_eq!(got.to_csv(), ref_csv, "CSV diverged at {threads} threads");
    }
}

#[test]
fn counters_columns_are_byte_identical_across_thread_counts() {
    // The internal-counters registry (scheduler memo/HK/probe tallies,
    // queue pops, pool high-water marks, grant-burst shape) is
    // simulation-domain only — a pure function of the seeded event
    // sequence. Serialized with `--counters` it must therefore be
    // byte-identical across sweep thread counts, same as the classic
    // columns. A wall-clock value leaking into a counter shows up here.
    let specs: Vec<ScenarioSpec> = subset().into_iter().filter(|s| s.n_ports <= 256).collect();
    assert!(
        specs.len() >= 4,
        "filtered subset still spans the hot paths"
    );
    let reference = SweepExecutor::with_threads(1).run(specs.clone());
    let ref_json = reference.to_json_with(true);
    let ref_csv = reference.to_csv_with(true);
    for name in xds_core::CounterSet::names() {
        assert!(
            ref_csv.lines().next().unwrap().contains(name),
            "counters CSV header must carry {name}"
        );
    }
    // At least one point must actually tick the scheduler counters —
    // all-zero columns would make this test vacuous.
    assert!(
        reference
            .points
            .iter()
            .filter_map(|p| p.report.as_ref().ok())
            .any(|r| r.counters.pool_allocs > 0 && r.counters.grant_bursts > 0),
        "counters never ticked across the whole subset"
    );
    for threads in [2usize, 8] {
        let got = SweepExecutor::with_threads(threads).run(specs.clone());
        assert_eq!(
            got.to_json_with(true),
            ref_json,
            "counters JSON diverged at {threads} threads"
        );
        assert_eq!(
            got.to_csv_with(true),
            ref_csv,
            "counters CSV diverged at {threads} threads"
        );
    }
}

#[test]
fn scale_stress_trace_is_byte_identical_across_repeats() {
    // Repeatability of the full report serialization (deeper than the
    // sweep row): the scale point exercises the schedule slab, the
    // chunked VOQ pool and the radix release queue at fabric scale.
    let spec = library::scenario("scale-stress")
        .expect("catalogue entry")
        .with_seed(15)
        .with_duration(SimDuration::from_micros(500));
    let a = spec.run().expect("runs").trace_json();
    let b = spec.run().expect("runs").trace_json();
    assert_eq!(a, b);
}
