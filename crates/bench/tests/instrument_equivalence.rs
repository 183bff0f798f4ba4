//! Instrumentation-profile equivalence: the profile a run is observed at
//! must never change what the run *does*.
//!
//! Contract (enforced here, relied on by `sweep bench` running every
//! point under the `lean` profile): for every pinned bench point, the
//! `lean` and `timeseries` profiles produce **exactly** the event count,
//! delivered bytes and per-cause drops of the `full` profile. Full
//! fidelity itself is pinned byte-for-byte by the golden-trace tests at
//! the workspace root (`tests/golden_trace.rs`), which run through the
//! same `SimBuilder` and recorder.

use xds_bench::bench;
use xds_scenario::{InstrProfile, ScenarioSpec};
use xds_sim::SimDuration;

/// The bench subset at test-friendly horizons (smoke mode, scale points
/// further shortened), keeping every pinned seed and scenario shape.
fn subset() -> Vec<ScenarioSpec> {
    bench::catalogue(true)
        .into_iter()
        .map(|s| {
            if s.n_ports >= 128 {
                s.with_duration(SimDuration::from_micros(300))
            } else {
                s
            }
        })
        .collect()
}

#[test]
fn lean_profile_matches_full_on_every_bench_point() {
    for spec in subset() {
        let full = spec
            .clone()
            .with_profile(InstrProfile::Full)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let lean = spec
            .clone()
            .with_profile(InstrProfile::Lean)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(
            full.events, lean.events,
            "{}: lean changed the event count",
            spec.name
        );
        assert_eq!(
            full.delivered_bytes(),
            lean.delivered_bytes(),
            "{}: lean changed delivered bytes",
            spec.name
        );
        assert_eq!(
            (full.delivered_ocs_bytes, full.delivered_eps_bytes),
            (lean.delivered_ocs_bytes, lean.delivered_eps_bytes),
            "{}: lean moved bytes between planes",
            spec.name
        );
        assert_eq!(
            full.offered_bytes, lean.offered_bytes,
            "{}: lean changed the offered workload",
            spec.name
        );
        assert_eq!(
            full.decisions, lean.decisions,
            "{}: lean changed the decision cadence",
            spec.name
        );
        assert_eq!(
            full.drops, lean.drops,
            "{}: lean changed drop accounting",
            spec.name
        );
        assert_eq!(
            full.counters.voq_pairs, lean.counters.voq_pairs,
            "{}: lean changed the VOQ pairs the traffic reached",
            spec.name
        );
        // And the lean point actually skipped the observation work.
        assert_eq!(lean.latency_bulk.count(), 0, "{}", spec.name);
        assert_eq!(lean.completed_flows, 0, "{}", spec.name);
    }
}

#[test]
fn timeseries_profile_observes_without_perturbing() {
    // One fast-mode and the slow-mode point are enough: the timeseries
    // profile only adds epoch-boundary reads.
    let picks: Vec<ScenarioSpec> = subset()
        .into_iter()
        .filter(|s| s.name == "uniform/n16" || s.name == "hotspot-sw/n16")
        .collect();
    assert_eq!(picks.len(), 2, "expected both pinned picks");
    for spec in picks {
        let full = spec.clone().with_profile(InstrProfile::Full).run().unwrap();
        let ts = spec
            .clone()
            .with_profile(InstrProfile::TimeSeries)
            .run()
            .unwrap();
        assert_eq!(full.events, ts.events, "{}", spec.name);
        assert_eq!(
            full.counters.voq_pairs, ts.counters.voq_pairs,
            "{}",
            spec.name
        );
        assert_eq!(
            full.delivered_bytes(),
            ts.delivered_bytes(),
            "{}",
            spec.name
        );
        // Full fidelity rides along with the series…
        assert_eq!(
            full.latency_bulk.p99(),
            ts.latency_bulk.p99(),
            "{}",
            spec.name
        );
        assert_eq!(
            full.demand_error_mean, ts.demand_error_mean,
            "{}",
            spec.name
        );
        // …and the series is epoch-resolution.
        let series = ts.timeseries.expect("timeseries profile records");
        assert_eq!(series.len() as u64, ts.decisions, "{}", spec.name);
    }
}

#[test]
fn bench_runs_lean_by_default_and_records_the_profile() {
    // Two 16-port points at smoke horizons keep the unit test fast.
    let specs: Vec<ScenarioSpec> = bench::catalogue(true)
        .into_iter()
        .filter(|s| s.n_ports == 16)
        .take(2)
        .collect();
    let run = bench::run_bench(specs, "smoke", |_| {}).unwrap();
    let json = run.to_json();
    assert!(json.contains("\"profile\": \"lean\""), "{json}");
    assert!(json.contains("\"fidelity\": \"exact\""), "{json}");
    assert!(run.total_events() > 0);
}
