//! Golden-trace regression tests: pinned-seed end-to-end runs whose full
//! [`RunReport`](xds_core::report::RunReport) serialization is snapshotted
//! under `tests/golden/` and asserted **byte-identical** on every run.
//!
//! The snapshots were captured on `main` *before* the hot-path runtime
//! overhaul (schedule slab ids in the event queue, scratch-buffer reuse,
//! borrowed permutations), so they pin the pre-refactor behavior: any
//! event-ordering or accounting drift introduced by a performance change
//! fails these tests with a precise field-level diff.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! XDS_UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! and commit the diff with an explanation of why the behavior moved.

use std::path::{Path, PathBuf};

use xds_core::report::RunReport;
use xds_scenario::{
    library, AppMix, InstrProfile, PlacementKind, ScenarioSpec, SchedulerKind, SwModelKind,
    SyncSpec, TrafficPattern,
};
use xds_sim::SimDuration;
use xds_traffic::FlowSizeDist;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The fast-mode (hardware placement) golden point: the `websearch`
/// catalogue entry — heavy-tailed sizes exercise the EPS (mice) and OCS
/// (elephants) paths plus the FCT machinery — pinned to seed 42.
fn fast_spec() -> ScenarioSpec {
    library::scenario("websearch")
        .expect("catalogue entry")
        .with_name("golden-fast")
        .with_seed(42)
        .with_duration(SimDuration::from_millis(3))
}

/// The slow-mode (software placement) golden point: a hotspot workload
/// with PTP-grade sync and a guard band — exercises host VOQs, control-
/// channel grants, skewed-clock transmission and sync-violation
/// accounting — pinned to seed 7.
fn slow_spec() -> ScenarioSpec {
    ScenarioSpec::new("golden-slow")
        .with_ports(8)
        .with_pattern(TrafficPattern::Hotspot {
            pairs: 2,
            fraction: 0.6,
            offset: 0,
        })
        .with_scheduler(SchedulerKind::Hotspot {
            threshold_bytes: 10_000,
        })
        .with_placement(PlacementKind::Software {
            model: SwModelKind::TunedUserspace,
            sync: SyncSpec::Ptp,
        })
        .with_reconfig(SimDuration::from_micros(100))
        .with_epoch(SimDuration::from_millis(1))
        .with_guard(SimDuration::from_micros(5))
        .with_seed(7)
        .with_duration(SimDuration::from_millis(12))
}

/// The gated-VoIP golden point: E4's `slow-sw-gated` configuration at
/// load 0.5 (`exp_voip_jitter`) — eight accelerated VoIP legs over a
/// websearch background under software placement, with `voip_on_ocs`
/// gating the calls behind grants like any elephant. Exercises the app
/// sends that wait in host memory for a grant beside the staged flows —
/// pinned to seed 21.
fn slow_gated_voip_spec() -> ScenarioSpec {
    ScenarioSpec::new("golden-slow-gated-voip")
        .with_ports(16)
        .with_sizes(FlowSizeDist::WebSearch)
        .with_load(0.5)
        .with_apps(AppMix::Voip {
            legs: 8,
            interval: SimDuration::from_millis(1),
        })
        .with_reconfig(SimDuration::from_millis(1))
        .with_placement(PlacementKind::Software {
            model: SwModelKind::KernelDriver,
            sync: SyncSpec::Ptp,
        })
        .with_scheduler(SchedulerKind::Hotspot {
            threshold_bytes: 100_000,
        })
        .with_voip_on_ocs(true)
        .with_seed(21)
        .with_duration(SimDuration::from_millis(80))
}

/// The fault-storm golden point: the `fault-storm` catalogue entry —
/// the websearch mix with every fault family armed (link flaps, OCS
/// misfires, scheduler stalls) — pinned to seed 42 at 8 ports. Pins the
/// entire degraded trajectory: fault draws, EPS failover, dark-link
/// drops and the degraded-time ledger.
fn fault_storm_spec() -> ScenarioSpec {
    library::scenario("fault-storm")
        .expect("catalogue entry")
        .with_name("golden-fault-storm")
        .with_ports(8)
        .with_seed(42)
        .with_duration(SimDuration::from_millis(2))
}

/// The counters registry as `{name} {value}` lines.
fn counters_dump(report: &RunReport) -> String {
    let mut got = String::new();
    for (name, value) in report.counters.items() {
        got.push_str(&format!("{name} {value}\n"));
    }
    got
}

fn check_golden(spec: ScenarioSpec, file: &str) {
    let report = spec.run().expect("golden spec must run");
    let got = report.trace_json();
    let path = golden_dir().join(file);
    if std::env::var_os("XDS_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with XDS_UPDATE_GOLDEN=1 to capture",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "golden trace {} drifted — the runtime's behavior changed. If the \
         change is intentional, regenerate with XDS_UPDATE_GOLDEN=1 and \
         commit the diff.",
        path.display()
    );
}

/// Snapshot-compare a counters dump (`{name} {value}` per line), with
/// the same `XDS_UPDATE_GOLDEN=1` regeneration path as the traces.
fn check_golden_counters(got: &str, file: &str) {
    let path = golden_dir().join(file);
    if std::env::var_os("XDS_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with XDS_UPDATE_GOLDEN=1 to capture",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "golden counters {} drifted — a deterministic internal tally moved. \
         If the change is intentional, regenerate with XDS_UPDATE_GOLDEN=1 \
         and commit the diff.",
        path.display()
    );
}

#[test]
fn golden_fast_mode_trace_is_byte_identical() {
    check_golden(fast_spec(), "fast_websearch.json");
}

/// The internal-counters registry on the fast golden point, pinned
/// **exactly**: every counter is a pure function of the seeded event
/// sequence, so a one-count drift in memo hits or pool churn is a
/// behavior change, not noise. Counters live outside `trace_json()`
/// (like the wall-clock phase split), so they get their own snapshot
/// instead of riding in the trace goldens.
#[test]
fn golden_fast_mode_counters_are_pinned_exactly() {
    let report = fast_spec().run().expect("golden spec must run");
    let got = counters_dump(&report);
    // The snapshot must not be vacuous: the fast path ticks the pool,
    // the grant machinery and the scheduler on this scenario.
    assert!(report.counters.pool_allocs > 0);
    assert!(report.counters.grant_bursts > 0);
    assert!(report.counters.delivery_batches > 0);
    check_golden_counters(&got, "fast_websearch.counters.txt");
}

/// The degraded trajectory under the full fault storm, pinned exactly:
/// fault injections are seeded coordinator-side draws, so the number of
/// injected events, the bytes failed over to the EPS and the dark-link
/// drop tally are as deterministic as the scheduler counters — any
/// drift means the fault machinery's draw order or failover behavior
/// changed.
#[test]
fn golden_fault_storm_counters_are_pinned_exactly() {
    let report = fault_storm_spec().run().expect("golden spec must run");
    let got = counters_dump(&report);
    // Non-vacuous: the storm must visibly inject and visibly degrade.
    assert!(report.counters.fault_events_injected > 0);
    assert!(report.fault_degraded_ns > 0);
    assert!(
        report.fault_failover_bytes > 0 || report.counters.drop_link_dark > 0,
        "degradation must be observable as failover bytes or dark-link drops"
    );
    check_golden_counters(&got, "fault_storm.counters.txt");
}

#[test]
fn golden_slow_mode_trace_is_byte_identical() {
    check_golden(slow_spec(), "slow_hotspot.json");
}

/// The slow-mode golden's counters, pinned exactly like the fast
/// point's: software placement keeps its staged flows and host VOQs in
/// the pools, so a move in the host side's pool churn or pair records
/// shows here.
#[test]
fn golden_slow_mode_counters_are_pinned_exactly() {
    let report = slow_spec().run().expect("golden spec must run");
    // Non-vacuous: the bulk flows went through a pool and were granted.
    assert!(report.counters.pool_allocs > 0);
    assert!(report.delivered_ocs_bytes > 0);
    check_golden_counters(&counters_dump(&report), "slow_hotspot.counters.txt");
}

#[test]
fn golden_slow_gated_voip_trace_is_byte_identical() {
    check_golden(slow_gated_voip_spec(), "slow_gated_voip.json");
}

/// Gated app sends and staged flows share the host side's queues, and
/// each source's shard owns them: four shards must reproduce one
/// shard's serialized report exactly.
#[test]
fn golden_slow_gated_voip_is_shard_count_invariant() {
    let spec = slow_gated_voip_spec();
    let k1 = spec.run().expect("golden spec must run");
    // Non-vacuous: some gated calls were granted and delivered.
    assert!(k1.latency_interactive.count() > 0);
    let k4 = spec.with_shards(4).run().expect("sharded spec must run");
    assert_eq!(k1.trace_json(), k4.trace_json(), "K = 4 vs K = 1");
}

/// The golden runs themselves must be deterministic, or byte-identity
/// against a snapshot would be meaningless: run each spec twice and
/// require identical serializations within the same process.
#[test]
fn golden_specs_are_self_deterministic() {
    for spec in [
        fast_spec(),
        slow_spec(),
        slow_gated_voip_spec(),
        fault_storm_spec(),
    ] {
        let a = spec.run().expect("spec runs").trace_json();
        let b = spec.run().expect("spec runs").trace_json();
        assert_eq!(a, b, "{} is not deterministic", spec.name);
    }
}

/// Instrumentation profiles must not perturb the simulation: on the
/// golden scenarios, `lean` (no per-packet observation) and `timeseries`
/// (full + epoch telemetry) must reproduce the full-fidelity run's
/// event count and byte accounting exactly. (The bench subset gets the
/// same check in `crates/bench/tests/instrument_equivalence.rs`.)
#[test]
fn golden_scenarios_are_profile_invariant() {
    for spec in [fast_spec(), slow_spec(), slow_gated_voip_spec()] {
        let full = spec.clone().run().expect("full runs");
        for profile in [InstrProfile::Lean, InstrProfile::TimeSeries] {
            let other = spec
                .clone()
                .with_profile(profile)
                .run()
                .expect("profiled run");
            let label = profile.label();
            assert_eq!(full.events, other.events, "{}: {label}", spec.name);
            assert_eq!(
                (full.delivered_ocs_bytes, full.delivered_eps_bytes),
                (other.delivered_ocs_bytes, other.delivered_eps_bytes),
                "{}: {label}",
                spec.name
            );
            assert_eq!(
                full.drops.total(),
                other.drops.total(),
                "{}: {label}",
                spec.name
            );
        }
    }
}
