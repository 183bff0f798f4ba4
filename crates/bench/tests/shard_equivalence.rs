//! K-invariance of the simulation core: every pinned bench-subset point
//! must produce **byte-identical** serialized output on 2, 4 or one
//! port-group shard per port as on one (`shards = 1`, the reference the
//! golden traces pin),
//! and arbitrary (non-contiguous) port→shard assignments must reproduce
//! the golden `fast_websearch` snapshot byte-for-byte.
//!
//! This is the integration-level face of the determinism contract stated
//! in `xds_core::runtime::shard`: sharding decides *how* the simulation
//! executes (per-shard event queues, VOQ banks and pools, windowed
//! between coordinator events), never *what* it computes. Events,
//! delivered bytes, drops, latency distributions and the behavioral
//! counters are invariant in the shard count and in the shape of the
//! shard map; only the structural ledgers (queue pops and pool
//! internals) may differ, because K shards own K queues and K pools.

use proptest::prelude::*;
use xds_bench::bench;
use xds_core::{ShardMap, SimBuilder};
use xds_scenario::{library, ScenarioSpec};
use xds_sim::{SimDuration, SimTime};

/// Counters that are shard-count-invariant by contract: pure functions
/// of the scheduler/grant/delivery event sequence and of the pairs the
/// traffic reached, which every shard layout reproduces exactly. The
/// structural ledgers (`queue_pops`, `pool_*`) are excluded — they
/// describe the executor's own data structures, of which a K-shard run
/// legitimately has K.
const BEHAVIORAL_COUNTERS: [&str; 16] = [
    "sched_memo_hits",
    "sched_hk_runs",
    "sched_probes",
    "sched_worklist_peak",
    "sched_bucket_peak",
    "voq_pairs",
    "grant_bursts",
    "grant_pkts_max",
    "delivery_batches",
    "fault_events_injected",
    "fault_degraded_ns_max",
    "fault_failover_bytes",
    "drop_voq_full",
    "drop_eps_full",
    "drop_sync_violation",
    "drop_link_dark",
];

/// The bench subset at test-friendly horizons (pinned seeds and shapes
/// untouched), with the shard count stripped back to 1 so each point's
/// K = 1 run is the reference the other shard counts are held to.
fn subset() -> Vec<ScenarioSpec> {
    bench::catalogue(true)
        .into_iter()
        .map(|s| {
            let d = if s.n_ports >= 1024 {
                SimDuration::from_micros(100)
            } else if s.n_ports >= 128 {
                SimDuration::from_micros(300)
            } else {
                return s.with_shards(1);
            };
            s.with_duration(d).with_shards(1)
        })
        .collect()
}

/// Under the full profile (the catalogue's), so the shipped observation
/// effects replay too. At K = n a shard queue holds only its host's
/// events, so NIC trains run to the host's next injection or the window's
/// end; at K = 1 another host's event usually ends them.
#[test]
fn bench_subset_is_byte_identical_across_shard_counts() {
    for spec in subset() {
        let reference = spec.run().expect("K = 1 runs");
        let ref_json = reference.trace_json();
        for k in [2usize, 4, spec.n_ports] {
            let got = spec
                .clone()
                .with_shards(k)
                .run()
                .unwrap_or_else(|e| panic!("{} at {k} shards: {e}", spec.name));
            assert_eq!(
                got.trace_json(),
                ref_json,
                "{} at {k} shards diverged from K = 1",
                spec.name
            );
            for name in BEHAVIORAL_COUNTERS {
                let pick = |r: &xds_core::RunReport| {
                    r.counters
                        .items()
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|&(_, v)| v)
                };
                assert_eq!(
                    pick(&got),
                    pick(&reference),
                    "{}: counter {name} moved at {k} shards",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn faulted_point_reproduces_on_sharded_cores_and_scattered_maps() {
    // Fault injection (link flaps, OCS misfires, scheduler stalls) is
    // coordinator-side and drawn from a dedicated RNG fork, so the
    // faulted trajectory — including every divert, dark-link drop and
    // degraded interval — must be invariant in the shard count *and* in
    // the shape of the port→shard map.
    let spec = library::scenario("fault-storm")
        .expect("catalogue entry")
        .with_ports(8)
        .with_duration(SimDuration::from_millis(2))
        .with_shards(1);
    let reference = spec.run().expect("K = 1 runs");
    assert!(
        reference.counters.fault_events_injected > 0,
        "the storm plan must actually inject faults"
    );
    assert!(
        reference.fault_degraded_ns > 0,
        "injected link faults must register degraded time"
    );
    let ref_json = reference.trace_json();
    for k in [2usize, 4] {
        let got = spec
            .clone()
            .with_shards(k)
            .run()
            .unwrap_or_else(|e| panic!("faulted run at {k} shards: {e}"));
        assert_eq!(
            got.trace_json(),
            ref_json,
            "faulted run at {k} shards diverged from K = 1"
        );
        assert_eq!(got.fault_degraded_ns, reference.fault_degraded_ns);
        assert_eq!(got.fault_failover_bytes, reference.fault_failover_bytes);
        for (name, v) in got.counters.items() {
            let want = reference
                .counters
                .items()
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, w)| w);
            if BEHAVIORAL_COUNTERS.contains(&name) {
                assert_eq!(Some(v), want, "counter {name} moved at {k} shards");
            }
        }
    }
    // A scattered, unbalanced port→shard assignment goes through the
    // same builder path and must not perturb the faulted trajectory.
    let map = ShardMap::from_assignment(vec![0, 1, 2, 0, 1, 2, 0, 1]).expect("valid map");
    let (cfg, workload, scheduler, estimator) = spec.build().expect("faulted spec builds");
    let got = SimBuilder::new(cfg)
        .workload(workload)
        .scheduler(scheduler)
        .estimator(estimator)
        .instrumentation(spec.profile.instrumentation())
        .faults(spec.faults.clone())
        .shard_map(map)
        .build()
        .expect("faulted sim builds")
        .run(SimTime::ZERO + spec.duration);
    assert_eq!(
        got.trace_json(),
        ref_json,
        "faulted run diverged under a scattered shard map"
    );
    assert_eq!(got.fault_degraded_ns, reference.fault_degraded_ns);
    assert_eq!(got.fault_failover_bytes, reference.fault_failover_bytes);
}

/// The golden fast-mode point, exactly as `tests/golden_trace.rs` pins
/// it: the `websearch` catalogue entry, seed 42, 3 ms.
fn golden_fast_spec() -> ScenarioSpec {
    library::scenario("websearch")
        .expect("catalogue entry")
        .with_name("golden-fast")
        .with_seed(42)
        .with_duration(SimDuration::from_millis(3))
}

fn golden_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()))
}

/// Runs the golden spec on an explicit (possibly scattered) shard map,
/// through the same builder path `ScenarioSpec::run` uses.
fn run_golden_with_map(map: ShardMap) -> xds_core::RunReport {
    let spec = golden_fast_spec();
    let (cfg, workload, scheduler, estimator) = spec.build().expect("golden spec builds");
    SimBuilder::new(cfg)
        .workload(workload)
        .scheduler(scheduler)
        .estimator(estimator)
        .instrumentation(spec.profile.instrumentation())
        .shard_map(map)
        .build()
        .expect("golden sim builds")
        .run(SimTime::ZERO + spec.duration)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary port→shard assignments — scattered, unbalanced, with
    /// any shard count the raw draw induces — reproduce the committed
    /// golden `fast_websearch` trace byte-for-byte, and its pinned
    /// behavioral counters exactly. The shard map is an execution
    /// detail; the golden files don't know it exists.
    #[test]
    fn random_shard_maps_reproduce_the_golden_websearch_point(
        raw in proptest::collection::vec(0usize..4, 8)
    ) {
        // Compress the raw draw to a dense 0..k relabeling (preserving
        // first-appearance order) so it is a valid assignment; the
        // relabeling keeps whatever scatter the draw produced.
        let mut labels: Vec<usize> = Vec::new();
        let assign: Vec<usize> = raw
            .iter()
            .map(|&r| {
                if let Some(pos) = labels.iter().position(|&l| l == r) {
                    pos
                } else {
                    labels.push(r);
                    labels.len() - 1
                }
            })
            .collect();
        let map = ShardMap::from_assignment(assign.clone())
            .unwrap_or_else(|e| panic!("compressed assignment {assign:?} invalid: {e}"));
        let report = run_golden_with_map(map);
        prop_assert_eq!(
            report.trace_json(),
            golden_file("fast_websearch.json"),
            "shard map {:?} drifted from the golden trace",
            assign
        );
        let golden_counters = golden_file("fast_websearch.counters.txt");
        for name in BEHAVIORAL_COUNTERS {
            let want = golden_counters
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .unwrap_or_else(|| panic!("golden counters lack {name}"))
                .to_string();
            let have = report
                .counters
                .items()
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v.to_string())
                .unwrap_or_else(|| panic!("report lacks counter {name}"));
            prop_assert_eq!(have, want, "counter {} moved under map {:?}", name, assign);
        }
    }
}
