//! The named scenario catalogue: the demand patterns the hybrid-switching
//! literature evaluates on, each as a ready-to-run (and ready-to-sweep)
//! [`ScenarioSpec`].
//!
//! Names are stable CLI-grade identifiers (`sweep run hotspot`), and every
//! entry deliberately differs from the default spec in the dimension it is
//! named for, so sweeping the library is already a scenario-diversity
//! study. To add a scenario, add an arm to [`scenario`] and its name to
//! [`ALL`].

use xds_core::fault::FaultPlan;
use xds_sim::SimDuration;
use xds_traffic::FlowSizeDist;

use crate::spec::{AppMix, ScenarioSpec, SchedulerKind, TrafficPattern};

/// Every name [`scenario`] recognizes, in catalogue order.
pub const ALL: [&str; 17] = [
    "uniform",
    "permutation",
    "hotspot",
    "incast",
    "shuffle",
    "websearch",
    "datamining",
    "voip-mix",
    "skewed-zipf",
    "churn",
    "scale-stress",
    "scale-stress-256",
    "scale-stress-512",
    "scale-stress-1024",
    "scale-stress-2048",
    "fault-storm",
    "flaky-links",
];

/// Every name the library recognizes, in catalogue order.
pub fn all_names() -> Vec<&'static str> {
    ALL.to_vec()
}

/// Looks a named scenario up. Returns `None` for unknown names.
///
/// All entries default to 8 ports, a 5 ms horizon and seed 1; scale them
/// with the [`ScenarioSpec`] builders or a [`crate::SweepGrid`].
pub fn scenario(name: &str) -> Option<ScenarioSpec> {
    let spec =
        match name {
            // All-to-all uniform: the friendliest case for packet switching,
            // the baseline every study starts from.
            "uniform" => ScenarioSpec::new("uniform").with_pattern(TrafficPattern::Uniform),

            // One hot destination per source: the best case for circuit
            // switching — a single permutation serves everything.
            "permutation" => ScenarioSpec::new("permutation")
                .with_pattern(TrafficPattern::Permutation { shift: 3 }),

            // A few rack pairs carry most of the load over a uniform
            // background: the c-Through/Helios motivating case.
            "hotspot" => ScenarioSpec::new("hotspot").with_pattern(TrafficPattern::Hotspot {
                pairs: 2,
                fraction: 0.6,
                offset: 0,
            }),

            // Many sources converge on one destination: the worst case for
            // any scheduler (the destination port is the bottleneck).
            "incast" => ScenarioSpec::new("incast")
                .with_pattern(TrafficPattern::Incast {
                    senders: 6,
                    target: 0,
                })
                .with_load(0.3),

            // Map-reduce-style staged shuffle: each stage is circuit-friendly,
            // the *transitions* cost reconfigurations.
            "shuffle" => ScenarioSpec::new("shuffle").with_pattern(TrafficPattern::ShuffleStages {
                period: SimDuration::from_millis(1),
            }),

            // Web-search (DCTCP-shaped) heavy-tailed sizes over uniform
            // pairs: mice ride the EPS, elephants need circuits.
            "websearch" => ScenarioSpec::new("websearch")
                .with_sizes(FlowSizeDist::WebSearch)
                .with_load(0.4),

            // Data-mining (VL2-shaped) sizes: even heavier tail, most bytes
            // in the elephants.
            "datamining" => ScenarioSpec::new("datamining")
                .with_sizes(FlowSizeDist::DataMining)
                .with_load(0.4),

            // Interactive VOIP legs over a web-search background: the §2
            // latency/jitter scenario.
            "voip-mix" => ScenarioSpec::new("voip-mix")
                .with_sizes(FlowSizeDist::WebSearch)
                .with_load(0.3)
                .with_apps(AppMix::Voip {
                    legs: 4,
                    interval: SimDuration::from_micros(500),
                }),

            // Zipf-skewed pair popularity: a handful of pairs dominate, the
            // rest form a long tail.
            "skewed-zipf" => ScenarioSpec::new("skewed-zipf")
                .with_pattern(TrafficPattern::Zipf { exponent: 1.2 }),

            // Large-fabric stress: 128 ports (sweepable to 256) of multi-ring
            // demand that needs all four configuration slots of a Solstice
            // decomposition per epoch — the scale point of the bench
            // catalogue (`sweep bench`), sized to saturate the schedule-
            // execution hot path rather than any single pair.
            "scale-stress" => ScenarioSpec::new("scale-stress")
                .with_ports(128)
                .with_pattern(TrafficPattern::MultiRing {
                    shifts: vec![1, 9, 33, 57],
                })
                .with_scheduler(SchedulerKind::Solstice { perms: 4 })
                .with_load(0.6)
                .with_duration(SimDuration::from_millis(2)),

            // The 256-port middle rung, derived from the base entry so
            // the specs cannot drift. This is the flight-recorder
            // reference point: small enough that a traced run stays
            // interactive, large enough that the Solstice probe/HK/memo
            // spans carry real work. From 256 ports up, the rungs default
            // to one shard per source port: one queue holding hundreds of
            // hosts' events costs more than the barriers of K = n (at
            // 128 ports K = n is slower, so the base entry keeps K = 1).
            // Results are invariant in the shard count.
            "scale-stress-256" => scenario("scale-stress")
                .expect("base entry exists")
                .with_name("scale-stress-256")
                .with_ports(256)
                .with_shards(256)
                .with_duration(SimDuration::from_millis(1)),

            // The same multi-ring stress at half-kilofabric scale: 512
            // ports exercise the VOQ pool, slab-id schedules and sharded
            // windows at the sizes they were built for. The horizon is
            // short — per-epoch scheduling is O(n²)-ish — and sweepable
            // up when a study needs more.
            "scale-stress-512" => scenario("scale-stress")
                .expect("base entry exists")
                .with_name("scale-stress-512")
                .with_ports(512)
                .with_shards(512)
                .with_duration(SimDuration::from_millis(1)),

            // Kilofabric stress: 1024 ports of pooled data structures
            // (VOQ records for the 4,096 pairs the rings reach, slab
            // schedules, no per-packet allocation). Like the 256, 512
            // and 2048 rungs it defaults to one shard per source port,
            // the fastest single-CPU layout measured (~1.5x one shard
            // for the whole fabric); `--shards 1` runs it as one shard,
            // with identical results.
            "scale-stress-1024" => scenario("scale-stress")
                .expect("base entry exists")
                .with_name("scale-stress-1024")
                .with_ports(1024)
                .with_shards(1024)
                .with_duration(SimDuration::from_micros(500)),

            // Two-kilofabric stress: 2048 ports. The VOQ banks hold
            // records only for the pairs the rings reach (4 per source),
            // so the shard count buys window locality, not footprint: the
            // entry defaults to one shard per source port, each window
            // draining one port's events against its own small bank, the
            // fastest single-CPU configuration measured. Results are
            // invariant in the shard count; the default only picks the
            // execution layout.
            "scale-stress-2048" => scenario("scale-stress")
                .expect("base entry exists")
                .with_name("scale-stress-2048")
                .with_ports(2048)
                .with_shards(2048)
                .with_duration(SimDuration::from_micros(250)),

            // The websearch mix under every fault family at once — link
            // flaps, OCS misfires, scheduler stalls. The degraded-mode
            // reference point: failover and drop counters must be nonzero
            // and the run must stay deterministic across cores.
            "fault-storm" => scenario("websearch")
                .expect("base entry exists")
                .with_name("fault-storm")
                .with_faults(FaultPlan::storm()),

            // Uniform traffic over links that fail and repair on a slow
            // cycle: isolates the link-failover path from misfire/stall
            // effects.
            "flaky-links" => scenario("uniform")
                .expect("base entry exists")
                .with_name("flaky-links")
                .with_faults(FaultPlan::flaky_links()),

            // Adversarial demand churn: the hotspot jumps every millisecond,
            // stressing demand estimation and reconfiguration agility.
            "churn" => ScenarioSpec::new("churn")
                .with_pattern(TrafficPattern::ChurnHotspot {
                    pairs: 2,
                    fraction: 0.8,
                    period: SimDuration::from_millis(1),
                    steps: 4,
                })
                .with_scheduler(SchedulerKind::GreedyLqf),

            _ => return None,
        };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_at_least_eight_entries_all_resolvable() {
        assert!(ALL.len() >= 8);
        for name in ALL {
            let spec = scenario(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(spec.name, name);
        }
        assert!(scenario("no-such-scenario").is_none());
    }

    #[test]
    fn entries_are_pairwise_distinct() {
        let specs: Vec<ScenarioSpec> = ALL.iter().map(|n| scenario(n).unwrap()).collect();
        for i in 0..specs.len() {
            for j in i + 1..specs.len() {
                assert_ne!(specs[i], specs[j], "{} duplicates {}", ALL[i], ALL[j]);
            }
        }
    }

    #[test]
    fn every_entry_builds() {
        for name in ALL {
            let spec = scenario(name).unwrap();
            spec.build()
                .unwrap_or_else(|e| panic!("{name} failed to build: {e}"));
        }
    }
}
