//! The CI liveness pass over the pinned bench catalogue: `sweep bench`.
//!
//! Perf is judged by the repository benchmark (`perfbench/`, declared
//! in `BENCHMARK.json`), not here. This module pins a catalogue subset
//! (fixed scenarios, fixed seeds, fixed durations) and runs each point
//! once, sequentially on one thread, under the lean instrumentation
//! profile at the exact tier. Every point records its events, delivered
//! bytes, wall-clock and epoch-phase split, so CI can check that every
//! point still runs and that events and bytes do not move with the
//! shard count. The same catalogue is the estimate tier's validation
//! corpus ([`crate::validate`]).
//!
//! The pinned subset spans the runtime's distinct hot paths:
//!
//! * `uniform` / `websearch` — fast-mode packet pump + EPS/OCS split;
//! * `uniform-ewma` / `uniform-countmin` — the non-mirror epoch path
//!   (ground-truth snapshot + L1 error pass) that the mirror points
//!   skip entirely;
//! * `churn` — demand estimation under matrix rotation;
//! * `hotspot-sw` — slow-mode host VOQs, control-channel grants;
//! * `scale-stress` at 128, 256, 512, 1024 and 2048 ports — multi-entry
//!   schedule execution at fabric scale (each point also records a
//!   wall-clock phase split: estimate / decompose / apply). The points
//!   from 256 ports up run at K = n shards (one source port per shard):
//!   each window then drains one port's events against its own small
//!   event queue and VOQ bank, which holds only the pairs that port
//!   sends to; at 128 ports K = n is slower than one shard. Events and
//!   delivered bytes are shard-count-invariant by the core's
//!   determinism contract, so forcing another K moves neither.
//!
//! `--smoke` shrinks every horizon ~20× so CI can prove the harness
//! itself still runs (seconds, not minutes) without producing numbers
//! anyone should compare.

use std::time::Instant;

use xds_scenario::{
    library, EstimatorKind, Fidelity, InstrProfile, PlacementKind, ScenarioSpec, SwModelKind,
    SyncSpec, TrafficPattern,
};
use xds_sim::SimDuration;

/// One measured point of the pass.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Point name (`<scenario>/n<ports>`).
    pub name: String,
    /// Scheduler tag (parameterized).
    pub scheduler: String,
    /// Fabric port count.
    pub n_ports: usize,
    /// Simulated horizon.
    pub duration: SimDuration,
    /// Pinned seed.
    pub seed: u64,
    /// Events the simulation processed.
    pub events: u64,
    /// Wall-clock nanoseconds the point took.
    pub wall_ns: u128,
    /// Total delivered bytes (sanity anchor: must not drift run-to-run).
    pub delivered_bytes: u64,
    /// Wall-clock ns the epoch path spent in request intake + demand
    /// estimation + error sampling.
    pub phase_estimate_ns: u64,
    /// Wall-clock ns spent inside `Scheduler::schedule` — the
    /// decomposition/matching work that dominates large-fabric points.
    pub phase_decompose_ns: u64,
    /// Wall-clock ns spent executing grant bursts at slot activation.
    pub phase_apply_ns: u64,
}

impl BenchPoint {
    /// Simulation throughput in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 * 1e9 / self.wall_ns as f64
    }
}

/// A completed liveness pass.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// Per-point measurements, in catalogue order.
    pub points: Vec<BenchPoint>,
}

impl BenchRun {
    /// Total events across all points.
    pub fn total_events(&self) -> u64 {
        self.points.iter().map(|p| p.events).sum()
    }

    /// Total wall-clock nanoseconds across all points.
    pub fn total_wall_ns(&self) -> u128 {
        self.points.iter().map(|p| p.wall_ns).sum()
    }

    /// Aggregate events/second over the whole subset.
    pub fn events_per_sec(&self) -> f64 {
        let w = self.total_wall_ns();
        if w == 0 {
            return 0.0;
        }
        self.total_events() as f64 * 1e9 / w as f64
    }

    /// Serializes the run as the bench JSON artifact. Every point ran
    /// lean at the exact tier ([`run_bench`]), and the artifact says so.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"schema\": \"xds-bench-v1\",");
        let _ = writeln!(o, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(o, "  \"profile\": \"lean\",");
        let _ = writeln!(o, "  \"fidelity\": \"exact\",");
        o.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(
                o,
                "    {{\"name\": \"{}\", \"scheduler\": \"{}\", \"n_ports\": {}, \
                 \"duration_ns\": {}, \"seed\": {}, \"events\": {}, \"wall_ns\": {}, \
                 \"events_per_sec\": {:.0}, \"delivered_bytes\": {}, \
                 \"phase_estimate_ns\": {}, \"phase_decompose_ns\": {}, \
                 \"phase_apply_ns\": {}}}",
                p.name,
                p.scheduler,
                p.n_ports,
                p.duration.as_nanos(),
                p.seed,
                p.events,
                p.wall_ns,
                p.events_per_sec(),
                p.delivered_bytes,
                p.phase_estimate_ns,
                p.phase_decompose_ns,
                p.phase_apply_ns
            );
            if i + 1 < self.points.len() {
                o.push(',');
            }
            o.push('\n');
        }
        o.push_str("  ],\n");
        let _ = writeln!(
            o,
            "  \"total\": {{\"events\": {}, \"wall_ns\": {}, \"events_per_sec\": {:.0}}}",
            self.total_events(),
            self.total_wall_ns(),
            self.events_per_sec()
        );
        o.push_str("}\n");
        o
    }
}

/// The pinned catalogue subset. `smoke` shrinks every horizon ~20× for
/// the CI liveness check.
pub fn catalogue(smoke: bool) -> Vec<ScenarioSpec> {
    let ms =
        |full: u64, smoke_ms: u64| SimDuration::from_millis(if smoke { smoke_ms } else { full });
    let mut specs = vec![
        library::scenario("uniform")
            .expect("catalogue entry")
            .with_ports(16)
            .with_seed(11)
            .with_duration(ms(20, 1)),
        library::scenario("websearch")
            .expect("catalogue entry")
            .with_ports(16)
            .with_seed(12)
            .with_duration(ms(20, 1)),
        // 100 ms horizon: at 20 ms this point finished in ~4 ms of
        // wall-clock, entirely inside the host's noise floor.
        library::scenario("churn")
            .expect("catalogue entry")
            .with_ports(16)
            .with_seed(13)
            .with_duration(ms(100, 1)),
        // Slow-path point: host VOQs + control-channel grants.
        ScenarioSpec::new("hotspot-sw")
            .with_ports(16)
            .with_pattern(TrafficPattern::Hotspot {
                pairs: 4,
                fraction: 0.6,
                offset: 0,
            })
            .with_placement(PlacementKind::Software {
                model: SwModelKind::TunedUserspace,
                sync: SyncSpec::Ptp,
            })
            .with_reconfig(SimDuration::from_micros(100))
            .with_epoch(SimDuration::from_millis(1))
            .with_seed(14)
            .with_duration(ms(40, 2)),
        library::scenario("scale-stress")
            .expect("catalogue entry")
            .with_seed(15)
            .with_duration(ms(20, 1)),
        // From 256 ports up, one shard per port: a single queue holding
        // every host's events costs more than K = n's barriers.
        library::scenario("scale-stress")
            .expect("catalogue entry")
            .with_ports(256)
            .with_seed(16)
            .with_shards(256)
            .with_duration(ms(10, 1)),
        // Non-mirror estimators: the epoch loop's ground-truth snapshot
        // and L1 pass are in the catalogue only through these points
        // (every other fast-mode point mirrors occupancy).
        library::scenario("uniform")
            .expect("catalogue entry")
            .with_name("uniform-ewma")
            .with_estimator(EstimatorKind::Ewma { alpha: 0.3 })
            .with_ports(16)
            .with_seed(17)
            .with_duration(ms(20, 1)),
        library::scenario("uniform")
            .expect("catalogue entry")
            .with_name("uniform-countmin")
            .with_estimator(EstimatorKind::CountMin {
                depth: 4,
                width: 64,
                decay: SimDuration::from_micros(500),
            })
            .with_ports(16)
            .with_seed(18)
            .with_duration(ms(20, 1)),
        // Half-kilofabric scale point, one shard per port.
        library::scenario("scale-stress")
            .expect("catalogue entry")
            .with_ports(512)
            .with_seed(19)
            .with_shards(512)
            .with_duration(ms(4, 1)),
        // The kilofabric point: 1024 ports, where Solstice's epoch path
        // (worklist probing + matching) dominates wall-clock well before
        // the packet path — the per-phase timing fields exist to keep
        // that split measurable. 2 ms is the sustainable horizon chosen
        // in PR 4 (~200 epochs; seconds of wall-clock, not minutes).
        library::scenario("scale-stress")
            .expect("catalogue entry")
            .with_ports(1024)
            .with_seed(20)
            .with_shards(1024)
            .with_duration(if smoke {
                SimDuration::from_micros(250)
            } else {
                SimDuration::from_millis(2)
            }),
        // The two-kilofabric rung, one shard per port: each shard's VOQ
        // bank holds records only for the pairs its host sends to (4 of
        // 2048 under multi-ring), and each window drains one port's
        // events against its own small bank and pools.
        library::scenario("scale-stress")
            .expect("catalogue entry")
            .with_ports(2048)
            .with_seed(21)
            .with_shards(2048)
            .with_duration(if smoke {
                SimDuration::from_micros(100)
            } else {
                SimDuration::from_millis(1)
            }),
        // Every fault family at once (link flaps, OCS misfires, scheduler
        // stalls) over the websearch mix: keeps the failover/degradation
        // machinery in the catalogue and pins its determinism.
        library::scenario("fault-storm")
            .expect("catalogue entry")
            .with_ports(16)
            .with_seed(22)
            .with_duration(ms(20, 1)),
    ];
    for s in &mut specs {
        let named = format!("{}/n{}", s.name, s.n_ports);
        *s = s.clone().with_name(named);
    }
    specs
}

/// Runs every point once, sequentially, timing each; `progress` is
/// called with a one-line summary after each point. Points run under
/// [`InstrProfile::Lean`] at [`Fidelity::Exact`], through the sweep
/// engine's guarded runner ([`xds_scenario::run_point_guarded`]), so a
/// panicking point surfaces as an error naming it, not a crash.
pub fn run_bench(
    specs: Vec<ScenarioSpec>,
    mode: &str,
    mut progress: impl FnMut(&BenchPoint),
) -> Result<BenchRun, String> {
    let mut points = Vec::with_capacity(specs.len());
    for spec in specs {
        let spec = spec
            .with_profile(InstrProfile::Lean)
            .with_fidelity(Fidelity::Exact);
        let t0 = Instant::now();
        let report = xds_scenario::run_point_guarded(&spec, None)
            .map_err(|e| format!("bench point {}: {e}", spec.name))?;
        let wall_ns = t0.elapsed().as_nanos();
        let p = BenchPoint {
            name: spec.name.clone(),
            scheduler: spec.scheduler.tag(),
            n_ports: spec.n_ports,
            duration: spec.duration,
            seed: spec.seed,
            events: report.events,
            wall_ns,
            delivered_bytes: report.delivered_bytes(),
            phase_estimate_ns: report.phases.estimate,
            phase_decompose_ns: report.phases.decompose,
            phase_apply_ns: report.phases.apply,
        };
        progress(&p);
        points.push(p);
    }
    Ok(BenchRun {
        mode: mode.to_string(),
        points,
    })
}

/// Today's date as `YYYY-MM-DD` (UTC), from the system clock — no
/// external time crates, so the civil-date arithmetic is inlined
/// (Howard Hinnant's `civil_from_days`).
pub fn today_string() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_points_are_pinned_and_distinct() {
        let full = catalogue(false);
        assert!(full.len() >= 5, "subset must span the hot paths");
        let names: Vec<&str> = full.iter().map(|s| s.name.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "point names collide: {names:?}");
        // Seeds are pinned and distinct so the subset is reproducible.
        let mut seeds: Vec<u64> = full.iter().map(|s| s.seed).collect();
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), full.len());
        // The scale points are present at all five fabric sizes.
        assert!(names.contains(&"scale-stress/n128"));
        assert!(names.contains(&"scale-stress/n256"));
        assert!(names.contains(&"scale-stress/n512"));
        assert!(names.contains(&"scale-stress/n1024"));
        assert!(names.contains(&"scale-stress/n2048"));
        // The rungs from 256 ports up run on the sharded core.
        for s in &full {
            if s.n_ports >= 256 {
                assert!(s.shards > 1, "{} must run sharded", s.name);
            }
        }
        // The non-mirror estimator points keep the ground-truth snapshot
        // + L1 epoch path in the catalogue.
        assert!(names.contains(&"uniform-ewma/n16"));
        assert!(names.contains(&"uniform-countmin/n16"));
        // The fault-storm point keeps the failover machinery in the
        // catalogue, with an actually-armed plan.
        assert!(names.contains(&"fault-storm/n16"));
        let storm = full.iter().find(|s| s.name == "fault-storm/n16").unwrap();
        assert!(
            storm.faults.as_ref().is_some_and(|p| p.is_active()),
            "fault-storm must arm a fault plan"
        );
        let full = catalogue(false);
        for s in &full {
            let mirror = s.estimator == xds_scenario::EstimatorKind::Mirror;
            if s.name.contains("ewma") || s.name.contains("countmin") {
                assert!(!mirror, "{} must exercise a non-mirror estimator", s.name);
            }
        }
    }

    #[test]
    fn smoke_catalogue_is_strictly_shorter() {
        let full = catalogue(false);
        let smoke = catalogue(true);
        assert_eq!(full.len(), smoke.len());
        for (f, s) in full.iter().zip(&smoke) {
            assert!(s.duration < f.duration, "{} not shrunk", f.name);
            assert_eq!(f.seed, s.seed, "smoke must keep the pinned seed");
        }
    }

    #[test]
    fn smoke_bench_runs_end_to_end() {
        // Shrink further so the unit test stays fast: just the two
        // 16-port fast-mode points at 1 ms.
        let specs: Vec<ScenarioSpec> = catalogue(true)
            .into_iter()
            .filter(|s| s.n_ports == 16)
            .take(2)
            .collect();
        let run = run_bench(specs, "smoke", |_| {}).unwrap();
        assert_eq!(run.points.len(), 2);
        assert!(run.total_events() > 0);
        assert!(run.events_per_sec() > 0.0);
    }

    #[test]
    fn today_string_is_iso_shaped() {
        let d = today_string();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(&d[4..5], "-");
        assert_eq!(&d[7..8], "-");
        assert!(d[..4].parse::<u32>().unwrap() >= 2024);
    }
}
