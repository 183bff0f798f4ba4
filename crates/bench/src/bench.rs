//! The reproducible perf baseline: `sweep bench`.
//!
//! Simulation cost is a first-class metric of this project — "as fast as
//! the hardware allows" is unfalsifiable without a trajectory — so this
//! module pins a catalogue subset (fixed scenarios, fixed seeds, fixed
//! durations) and measures **wall-clock and events/second per point**,
//! emitting a `BENCH_<date>.json` artifact every future PR can diff
//! against. Points run sequentially on one thread: the quantity under
//! test is the cost of one simulation, not sweep parallelism.
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
//!   schedule execution at fabric scale; per-event memory traffic
//!   dominates up to 512, and at 1024 the per-epoch scheduling path
//!   itself becomes the quantity under test (each point also records a
//!   wall-clock phase split: estimate / decompose / apply). The two
//!   largest points run at K = n shards (one source row per shard):
//!   each window then drains one port's events against an L2-resident
//!   VOQ row instead of streaming the full n² bank, which is the
//!   locality optimization under test — on one CPU it beats K = 1
//!   ~1.5× at both rungs, and the win grows under cache pressure from
//!   co-tenants. Events and delivered bytes are shard-count-invariant
//!   by the core's determinism contract, so these points stay
//!   comparable to K = 1 baselines.
//!
//! `--smoke` shrinks every horizon ~20× so CI can prove the harness
//! itself still runs (seconds, not minutes) without producing numbers
//! anyone should compare.
//!
//! When the subset grows, older baselines lack the new points; the
//! aggregate `speedup` is therefore computed over the **matched**
//! points only (present in both runs), so adding a point never
//! mechanically inflates or deflates the trajectory.

use std::time::Instant;

use xds_scenario::{
    library, EstimatorKind, Fidelity, InstrProfile, PlacementKind, ScenarioSpec, SwModelKind,
    SyncSpec, TrafficPattern,
};
use xds_sim::SimDuration;

/// One measured point of the baseline.
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
    /// Wall-clock nanoseconds the point took (fastest repeat).
    pub wall_ns: u128,
    /// Total delivered bytes (sanity anchor: must not drift run-to-run).
    pub delivered_bytes: u64,
    /// Wall-clock ns the epoch path spent in request intake + demand
    /// estimation + error sampling (fastest repeat).
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

/// A completed baseline run.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// ISO date the run was taken (`YYYY-MM-DD`).
    pub date: String,
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// Runs per point; each point records its fastest (the documented
    /// fastest-of-N measurement method, as a flag instead of a by-hand
    /// loop).
    pub repeats: u32,
    /// Instrumentation profile the points ran under (`lean` is the
    /// default: the quantity under test is the simulation, not the
    /// observation; events/bytes are profile-invariant by contract).
    pub profile: String,
    /// Fidelity tier the points ran at (`exact` is the default; an
    /// estimate-tier bench measures the estimator's cost, and its
    /// numbers must never be diffed against an exact baseline — see
    /// [`Baseline::fidelity_mismatch_warning`]).
    pub fidelity: String,
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

    /// Aggregate speedup over the points present in **both** runs.
    /// Comparing intersection aggregates on *both sides* keeps the
    /// speedup meaningful when the pinned subset changes in either
    /// direction: a freshly added point has no baseline counterpart and
    /// a retired baseline point no longer weighs the denominator.
    pub fn matched_speedup(&self, baseline: &Baseline) -> MatchedSpeedup {
        let mut events = 0u64;
        let mut wall = 0u128;
        let mut base_events = 0u64;
        let mut base_wall = 0u128;
        let mut base_exact = true;
        let mut matched = 0usize;
        for p in &self.points {
            let Some(bp) = baseline.point(&p.name) else {
                continue;
            };
            matched += 1;
            events += p.events;
            wall += p.wall_ns;
            match (bp.events, bp.wall_ns) {
                (Some(e), Some(w)) => {
                    base_events += e;
                    base_wall += w;
                }
                _ => base_exact = false,
            }
        }
        let run_eps = if wall == 0 {
            0.0
        } else {
            events as f64 * 1e9 / wall as f64
        };
        // Hand-edited baselines may lack the raw counters; fall back to
        // the whole-subset aggregate rather than a partial sum (the
        // artifact then says so via `matched_baseline_exact`).
        let base_eps = if base_exact && base_wall > 0 {
            base_events as f64 * 1e9 / base_wall as f64
        } else {
            base_exact = false;
            baseline.total_events_per_sec
        };
        MatchedSpeedup {
            matched,
            run_events_per_sec: run_eps,
            baseline_events_per_sec: base_eps,
            baseline_exact: base_exact,
        }
    }

    /// Serializes the run (and, when given, the baseline it is being
    /// compared against) as the `BENCH_<date>.json` artifact.
    pub fn to_json(&self, baseline: Option<&Baseline>) -> String {
        use std::fmt::Write as _;
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"schema\": \"xds-bench-v1\",");
        let _ = writeln!(o, "  \"date\": \"{}\",", self.date);
        let _ = writeln!(o, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(o, "  \"repeats\": {},", self.repeats);
        let _ = writeln!(o, "  \"profile\": \"{}\",", self.profile);
        let _ = writeln!(o, "  \"fidelity\": \"{}\",", self.fidelity);
        o.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(
                o,
                "    {{\"name\": \"{}\", \"scheduler\": \"{}\", \"n_ports\": {}, \
                 \"duration_ns\": {}, \"seed\": {}, \"events\": {}, \"wall_ns\": {}, \
                 \"events_per_sec\": {:.0}, \"delivered_bytes\": {}, \
                 \"phase_estimate_ns\": {}, \"phase_decompose_ns\": {}, \
                 \"phase_apply_ns\": {}",
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
            if let Some(b) = baseline {
                if let Some(base_eps) = b.point_events_per_sec(&p.name) {
                    let _ = write!(
                        o,
                        ", \"baseline_events_per_sec\": {base_eps:.0}, \"speedup\": {:.2}",
                        p.events_per_sec() / base_eps
                    );
                }
            }
            o.push('}');
            if i + 1 < self.points.len() {
                o.push(',');
            }
            o.push('\n');
        }
        o.push_str("  ],\n");
        let _ = writeln!(
            o,
            "  \"total\": {{\"events\": {}, \"wall_ns\": {}, \"events_per_sec\": {:.0}}}{}",
            self.total_events(),
            self.total_wall_ns(),
            self.events_per_sec(),
            if baseline.is_some() { "," } else { "" }
        );
        if let Some(b) = baseline {
            let m = self.matched_speedup(b);
            let _ = write!(
                o,
                "  \"baseline\": {{\"date\": \"{}\", \"events_per_sec\": {:.0}, \
                 \"matched_points\": {}",
                b.date, b.total_events_per_sec, m.matched
            );
            if let Some(speedup) = m.speedup() {
                let _ = write!(
                    o,
                    ", \"matched_events_per_sec\": {:.0}, \
                     \"matched_baseline_events_per_sec\": {:.0}, \
                     \"matched_baseline_exact\": {}, \"speedup\": {speedup:.2}",
                    m.run_events_per_sec, m.baseline_events_per_sec, m.baseline_exact
                );
            }
            o.push_str("}\n");
        }
        o.push_str("}\n");
        o
    }
}

/// The aggregate comparison over the intersection of two runs' points.
#[derive(Debug, Clone, Copy)]
pub struct MatchedSpeedup {
    /// Points present in both runs.
    pub matched: usize,
    /// This run's aggregate events/second over the matched points.
    pub run_events_per_sec: f64,
    /// The baseline's aggregate events/second over the matched points
    /// (its whole-subset aggregate when raw counters were unavailable —
    /// see `baseline_exact`).
    pub baseline_events_per_sec: f64,
    /// Whether the baseline side was recomputed over exactly the
    /// matched points (true for any artifact this tool emitted).
    pub baseline_exact: bool,
}

impl MatchedSpeedup {
    /// The aggregate speedup, or `None` when nothing matched (or either
    /// side is degenerate) — callers must not report a number then.
    pub fn speedup(&self) -> Option<f64> {
        (self.matched > 0 && self.run_events_per_sec > 0.0 && self.baseline_events_per_sec > 0.0)
            .then(|| self.run_events_per_sec / self.baseline_events_per_sec)
    }
}

/// One point of a previously-emitted baseline.
#[derive(Debug, Clone)]
pub struct BaselinePoint {
    /// Point name (`<scenario>/n<ports>`).
    pub name: String,
    /// Events/second the baseline recorded for it.
    pub events_per_sec: f64,
    /// Raw event count, when the artifact carried it.
    pub events: Option<u64>,
    /// Raw wall-clock nanoseconds, when the artifact carried it.
    pub wall_ns: Option<u128>,
}

/// A previously-emitted baseline, parsed back for comparison.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Date of the baseline run.
    pub date: String,
    /// Instrumentation profile the baseline ran under, when the artifact
    /// recorded one (older hand-edited baselines may lack the line).
    pub profile: Option<String>,
    /// Fidelity tier the baseline ran at, when the artifact recorded
    /// one (artifacts predating the fidelity axis lack the line and
    /// were all exact by construction).
    pub fidelity: Option<String>,
    /// Aggregate events/second of the baseline.
    pub total_events_per_sec: f64,
    /// Per-point measurements, in artifact order.
    pub per_point: Vec<BaselinePoint>,
}

impl Baseline {
    /// The baseline's measurement of a named point, if present.
    pub fn point(&self, name: &str) -> Option<&BaselinePoint> {
        self.per_point.iter().find(|p| p.name == name)
    }

    /// Baseline events/second for a named point, if present.
    pub fn point_events_per_sec(&self, name: &str) -> Option<f64> {
        self.point(name).map(|p| p.events_per_sec)
    }

    /// Loads and parses a baseline artifact, with errors a CLI can print
    /// verbatim: a missing, truncated, unparsable or degenerate file is
    /// reported as one line naming the path, never a panic mid-parse.
    pub fn load(path: &str) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let base = Baseline::parse(&text).ok_or_else(|| {
            format!("{path} is not a BENCH_*.json artifact (truncated or not bench JSON?)")
        })?;
        if !(base.total_events_per_sec.is_finite() && base.total_events_per_sec > 0.0) {
            return Err(format!(
                "{path}: baseline aggregate events_per_sec is {} — refusing to divide by it",
                base.total_events_per_sec
            ));
        }
        Ok(base)
    }

    /// Parses a `BENCH_*.json` previously written by [`BenchRun::to_json`].
    /// This is a minimal scanner for our own line-oriented format, not a
    /// general JSON parser (the workspace builds without serde).
    pub fn parse(text: &str) -> Option<Baseline> {
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let pat = format!("\"{key}\": ");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"'))
        }
        let mut date = None;
        let mut profile = None;
        let mut fidelity = None;
        let mut total = None;
        let mut per_point = Vec::new();
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with("\"date\"") && date.is_none() {
                date = field(t, "date").map(str::to_string);
            } else if t.starts_with("\"profile\"") && profile.is_none() {
                profile = field(t, "profile").map(str::to_string);
            } else if t.starts_with("\"fidelity\"") && fidelity.is_none() {
                fidelity = field(t, "fidelity").map(str::to_string);
            } else if t.starts_with("{\"name\"") {
                let name = field(t, "name")?.to_string();
                let eps: f64 = field(t, "events_per_sec")?.parse().ok()?;
                per_point.push(BaselinePoint {
                    name,
                    events_per_sec: eps,
                    events: field(t, "events").and_then(|v| v.parse().ok()),
                    wall_ns: field(t, "wall_ns").and_then(|v| v.parse().ok()),
                });
            } else if t.starts_with("\"total\"") {
                total = field(t, "events_per_sec")?.parse::<f64>().ok();
            }
        }
        Some(Baseline {
            date: date?,
            profile,
            fidelity,
            total_events_per_sec: total?,
            per_point,
        })
    }

    /// A one-line warning when the baseline's instrumentation profile
    /// differs from the one the current run will use — the numbers stay
    /// comparable on events/bytes (profile-invariant by contract) but
    /// wall-clock carries the observation-cost delta, so the trajectory
    /// diff should say so. `None` when the profiles agree or the
    /// baseline artifact predates the `profile` field.
    pub fn profile_mismatch_warning(&self, current: &str) -> Option<String> {
        let base = self.profile.as_deref()?;
        (base != current).then(|| {
            format!(
                "warning: baseline {} was measured under profile \"{base}\" but this run \
                 uses \"{current}\" — wall-clock deltas include the instrumentation-cost \
                 difference",
                self.date
            )
        })
    }

    /// A one-line warning when the baseline's fidelity tier differs
    /// from the one the current run will use. Unlike the profile case
    /// this mismatch is *not* events/bytes-comparable — an estimate-tier
    /// run doesn't process the exact event stream at all, so a cross-tier
    /// speedup would measure the wrong thing entirely. Artifacts that
    /// predate the `fidelity` field were all exact by construction, so
    /// a missing line is treated as `"exact"`, not as unknowable.
    pub fn fidelity_mismatch_warning(&self, current: &str) -> Option<String> {
        let base = self.fidelity.as_deref().unwrap_or("exact");
        (base != current).then(|| {
            format!(
                "warning: baseline {} was measured at fidelity \"{base}\" but this run \
                 uses \"{current}\" — the tiers simulate different things, so speedups \
                 against this baseline are not a perf trajectory",
                self.date
            )
        })
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
        // wall-clock, entirely inside the host's noise floor, making it
        // the jumpiest line of every trajectory diff. Lengthening only
        // this point is safe: the aggregate speedup is computed over
        // matched points via events/sec, which is horizon-normalized.
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
        library::scenario("scale-stress")
            .expect("catalogue entry")
            .with_ports(256)
            .with_seed(16)
            .with_duration(ms(10, 1)),
        // Non-mirror estimators: the epoch loop's ground-truth snapshot
        // and L1 pass are on the perf trajectory only through these
        // points (every other fast-mode point mirrors occupancy).
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
        // Half-kilofabric scale point.
        library::scenario("scale-stress")
            .expect("catalogue entry")
            .with_ports(512)
            .with_seed(19)
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
        // The two-kilofabric rung: only reachable on the sharded core —
        // a dense single-fabric VOQ bank at 2048 ports would be ~4M pair
        // states, where four row-windowed shard banks split that state
        // and keep per-window working sets cache-sized.
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
        // machinery on the perf trajectory and pins its determinism.
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

/// Runs every point sequentially, timing each; `progress` is called with
/// a one-line summary after each point. With `repeats > 1` every point
/// runs that many times and records its **fastest** wall-clock (and that
/// run's phase split) — the documented fastest-of-N method against host
/// noise. Repeats must agree on events and delivered bytes (the runs are
/// seeded identically); a mismatch is a determinism bug and errors out.
///
/// `profile` selects the instrumentation bundle every point runs under
/// (the CLI defaults to [`InstrProfile::Lean`]: simulated behavior —
/// events, delivered bytes — is identical across profiles, so lean
/// artifacts stay comparable to historical full-fidelity baselines while
/// excluding observation cost from the measurement).
///
/// `point_timeout` is a wall-clock watchdog per point (repeat): a point
/// that overruns it aborts the whole bench with an error naming the
/// point, instead of hanging a CI lane forever. Points run through the
/// sweep engine's guarded runner ([`xds_scenario::run_point_guarded`]),
/// so a panicking point also surfaces as a named error, not a crash.
///
/// `fidelity` selects the tier every point runs at ([`Fidelity::Exact`]
/// is the default and the only tier whose artifacts belong on the perf
/// trajectory; an estimate-tier bench measures the estimator itself,
/// and the artifact records the tier so [`Baseline`] comparisons can
/// warn on a cross-tier diff).
#[allow(clippy::too_many_arguments)]
pub fn run_bench(
    specs: Vec<ScenarioSpec>,
    mode: &str,
    date: String,
    repeats: u32,
    profile: InstrProfile,
    fidelity: Fidelity,
    point_timeout: Option<std::time::Duration>,
    mut progress: impl FnMut(&BenchPoint),
) -> Result<BenchRun, String> {
    let repeats = repeats.max(1);
    let mut points = Vec::with_capacity(specs.len());
    for spec in specs {
        let spec = spec.with_profile(profile).with_fidelity(fidelity);
        let mut best: Option<BenchPoint> = None;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let report = xds_scenario::run_point_guarded(&spec, point_timeout)
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
            match &best {
                Some(b) => {
                    if b.events != p.events || b.delivered_bytes != p.delivered_bytes {
                        return Err(format!(
                            "bench point {}: repeats disagree (events {} vs {}, bytes {} vs {}) \
                             — the simulation is not deterministic",
                            p.name, b.events, p.events, b.delivered_bytes, p.delivered_bytes
                        ));
                    }
                    if p.wall_ns < b.wall_ns {
                        best = Some(p);
                    }
                }
                None => best = Some(p),
            }
        }
        let p = best.expect("repeats >= 1");
        progress(&p);
        points.push(p);
    }
    Ok(BenchRun {
        date,
        mode: mode.to_string(),
        repeats,
        profile: profile.label().to_string(),
        fidelity: fidelity.label().to_string(),
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
        // The two largest rungs run on the sharded core.
        for s in &full {
            if s.n_ports >= 1024 {
                assert!(s.shards > 1, "{} must run sharded", s.name);
            }
        }
        // The non-mirror estimator points keep the ground-truth snapshot
        // + L1 epoch path on the trajectory.
        assert!(names.contains(&"uniform-ewma/n16"));
        assert!(names.contains(&"uniform-countmin/n16"));
        // The fault-storm point keeps the failover machinery on the
        // trajectory, with an actually-armed plan.
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
    fn bench_json_roundtrips_through_baseline_parser() {
        let run = BenchRun {
            date: "2026-07-30".into(),
            mode: "full".into(),
            repeats: 1,
            profile: "full".into(),
            fidelity: "exact".into(),
            points: vec![
                BenchPoint {
                    name: "uniform/n16".into(),
                    scheduler: "islip_i3".into(),
                    n_ports: 16,
                    duration: SimDuration::from_millis(20),
                    seed: 11,
                    events: 1_000_000,
                    wall_ns: 500_000_000,
                    delivered_bytes: 42,
                    phase_estimate_ns: 0,
                    phase_decompose_ns: 0,
                    phase_apply_ns: 0,
                },
                BenchPoint {
                    name: "scale-stress/n128".into(),
                    scheduler: "solstice_p4".into(),
                    n_ports: 128,
                    duration: SimDuration::from_millis(20),
                    seed: 15,
                    events: 6_000_000,
                    wall_ns: 2_000_000_000,
                    delivered_bytes: 7,
                    phase_estimate_ns: 0,
                    phase_decompose_ns: 0,
                    phase_apply_ns: 0,
                },
            ],
        };
        let json = run.to_json(None);
        let base = Baseline::parse(&json).expect("self-emitted JSON parses");
        assert_eq!(base.date, "2026-07-30");
        assert_eq!(base.profile.as_deref(), Some("full"));
        assert_eq!(base.fidelity.as_deref(), Some("exact"));
        assert_eq!(base.per_point.len(), 2);
        assert_eq!(base.point_events_per_sec("uniform/n16"), Some(2_000_000.0));
        assert!((base.total_events_per_sec - run.events_per_sec()).abs() < 1.0);
        // Comparison run embeds speedups against the parsed baseline.
        let cmp = run.to_json(Some(&base));
        assert!(cmp.contains("\"speedup\": 1.00"), "{cmp}");
        assert!(cmp.contains("\"baseline\""));
    }

    #[test]
    fn profile_mismatch_warns_once_and_agreement_stays_silent() {
        let run = BenchRun {
            date: "2026-07-30".into(),
            mode: "full".into(),
            repeats: 1,
            profile: "full".into(),
            fidelity: "exact".into(),
            points: vec![BenchPoint {
                name: "uniform/n16".into(),
                scheduler: "islip_i3".into(),
                n_ports: 16,
                duration: SimDuration::from_millis(20),
                seed: 11,
                events: 1_000,
                wall_ns: 1_000_000,
                delivered_bytes: 1,
                phase_estimate_ns: 0,
                phase_decompose_ns: 0,
                phase_apply_ns: 0,
            }],
        };
        let base = Baseline::parse(&run.to_json(None)).unwrap();
        assert!(base.profile_mismatch_warning("full").is_none());
        let warn = base.profile_mismatch_warning("lean").expect("must warn");
        assert!(warn.contains("\"full\""), "{warn}");
        assert!(warn.contains("\"lean\""), "{warn}");
        assert!(warn.contains("2026-07-30"), "{warn}");
        // Artifacts that predate the profile field stay silent: there is
        // nothing trustworthy to compare against.
        let stripped = run.to_json(None).replace("  \"profile\": \"full\",\n", "");
        let old = Baseline::parse(&stripped).unwrap();
        assert_eq!(old.profile, None);
        assert!(old.profile_mismatch_warning("lean").is_none());
    }

    #[test]
    fn fidelity_mismatch_warns_and_old_artifacts_count_as_exact() {
        let run = BenchRun {
            date: "2026-08-08".into(),
            mode: "full".into(),
            repeats: 1,
            profile: "lean".into(),
            fidelity: "exact".into(),
            points: Vec::new(),
        };
        let base = Baseline::parse(&run.to_json(None)).unwrap();
        assert!(base.fidelity_mismatch_warning("exact").is_none());
        let warn = base
            .fidelity_mismatch_warning("estimate")
            .expect("must warn");
        assert!(warn.contains("\"exact\""), "{warn}");
        assert!(warn.contains("\"estimate\""), "{warn}");
        assert!(warn.contains("2026-08-08"), "{warn}");
        // Pre-fidelity artifacts were all exact by construction: an
        // estimate-tier run against one must still warn, and an exact
        // run must stay silent.
        let stripped = run
            .to_json(None)
            .replace("  \"fidelity\": \"exact\",\n", "");
        let old = Baseline::parse(&stripped).unwrap();
        assert_eq!(old.fidelity, None);
        assert!(old.fidelity_mismatch_warning("exact").is_none());
        assert!(old.fidelity_mismatch_warning("estimate").is_some());
    }

    #[test]
    fn missing_baseline_is_a_clear_error_not_a_panic() {
        let err = Baseline::load("/no/such/dir/BENCH_x.json").unwrap_err();
        assert!(
            err.contains("/no/such/dir/BENCH_x.json"),
            "error must name the path: {err}"
        );
    }

    #[test]
    fn truncated_and_garbage_baselines_are_clear_errors() {
        let dir = std::env::temp_dir();
        // Not JSON at all.
        let garbage = dir.join("xds_bench_garbage.json");
        std::fs::write(&garbage, "not json at all\n{{{").unwrap();
        let err = Baseline::load(garbage.to_str().unwrap()).unwrap_err();
        assert!(err.contains("not a BENCH_*.json artifact"), "{err}");
        // A real artifact cut off before the totals: parseable lines but
        // no aggregate — must error, not divide by garbage.
        let run = BenchRun {
            date: "2026-07-30".into(),
            mode: "full".into(),
            repeats: 1,
            profile: "full".into(),
            fidelity: "exact".into(),
            points: vec![BenchPoint {
                name: "uniform/n16".into(),
                scheduler: "islip_i3".into(),
                n_ports: 16,
                duration: SimDuration::from_millis(20),
                seed: 11,
                events: 1_000,
                wall_ns: 1_000_000,
                delivered_bytes: 1,
                phase_estimate_ns: 0,
                phase_decompose_ns: 0,
                phase_apply_ns: 0,
            }],
        };
        let full = run.to_json(None);
        let cut = &full[..full.find("\"total\"").unwrap()];
        let truncated = dir.join("xds_bench_truncated.json");
        std::fs::write(&truncated, cut).unwrap();
        let err = Baseline::load(truncated.to_str().unwrap()).unwrap_err();
        assert!(err.contains("xds_bench_truncated.json"), "{err}");
        // Zero aggregate: refuse the division.
        let zeroed = full.replace(
            "\"total\": {\"events\": 1000, \"wall_ns\": 1000000, \"events_per_sec\": 1000000}",
            "\"total\": {\"events\": 0, \"wall_ns\": 0, \"events_per_sec\": 0}",
        );
        assert_ne!(zeroed, full, "replacement must have matched");
        let zero_path = dir.join("xds_bench_zero.json");
        std::fs::write(&zero_path, zeroed).unwrap();
        let err = Baseline::load(zero_path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("refusing to divide"), "{err}");
    }

    #[test]
    fn matched_aggregate_ignores_points_the_baseline_lacks() {
        let mk = |name: &str, events: u64, wall_ns: u128| BenchPoint {
            name: name.into(),
            scheduler: "islip_i3".into(),
            n_ports: 16,
            duration: SimDuration::from_millis(20),
            seed: 1,
            events,
            wall_ns,
            delivered_bytes: 0,
            phase_estimate_ns: 0,
            phase_decompose_ns: 0,
            phase_apply_ns: 0,
        };
        let old = BenchRun {
            date: "2026-07-30".into(),
            mode: "full".into(),
            repeats: 1,
            profile: "full".into(),
            fidelity: "exact".into(),
            points: vec![mk("a", 1_000_000, 1_000_000_000)],
        };
        let base = Baseline::parse(&old.to_json(None)).unwrap();
        // New run: same point twice as fast, plus a new very fast point
        // that would inflate a naive whole-run aggregate.
        let new = BenchRun {
            date: "2026-07-31".into(),
            mode: "full".into(),
            repeats: 1,
            profile: "full".into(),
            fidelity: "exact".into(),
            points: vec![
                mk("a", 1_000_000, 500_000_000),
                mk("b-new", 50_000_000, 1_000_000_000),
            ],
        };
        let m = new.matched_speedup(&base);
        assert_eq!(m.matched, 1);
        assert!(m.baseline_exact, "emitted artifacts carry raw counters");
        let speedup = m.speedup().unwrap();
        assert!((speedup - 2.0).abs() < 0.01, "matched speedup {speedup}");
        let json = new.to_json(Some(&base));
        assert!(json.contains("\"matched_points\": 1"), "{json}");
        assert!(json.contains("\"speedup\": 2.00"), "{json}");
        // The baseline side of the ratio is recomputed over the matched
        // points too: dropping a point from the run must not let the
        // baseline's whole-subset aggregate skew the number.
        let old2 = BenchRun {
            date: "2026-07-30".into(),
            mode: "full".into(),
            repeats: 1,
            profile: "full".into(),
            fidelity: "exact".into(),
            points: vec![
                mk("a", 1_000_000, 1_000_000_000),
                mk("slow", 1_000_000, 9_000_000_000),
            ],
        };
        let base2 = Baseline::parse(&old2.to_json(None)).unwrap();
        let new2 = BenchRun {
            date: "2026-07-31".into(),
            mode: "full".into(),
            repeats: 1,
            profile: "full".into(),
            fidelity: "exact".into(),
            points: vec![mk("a", 1_000_000, 1_000_000_000)],
        };
        let m2 = new2.matched_speedup(&base2);
        assert_eq!(m2.matched, 1);
        let s2 = m2.speedup().unwrap();
        assert!(
            (s2 - 1.0).abs() < 0.01,
            "same speed on the matched point must read 1.0, got {s2}"
        );
        // Nothing in common: no number at all, not a bogus 0.00.
        let stranger = BenchRun {
            date: "2026-08-01".into(),
            mode: "full".into(),
            repeats: 1,
            profile: "full".into(),
            fidelity: "exact".into(),
            points: vec![mk("z", 1, 1_000)],
        };
        assert!(stranger.matched_speedup(&base2).speedup().is_none());
        let json = stranger.to_json(Some(&base2));
        assert!(json.contains("\"matched_points\": 0"), "{json}");
        assert!(!json.contains("\"speedup\""), "{json}");
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
        let run = run_bench(
            specs,
            "smoke",
            "2026-01-01".into(),
            1,
            InstrProfile::Lean,
            Fidelity::Exact,
            None,
            |_| {},
        )
        .unwrap();
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
