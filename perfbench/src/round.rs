//! One round of a workload: expand its grids, run every point on the
//! sweep executor's worker pool with a clock read around each public
//! call, and serialize the results. Points are checked against their
//! references after the round's clock stops.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use xds_core::report::{DropStats, EpochPhaseNs};
use xds_core::{CounterSet, RunReport, SimBuilder};
use xds_scenario::exec::parallel_map_threads;
use xds_scenario::{Fidelity, PointResult, ScenarioSpec, SweepGrid, SweepResults, TrafficPattern};
use xds_sim::SimTime;

use crate::reference::{Refs, Tally};
use crate::workload;

/// Extra `SweepGrid::specs` expansions timed before each round, off its
/// wall clock. The fastest is the round's grid share of `setup_s`: a
/// single sub-millisecond reading is too noisy to compare across runs.
const SETUP_REPEATS: usize = 9;

/// A point slower than this counts as timed out. The check runs once the
/// point ends: the benchmark never abandons a running point.
const POINT_BUDGET_NS: u64 = 60_000_000_000;

/// Host time of one point from spec to report, split at the public calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointTimes {
    /// Start, as an offset from the run's clock origin.
    pub start_ns: u64,
    /// `ScenarioSpec::build` (exact points).
    pub spec_build_ns: u64,
    /// `SimBuilder::build` (exact points).
    pub sim_build_ns: u64,
    /// `HybridSim::run`, or `ScenarioSpec::run` at estimate fidelity.
    pub run_ns: u64,
    /// The whole point.
    pub total_ns: u64,
}

/// One executed round, before its points are checked.
pub struct Round {
    start_ns: u64,
    setup_grid_ns: u64,
    grid_ns: u64,
    exec_ns: u64,
    output_ns: u64,
    wall_ns: u64,
    results: SweepResults,
    times: Vec<PointTimes>,
}

/// Runs one round: `SweepGrid::specs`, every point on `threads` workers
/// of the executor's pool, then `SweepResults::to_json` and `to_csv`.
pub fn run(grids: &[SweepGrid], threads: usize, origin: Instant) -> Round {
    let setup_grid_ns = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(grids.iter().flat_map(SweepGrid::specs).count());
            nanos(t, Instant::now())
        })
        .min()
        .unwrap_or(0);
    let t0 = Instant::now();
    let specs: Vec<ScenarioSpec> = grids.iter().flat_map(SweepGrid::specs).collect();
    let t1 = Instant::now();
    let ran = parallel_map_threads(specs, threads, |spec| {
        let (report, times) = run_point(&spec, origin);
        (PointResult { spec, report }, times)
    });
    let t2 = Instant::now();
    let (points, times): (Vec<PointResult>, Vec<PointTimes>) = ran.into_iter().unzip();
    let results = SweepResults { points };
    std::hint::black_box((results.to_json(), results.to_csv()));
    let t3 = Instant::now();
    Round {
        start_ns: nanos(origin, t0),
        setup_grid_ns,
        grid_ns: nanos(t0, t1),
        exec_ns: nanos(t1, t2),
        output_ns: nanos(t2, t3),
        wall_ns: nanos(t0, t3),
        results,
        times,
    }
}

/// Runs one point through the crates' public calls. A panic becomes an
/// error, as it does in the sweep executor.
pub fn run_point(spec: &ScenarioSpec, origin: Instant) -> (Result<RunReport, String>, PointTimes) {
    let start = Instant::now();
    let mut t = PointTimes {
        start_ns: nanos(origin, start),
        ..PointTimes::default()
    };
    let report = catch_unwind(AssertUnwindSafe(|| match spec.fidelity {
        Fidelity::Exact => run_exact(spec, &mut t),
        Fidelity::Estimate => {
            let r = spec.run();
            t.run_ns = nanos(start, Instant::now());
            r
        }
    }))
    .unwrap_or_else(|p| {
        Err(format!(
            "scenario {}: panicked: {}",
            spec.name,
            panic_text(&*p)
        ))
    });
    t.total_ns = nanos(start, Instant::now());
    (report, t)
}

/// `ScenarioSpec::run` at exact fidelity, split at its public calls. The
/// builder chain is the one `ScenarioSpec::run` uses; were they ever to
/// part, the reference check — pinned through `SweepExecutor::run` —
/// would fail.
fn run_exact(spec: &ScenarioSpec, t: &mut PointTimes) -> Result<RunReport, String> {
    let a = Instant::now();
    let (cfg, workload, scheduler, estimator) = spec.build()?;
    let b = Instant::now();
    let sim = SimBuilder::new(cfg)
        .workload(workload)
        .scheduler(scheduler)
        .estimator(estimator)
        .instrumentation(spec.profile.instrumentation())
        .trace(spec.trace)
        .faults(spec.faults.clone())
        .shards(spec.shards)
        .build()
        .map_err(|e| format!("scenario {}: {e}", spec.name))?;
    let c = Instant::now();
    let report = sim.run(SimTime::ZERO + spec.duration);
    let d = Instant::now();
    t.spec_build_ns = nanos(a, b);
    t.sim_build_ns = nanos(b, c);
    t.run_ns = nanos(c, d);
    Ok(report)
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Whether the estimate tier solves `spec` with its mini-sim — a rotating
/// pattern (shuffle, churn) or an armed fault plan — rather than its
/// closed form. Matched on the pattern kind: asking the pattern for its
/// rotation would build n−1 dense matrices for a shuffle.
fn takes_minisim(spec: &ScenarioSpec) -> bool {
    spec.fidelity == Fidelity::Estimate
        && (matches!(
            spec.pattern,
            TrafficPattern::ShuffleStages { .. } | TrafficPattern::ChurnHotspot { .. }
        ) || spec.faults.as_ref().is_some_and(|f| f.is_active()))
}

/// The report fields the metrics read, kept for points that passed.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub events: u64,
    pub phases: EpochPhaseNs,
    pub counters: CounterSet,
    pub decisions: u64,
    pub ocs_reconfigurations: u64,
    pub drops: DropStats,
    pub fault_failover_bytes: u64,
    pub offered_bytes: u64,
    pub delivered_bytes: u64,
    pub delivered_ocs_bytes: u64,
}

impl Probe {
    fn of(r: &RunReport) -> Probe {
        Probe {
            events: r.events,
            phases: r.phases,
            counters: r.counters,
            decisions: r.decisions,
            ocs_reconfigurations: r.ocs.reconfigurations,
            drops: r.drops,
            fault_failover_bytes: r.fault_failover_bytes,
            offered_bytes: r.offered_bytes,
            delivered_bytes: r.delivered_bytes(),
            delivered_ocs_bytes: r.delivered_ocs_bytes,
        }
    }
}

/// What the benchmark keeps of a checked point.
pub struct PointStat {
    pub n_ports: usize,
    pub fidelity: Fidelity,
    /// Estimate points on the mini-sim branch (see [`takes_minisim`]).
    pub minisim: bool,
    pub times: PointTimes,
    /// Report fields, when the point passed its check.
    pub probe: Option<Probe>,
}

/// A round after its check.
pub struct RoundStat {
    pub wall_ns: u64,
    /// Fastest of the round's off-clock `SweepGrid::specs` expansions.
    pub setup_grid_ns: u64,
    pub exec_ns: u64,
    pub output_ns: u64,
    pub points: Vec<PointStat>,
}

impl RoundStat {
    /// `SweepGrid::specs` plus every point's `ScenarioSpec::build` and
    /// `SimBuilder::build`.
    pub fn setup_ns(&self) -> u64 {
        self.setup_grid_ns
            + self
                .points
                .iter()
                .map(|p| p.times.spec_build_ns + p.times.sim_build_ns)
                .sum::<u64>()
    }
}

impl Round {
    /// Checks every point against its reference — an error, a panic, a
    /// timeout and a mismatch each count as failed in `tally` — and keeps
    /// what the metrics need.
    pub fn check(self, refs: &Refs, tally: &mut Tally) -> RoundStat {
        let points = self
            .results
            .points
            .iter()
            .zip(&self.times)
            .map(|(p, t)| {
                let key = workload::key(&p.spec);
                let verdict = match &p.report {
                    Err(e) => Err(e.clone()),
                    Ok(_) if t.total_ns > POINT_BUDGET_NS => Err(format!(
                        "{key}: took {:.1} s, over the point budget",
                        t.total_ns as f64 / 1e9
                    )),
                    Ok(r) => refs.check(&key, r, p.spec.fidelity),
                };
                let passed = tally.record(verdict);
                PointStat {
                    n_ports: p.spec.n_ports,
                    fidelity: p.spec.fidelity,
                    minisim: takes_minisim(&p.spec),
                    times: *t,
                    probe: p.report.as_ref().ok().filter(|_| passed).map(Probe::of),
                }
            })
            .collect();
        RoundStat {
            wall_ns: self.wall_ns,
            setup_grid_ns: self.setup_grid_ns,
            exec_ns: self.exec_ns,
            output_ns: self.output_ns,
            points,
        }
    }

    /// Appends the round's spans, rebuilt from the clock reads the round
    /// takes anyway, so recording them adds nothing inside the round.
    pub fn spans(&self, round: usize, out: &mut Vec<Span>) {
        let span = |point, name, cat, parent, start_ns, dur_ns| Span {
            round,
            point,
            name,
            cat,
            parent,
            start_ns,
            dur_ns,
        };
        let s = self.start_ns;
        let exec_at = s + self.grid_ns;
        out.push(span(None, "round", "bench", None, s, self.wall_ns));
        out.push(span(
            None,
            "SweepGrid::specs",
            "scenario",
            Some("round"),
            s,
            self.grid_ns,
        ));
        out.push(span(
            None,
            "SweepExecutor",
            "scenario",
            Some("round"),
            exec_at,
            self.exec_ns,
        ));
        out.push(span(
            None,
            "SweepResults::to_json+to_csv",
            "scenario",
            Some("round"),
            exec_at + self.exec_ns,
            self.output_ns,
        ));
        for (i, (p, t)) in self.results.points.iter().zip(&self.times).enumerate() {
            let pt = Some(i);
            out.push(span(
                pt,
                "point",
                "scenario",
                Some("SweepExecutor"),
                t.start_ns,
                t.total_ns,
            ));
            if p.spec.fidelity == Fidelity::Estimate {
                out.push(span(
                    pt,
                    "ScenarioSpec::run",
                    "estimate",
                    Some("point"),
                    t.start_ns,
                    t.run_ns,
                ));
                continue;
            }
            let built = t.start_ns + t.spec_build_ns;
            out.push(span(
                pt,
                "ScenarioSpec::build",
                "scenario",
                Some("point"),
                t.start_ns,
                t.spec_build_ns,
            ));
            out.push(span(
                pt,
                "SimBuilder::build",
                "core",
                Some("point"),
                built,
                t.sim_build_ns,
            ));
            out.push(span(
                pt,
                "HybridSim::run",
                "core",
                Some("point"),
                built + t.sim_build_ns,
                t.run_ns,
            ));
        }
    }
}

/// One span: a public call, or a benchmark step around several.
pub struct Span {
    pub round: usize,
    /// Index of the point within its round; spans of one point share it.
    pub point: Option<usize>,
    pub name: &'static str,
    /// The layer the call belongs to.
    pub cat: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The spans as Chrome Trace Event JSON (open it in Perfetto). Each round
/// is a process; round-level spans sit on track 0, each point on its own.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut o = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let point = s
            .point
            .map(|p| format!(", \"point\": {p}"))
            .unwrap_or_default();
        let _ = write!(
            o,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": {}, \"tid\": {}, \"args\": {{\"parent\": \"{}\"{point}}}}}",
            s.name,
            s.cat,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.round,
            s.point.map_or(0, |p| p + 1),
            s.parent.unwrap_or(""),
        );
        o.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    o.push_str("]}\n");
    o
}
