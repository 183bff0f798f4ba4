//! Per-layer metrics of the traced run.
//!
//! Spans come from the benchmark's own clock reads around the crates'
//! public calls (`round`); inside a call the benchmark reads only what
//! the program already exposes: `RunReport::phases` for the epoch-phase
//! split, `RunReport::counters` and report fields for the counts. Two
//! figures need work outside the round clock: `traffic.matrix_s` times
//! `TrafficPattern::matrix` on its own, and `metrics.observe_s` reruns
//! every full-profile exact point under the lean profile.

use std::hint::black_box;
use std::time::Instant;

use xds_core::report::EpochPhaseNs;
use xds_scenario::exec::parallel_map_threads;
use xds_scenario::{Fidelity, InstrProfile, ScenarioSpec, SweepGrid};
use xds_sim::SimRng;

use crate::reference::{Refs, Tally};
use crate::round::{self, PointStat, Probe, RoundStat};
use crate::stats::median;
use crate::workload;
use crate::Metric;

/// Port counts whose core split is also reported on its own: the
/// kilofabric rungs.
const SPLIT_SIZES: [usize; 2] = [1024, 2048];

/// Host time of the exact core split by `RunReport::phases`. The rest of
/// `HybridSim::run` — shard windows, barrier replay, host ingress,
/// finalize — is unattributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSplit {
    pub run_s: f64,
    pub estimate_s: f64,
    pub decompose_s: f64,
    pub apply_s: f64,
    pub unattributed_s: f64,
}

impl CoreSplit {
    /// The split of `run_s`; the unattributed part is what the phases leave.
    pub fn new(run_s: f64, estimate_s: f64, decompose_s: f64, apply_s: f64) -> CoreSplit {
        CoreSplit {
            run_s,
            estimate_s,
            decompose_s,
            apply_s,
            unattributed_s: run_s - estimate_s - decompose_s - apply_s,
        }
    }

    /// Medians of run time and of each phase over `(run_ns, phases)`
    /// samples.
    fn median_of(samples: &[(u64, EpochPhaseNs)]) -> CoreSplit {
        let med = |f: fn(&(u64, EpochPhaseNs)) -> u64| {
            median(
                &samples
                    .iter()
                    .map(|s| f(s) as f64 / 1e9)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0)
        };
        CoreSplit::new(
            med(|s| s.0),
            med(|s| s.1.estimate),
            med(|s| s.1.decompose),
            med(|s| s.1.apply),
        )
    }

    fn metrics(&self, scope: &str) -> Vec<Metric> {
        [
            ("run_s", self.run_s),
            ("demand.estimate_s", self.estimate_s),
            ("sched.decompose_s", self.decompose_s),
            ("switching.apply_s", self.apply_s),
            ("unattributed_s", self.unattributed_s),
        ]
        .into_iter()
        .map(|(name, v)| Metric::new(format!("core.{scope}{name}"), v, "s"))
        .collect()
    }
}

/// Figures the traced run measures outside the round clock.
#[derive(Debug, Default)]
pub struct Attribution {
    /// `TrafficPattern::matrix`, summed over the run's points.
    pub matrix_ns: u64,
    /// `HybridSim::run` under the full profile minus under lean, summed
    /// over the full-profile exact points.
    pub observe_ns: i64,
}

/// Takes the [`Attribution`] figures over every point the run submits.
/// The full-profile run is checked against its reference and the lean
/// rerun must simulate the same events and bytes; failures count.
pub fn attribution(
    grids: &[SweepGrid],
    threads: usize,
    refs: &Refs,
    tally: &mut Tally,
) -> Attribution {
    let specs: Vec<ScenarioSpec> = grids.iter().flat_map(SweepGrid::specs).collect();
    let origin = Instant::now();
    let ran = parallel_map_threads(specs, threads, |spec| {
        let matrix_ns = time_matrix(&spec);
        let observed = (spec.fidelity == Fidelity::Exact && spec.profile == InstrProfile::Full)
            .then(|| {
                let (full, tf) = round::run_point(&spec, origin);
                let lean_spec = spec.clone().with_profile(InstrProfile::Lean);
                let (lean, tl) = round::run_point(&lean_spec, origin);
                let verdict = full.and_then(|f| {
                    let key = workload::key(&spec);
                    refs.check(&key, &f, Fidelity::Exact)?;
                    let l = lean?;
                    if (l.events, l.delivered_bytes()) != (f.events, f.delivered_bytes()) {
                        return Err(format!("{key}: the lean profile simulated something else"));
                    }
                    Ok(())
                });
                (verdict, tf.run_ns as i64 - tl.run_ns as i64)
            });
        (matrix_ns, observed)
    });
    let mut a = Attribution::default();
    for (matrix_ns, observed) in ran {
        a.matrix_ns += matrix_ns;
        if let Some((verdict, delta)) = observed {
            if tally.record(verdict) {
                a.observe_ns += delta;
            }
        }
    }
    a
}

/// `TrafficPattern::matrix` alone, fed the stream `ScenarioSpec::build`
/// feeds it: the root's first fork, drawn after the configuration seed.
fn time_matrix(spec: &ScenarioSpec) -> u64 {
    let mut root = SimRng::new(spec.seed);
    let _cfg_seed = root.next_u64();
    let mut matrix_rng = root.fork();
    let t = Instant::now();
    black_box(spec.pattern.matrix(spec.n_ports, &mut matrix_rng));
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The passed exact points of a round, with their report fields.
fn exact_points(r: &RoundStat) -> impl Iterator<Item = (&PointStat, Probe)> {
    r.points
        .iter()
        .filter(|p| p.fidelity == Fidelity::Exact)
        .filter_map(|p| Some((p, p.probe?)))
}

/// The per-layer metrics: times are medians over the traced rounds;
/// counts come from the last traced round (every round submits the same
/// points, so they repeat exactly); the tracing overhead compares the
/// traced rounds' wall with the untraced rounds' of the same run.
pub fn per_layer(
    untraced: &[RoundStat],
    traced: &[RoundStat],
    attr: &Attribution,
    threads: usize,
) -> Vec<Metric> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let per_round = |f: &dyn Fn(&RoundStat) -> f64| {
        median(&traced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let point_sum =
        |r: &RoundStat, f: fn(&PointStat) -> u64| -> f64 { secs(r.points.iter().map(f).sum()) };
    let wall = |rounds: &[RoundStat]| {
        median(&rounds.iter().map(|r| secs(r.wall_ns)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let round_sums: Vec<(u64, EpochPhaseNs)> = traced
        .iter()
        .map(|r| {
            exact_points(r).fold((0, EpochPhaseNs::default()), |(run, ph), (p, pr)| {
                (
                    run + p.times.run_ns,
                    EpochPhaseNs {
                        estimate: ph.estimate + pr.phases.estimate,
                        decompose: ph.decompose + pr.phases.decompose,
                        apply: ph.apply + pr.phases.apply,
                    },
                )
            })
        })
        .collect();
    let split = CoreSplit::median_of(&round_sums);
    let last: Vec<Probe> = traced
        .last()
        .map(|r| exact_points(r).map(|(_, p)| p).collect())
        .unwrap_or_default();
    let events: u64 = last.iter().map(|p| p.events).sum();

    let mut out = vec![
        Metric::new(
            "scenario.grid_expand_s",
            per_round(&|r| secs(r.setup_grid_ns)),
            "s",
        ),
        Metric::new(
            "scenario.spec_build_s",
            per_round(&|r| point_sum(r, |p| p.times.spec_build_ns)),
            "s",
        ),
        Metric::new("traffic.matrix_s", secs(attr.matrix_ns), "s"),
        Metric::new(
            "core.sim_build_s",
            per_round(&|r| point_sum(r, |p| p.times.sim_build_ns)),
            "s",
        ),
        Metric::new("core.events", events as f64, "count"),
        Metric::new(
            "core.ns_per_event",
            if events > 0 {
                split.run_s * 1e9 / events as f64
            } else {
                0.0
            },
            "ns",
        ),
    ];
    out.extend(split.metrics(""));
    for n in SPLIT_SIZES {
        let samples: Vec<(u64, EpochPhaseNs)> = traced
            .iter()
            .flat_map(exact_points)
            .filter(|(p, _)| p.n_ports == n)
            .map(|(p, pr)| (p.times.run_ns, pr.phases))
            .collect();
        out.extend(CoreSplit::median_of(&samples).metrics(&format!("n{n}.")));
    }
    out.extend(counters(&last));
    let estimate = |minisim: bool| {
        per_round(&|r| {
            secs(
                r.points
                    .iter()
                    .filter(|p| p.fidelity == Fidelity::Estimate && p.minisim == minisim)
                    .map(|p| p.times.total_ns)
                    .sum(),
            )
        })
    };
    out.extend([
        Metric::new("metrics.observe_s", attr.observe_ns as f64 / 1e9, "s"),
        Metric::new("estimate.closed_form_s", estimate(false), "s"),
        Metric::new("estimate.minisim_s", estimate(true), "s"),
        Metric::new("scenario.output_s", per_round(&|r| secs(r.output_ns)), "s"),
        Metric::new(
            "scenario.exec_idle_frac",
            per_round(&|r| {
                let busy: u64 = r.points.iter().map(|p| p.times.total_ns).sum();
                1.0 - busy as f64 / (threads as f64 * r.exec_ns as f64)
            }),
            "frac",
        ),
        Metric::new(
            "trace.overhead_frac",
            wall(traced) / wall(untraced) - 1.0,
            "frac",
        ),
    ]);
    out
}

/// The counts of the core, scheduler, event queue, pool and switch,
/// summed over points (high-water marks: the largest).
fn counters(probes: &[Probe]) -> Vec<Metric> {
    let sum = |f: fn(&Probe) -> u64| probes.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&Probe) -> u64| probes.iter().map(f).max().unwrap_or(0) as f64;
    let count = |name: &str, v: f64| Metric::new(name, v, "count");
    let memo = sum(|p| p.counters.sched_memo_hits);
    let hk = sum(|p| p.counters.sched_hk_runs);
    vec![
        count("core.sched.decisions", sum(|p| p.decisions)),
        count("core.sched.hk_runs", hk),
        count("core.sched.memo_hits", memo),
        Metric::new(
            "core.sched.memo_hit_ratio",
            if memo + hk > 0.0 {
                memo / (memo + hk)
            } else {
                0.0
            },
            "frac",
        ),
        count("core.sched.probes", sum(|p| p.counters.sched_probes)),
        count(
            "core.sched.worklist_peak",
            max(|p| p.counters.sched_worklist_peak),
        ),
        count("sim.queue_spreads", sum(|p| p.counters.queue_spreads)),
        count("sim.queue_spills", sum(|p| p.counters.queue_spills)),
        count(
            "sim.queue_direct_sorts",
            sum(|p| p.counters.queue_direct_sorts),
        ),
        count("core.pool.allocs", sum(|p| p.counters.pool_allocs)),
        count("core.pool.live_peak", max(|p| p.counters.pool_live_peak)),
        count(
            "core.pool.chunk_growths",
            sum(|p| p.counters.pool_chunk_growths),
        ),
        count(
            "core.delivery_batches",
            sum(|p| p.counters.delivery_batches),
        ),
        count("switch.grant_bursts", sum(|p| p.counters.grant_bursts)),
        count("switch.grant_pkts_max", max(|p| p.counters.grant_pkts_max)),
        count(
            "switch.ocs_reconfigurations",
            sum(|p| p.ocs_reconfigurations),
        ),
        count("switch.drops_voq_full", sum(|p| p.drops.voq_full)),
        count("switch.drops_eps_full", sum(|p| p.drops.eps_full)),
        count("switch.drops_sync", sum(|p| p.drops.sync_violation)),
        count("switch.drops_link_dark", sum(|p| p.drops.link_dark)),
        count(
            "core.fault.events_injected",
            sum(|p| p.counters.fault_events_injected),
        ),
        Metric::new(
            "core.fault.failover_bytes",
            sum(|p| p.fault_failover_bytes),
            "B",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of_parts(metrics: &[Metric], scope: &str) -> (f64, f64) {
        let get = |n: &str| {
            metrics
                .iter()
                .find(|m| m.name == format!("core.{scope}{n}"))
                .expect("metric present")
                .value
        };
        let parts = get("demand.estimate_s")
            + get("sched.decompose_s")
            + get("switching.apply_s")
            + get("unattributed_s");
        (parts, get("run_s"))
    }

    #[test]
    fn phases_and_unattributed_sum_to_run() {
        let s = CoreSplit::new(0.45, 0.012, 0.015, 0.003);
        assert!((s.unattributed_s - 0.42).abs() < 1e-12);
        let (parts, run) = sum_of_parts(&s.metrics(""), "");
        assert!((parts - run).abs() < 1e-12);
        // Over samples the split is taken from medians, and still sums.
        let ph = |estimate, decompose, apply| EpochPhaseNs {
            estimate,
            decompose,
            apply,
        };
        let samples = [
            (450_000_000, ph(10_000_000, 2_000_000, 3_000)),
            (470_000_000, ph(90_000_000, 1_000_000, 1_000)),
            (430_000_000, ph(50_000_000, 5_000_000, 5_000)),
        ];
        let s = CoreSplit::median_of(&samples);
        assert_eq!((s.run_s, s.estimate_s), (0.45, 0.05));
        let (parts, run) = sum_of_parts(&s.metrics("n1024."), "n1024.");
        assert!((parts - run).abs() < 1e-12);
        // No samples: every part reads zero, and still sums.
        assert_eq!(
            CoreSplit::median_of(&[]),
            CoreSplit::new(0.0, 0.0, 0.0, 0.0)
        );
    }
}
