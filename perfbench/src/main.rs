//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! metrics of the simulator, measured from outside through the crates'
//! public calls, with every simulated result checked against a pinned
//! reference.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kilofabric|sweep-grid|estimate-screen \
//!     [--seed N] [--seconds S] [--trace 0|1] [--pin]
//! ```
//!
//! One workload runs per process, so the peak-RSS reading is that
//! workload's alone. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--pin` is reference mode: it rewrites `refs/<workload>.tsv`.
//! `README.md` beside this crate maps every metric to its call and layer.

mod layers;
mod reference;
mod round;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use xds_bench::validate::VALIDATED_METRICS;
use xds_scenario::exec::parallel_map_threads;
use xds_scenario::{Fidelity, ScenarioSpec, SweepGrid};

use reference::{Refs, Tally};
use round::{RoundStat, Span};
use workload::Workload;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The measuring time when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Rounds a measurement makes even when one round outlasts its time, so
/// every per-round figure is a median.
const MIN_ROUNDS: usize = 3;
/// Where a traced run writes its spans, relative to the working directory.
const SPANS_DIR: &str = ".bench_spans";

const USAGE: &str = "usage: perfbench --workload kilofabric|sweep-grid|estimate-screen \
                     [--seed N] [--seconds S] [--trace 0|1] [--pin]";

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Evidence printed beside the value: sample counts, the percentile.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Kilofabric,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        pin: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--pin" => args.pin = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = if args.pin {
        reference::pin(args.workload).map(|path| println!("pinned {path}"))
    } else {
        run(&args)
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let refs = Refs::of(w)?;
    let grids = w.grids(args.seed);
    let threads = w.threads();
    let budget = Duration::from_secs_f64(args.seconds);
    let origin = Instant::now();
    let mut tally = Tally::default();
    let (rounds, metrics) = if args.trace {
        let untraced = measure(&grids, threads, budget / 2, origin, &refs, &mut tally, None);
        let mut spans = Vec::new();
        let traced = measure(
            &grids,
            threads,
            budget / 2,
            origin,
            &refs,
            &mut tally,
            Some(&mut spans),
        );
        let attr = layers::attribution(&grids, threads, &refs, &mut tally);
        let path = write_spans(w, args.seed, &spans)?;
        eprintln!("perfbench: spans written to {path}");
        let metrics = layers::per_layer(&untraced, &traced, &attr, threads);
        (untraced.len() + traced.len(), metrics)
    } else {
        let rounds = measure(&grids, threads, budget, origin, &refs, &mut tally, None);
        let errors = score_estimates(&grids, threads, &refs, &mut tally);
        (rounds.len(), end_to_end(&rounds, &errors, peak_rss_mib()?)?)
    };
    print_result(args, rounds, threads, &tally, &metrics)
}

/// Runs rounds until `budget` has passed and at least [`MIN_ROUNDS`] have
/// run, checking each round's points once its clock has stopped.
fn measure(
    grids: &[SweepGrid],
    threads: usize,
    budget: Duration,
    origin: Instant,
    refs: &Refs,
    tally: &mut Tally,
    mut spans: Option<&mut Vec<Span>>,
) -> Vec<RoundStat> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let round = round::run(grids, threads, origin);
        if let Some(out) = spans.as_mut() {
            round.spans(rounds.len(), out);
        }
        rounds.push(round.check(refs, tally));
    }
    rounds
}

/// Scores the estimate tier on every point the run submitted against the
/// pinned exact values, after the timed rounds and off their clock.
/// Metrics absent on either side are skipped.
fn score_estimates(
    grids: &[SweepGrid],
    threads: usize,
    refs: &Refs,
    tally: &mut Tally,
) -> Vec<f64> {
    let specs: Vec<ScenarioSpec> = grids
        .iter()
        .flat_map(SweepGrid::specs)
        .map(|s| s.with_fidelity(Fidelity::Estimate))
        .collect();
    let origin = Instant::now();
    let ran = parallel_map_threads(specs, threads, |spec| {
        (workload::key(&spec), round::run_point(&spec, origin).0)
    });
    let mut errors = Vec::new();
    for (key, report) in ran {
        match report {
            Err(e) => {
                tally.record(Err(e));
            }
            Ok(r) => {
                tally.record(Ok(()));
                for m in VALIDATED_METRICS {
                    let est = r.metric(m).and_then(|v| v.as_f64());
                    errors.extend(stats::sym_rel_err(est, refs.exact_value(&key, m)));
                }
            }
        }
    }
    errors
}

/// The end-to-end metrics of a timed run.
fn end_to_end(rounds: &[RoundStat], errors: &[f64], rss_mib: f64) -> Result<Vec<Metric>, String> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let per_round = |f: &dyn Fn(&RoundStat) -> f64| {
        stats::median(&rounds.iter().map(f).collect::<Vec<_>>()).ok_or("no round ran")
    };
    let point_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.points)
        .map(|p| p.times.total_ns as f64 / 1e6)
        .collect();
    let p50 = stats::median(&point_ms).ok_or("no point ran")?;
    let tail = stats::tail(&point_ms).ok_or("no point ran")?;
    let err_p50 = stats::median(errors).ok_or("no estimate metric could be scored")?;
    let err_p95 = stats::quantile(errors, 0.95).ok_or("no estimate metric could be scored")?;
    // Simulated results repeat exactly round to round: the first round's.
    let probes: Vec<round::Probe> = rounds[0].points.iter().filter_map(|p| p.probe).collect();
    let total = |f: fn(&round::Probe) -> u64| probes.iter().map(f).sum::<u64>() as f64;
    let offered = total(|p| p.offered_bytes);
    let delivered = total(|p| p.delivered_bytes);
    let ocs = total(|p| p.delivered_ocs_bytes);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let of_rounds = format!("median of {} rounds", rounds.len());
    let tail_note = format!(
        "p{:.1} over {} points, {} beyond it{}",
        tail.q * 100.0,
        tail.samples,
        tail.beyond,
        if tail.supported() {
            ""
        } else {
            " (below the 10-beyond rule)"
        }
    );
    let comparisons = format!("{} comparisons", errors.len());
    Ok(vec![
        Metric::new("setup_s", per_round(&|r| secs(r.setup_ns()))?, "s").note(of_rounds.clone()),
        Metric::new("wall_s", per_round(&|r| secs(r.wall_ns))?, "s").note(of_rounds.clone()),
        Metric::new(
            "points_per_s",
            per_round(&|r| r.points.len() as f64 / secs(r.wall_ns))?,
            "1/s",
        )
        .note(of_rounds),
        Metric::new("point_p50_ms", p50, "ms").note(format!("{} points", point_ms.len())),
        Metric::new("point_p95_ms", tail.value, "ms").note(tail_note),
        Metric::new("peak_rss_mb", rss_mib, "MiB").note("VmHWM".into()),
        Metric::new("est_err_p50", err_p50, "frac").note(comparisons.clone()),
        Metric::new("est_err_p95", err_p95, "frac").note(comparisons),
        Metric::new("sim_goodput_frac", share(delivered, offered), "frac").note("simulated".into()),
        Metric::new("sim_ocs_byte_share", share(ocs, delivered), "frac").note("simulated".into()),
    ])
}

/// This process's peak resident set (`VmHWM`) in MiB. The process runs
/// one workload, so the high-water mark is that workload's alone.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    stats::parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn write_spans(w: Workload, seed: u64, spans: &[Span]) -> Result<String, String> {
    std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
    let path = format!("{SPANS_DIR}/{}-seed{seed}.trace.json", w.name());
    std::fs::write(&path, round::chrome_trace(spans)).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Prints every metric with its unit and evidence, then the result line.
fn print_result(
    args: &Args,
    rounds: usize,
    threads: usize,
    tally: &Tally,
    metrics: &[Metric],
) -> Result<(), String> {
    println!(
        "perfbench {} seed={} seconds={} trace={} rounds={rounds} threads={threads} cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::cpus()
    );
    for m in metrics {
        println!(
            "  {:<34} {:>18.6} {:<5} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  {:<34} {:>18.6} {:<5} {} of {} point runs",
        "failed_frac",
        tally.failed_frac(),
        "frac",
        tally.failed,
        tally.attempted
    );
    for msg in &tally.messages {
        eprintln!("perfbench: failed: {msg}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}
