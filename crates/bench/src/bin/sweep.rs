//! `sweep` — the scenario library's command-line front end.
//!
//! ```text
//! sweep list
//! sweep run <scenario>[,<scenario>…]|all [options]
//! sweep timeseries <scenario>[,<scenario>…]|all [options]
//! sweep trace <scenario>[,<scenario>…]|all [options]
//! sweep bench [--smoke] [--shards k] [--out file.json]
//! sweep validate-estimates [--smoke] [--out name] [--point-timeout secs]
//!
//! options (run / timeseries / trace):
//!   --ports n1,n2,…        port-count axis          (default: scenario's)
//!   --loads l1,l2,…        offered-load axis        (default: scenario's)
//!   --schedulers s1,s2,…   scheduler axis by name   (default: scenario's)
//!   --seeds s1,s2,…        seed axis (replicas)     (default: scenario's)
//!   --reconfigs-us r1,…    switching-time axis, µs  (default: scenario's)
//!   --shards k1,k2,…       shard-count axis         (default: scenario's)
//!   --fidelity f1,f2,…     fidelity-tier axis: exact|estimate (default: exact)
//!   --duration-ms d        horizon per point        (default: scenario's)
//!   --threads t            worker threads           (default: all cores)
//!   --out name             artifact basename        (default: sweep_<scenario>)
//!   --profile p            instrumentation profile: full|lean|timeseries
//!                          (run only; default full)
//!   --trace                flight recorder on: save Chrome-trace JSON per point
//!   --counters             append the deterministic internal-counter columns
//!   --point-timeout secs   wall-clock watchdog per point: an overrunning
//!                          point becomes an error row, the sweep continues
//! ```
//!
//! Every run prints the aggregate table and saves machine-readable
//! `results/<out>.json` and `results/<out>.csv`. When any point runs the
//! `timeseries` instrumentation profile, the epoch-resolution stream is
//! additionally saved as `results/<out>.timeseries.{json,csv}` — one row
//! per `(point, epoch)` with demand error, duty cycle and VOQ backlog.
//! `sweep timeseries` is shorthand for `sweep run --profile timeseries`.
//!
//! With `--trace` (or the `sweep trace` shorthand, which also pins
//! `--counters`), every point runs with the flight recorder on and its
//! wall-clock span trace is saved as Chrome Trace Event Format JSON —
//! `results/<out>.trace.json` for a single point, one
//! `results/<out>.<point>.trace.json` per point otherwise — loadable in
//! Perfetto (ui.perfetto.dev) or chrome://tracing. Tracing never changes
//! simulated behavior; wall-clock data stays out of the deterministic
//! row artifacts. `--counters` appends the [`xds_core::CounterSet`]
//! column group (scheduler memoization, event-queue pops, packet-pool
//! ledger, grant batching) to the JSON/CSV rows; those values are pure
//! functions of the simulated event sequence and safe to pin.
//!
//! The `--shards` axis selects the port-group shard count of the
//! parallel simulation core. Events, delivered bytes and behavioral
//! counters are invariant in it by the core's determinism contract —
//! sweeping it compares execution cost, never results.
//!
//! `--point-timeout` arms a wall-clock watchdog around every point (the
//! sweep engine's guarded runner): a point that overruns the budget is
//! recorded as an error row naming the point and the limit, and the rest
//! of the sweep proceeds. A panicking point is likewise isolated into an
//! error row even without a timeout. The watchdog is harness-side only —
//! it never reaches into simulated time, so points that finish within
//! budget produce byte-identical artifacts with or without the flag.
//!
//! `sweep bench` is the CI liveness pass over the pinned bench catalogue
//! (see [`xds_bench::bench`]): it runs every point once, sequentially on
//! one thread, under the `lean` profile at the exact tier, prints events
//! and wall-clock per point, and writes `results/bench_<mode>.json` (or
//! `--out`). With `--shards k`, every point is forced to `k` shards;
//! point names are unchanged, and events and bytes must not move.
//! `--smoke` shrinks every horizon ~20×. Perf is measured by the
//! repository benchmark under `perfbench/`, not here.
//!
//! The `--fidelity` axis selects the simulation tier per point: `exact`
//! (the event-driven core, the default everywhere) or `estimate` (the
//! decomposed per-link fast tier in `xds-estimate`). Estimate rows are
//! column-compatible with exact rows and every artifact carries a
//! `fidelity` column, so mixed-tier sweeps stay joinable.
//!
//! `sweep validate-estimates` is the estimate tier's contract check: it
//! runs the pinned bench catalogue at both tiers sequentially, prints
//! per-scenario error envelopes and speedups, and writes
//! `results/<out>.validation.{json,csv}` (see [`xds_bench::validate`]).
//! `--smoke` shrinks horizons exactly like `sweep bench --smoke`.

use std::process::ExitCode;

use xds_bench::emit_sweep_with;
use xds_scenario::{
    library, Fidelity, InstrProfile, ScenarioSpec, SchedulerKind, SweepExecutor, SweepGrid,
};
use xds_sim::SimDuration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sweep list\n  sweep run <scenario>[,…]|all [--ports n,…] [--loads l,…]\n\
         \x20            [--schedulers s,…] [--seeds s,…] [--reconfigs-us r,…]\n\
         \x20            [--shards k,…] [--fidelity f,…] [--duration-ms d]\n\
         \x20            [--threads t] [--out name]\n\
         \x20            [--profile full|lean|timeseries] [--trace] [--counters]\n\
         \x20            [--point-timeout secs]\n\
         \x20 sweep timeseries <scenario>[,…]|all [run options]\n\
         \x20 sweep trace <scenario>[,…]|all [run options]\n\
         \x20 sweep bench [--smoke] [--shards k] [--out file.json]\n\
         \x20 sweep validate-estimates [--smoke] [--out name] [--point-timeout secs]\n\
         scenarios: {}",
        library::all_names().join(", ")
    );
    ExitCode::FAILURE
}

fn parse_list<T: std::str::FromStr>(v: &str) -> Result<Vec<T>, String> {
    v.split(',')
        .map(|s| {
            s.trim()
                .parse::<T>()
                .map_err(|_| format!("bad value {s:?} in {v:?}"))
        })
        .collect()
}

struct Options {
    ports: Vec<usize>,
    loads: Vec<f64>,
    schedulers: Vec<SchedulerKind>,
    seeds: Vec<u64>,
    reconfigs: Vec<SimDuration>,
    shards: Vec<usize>,
    fidelities: Vec<Fidelity>,
    duration: Option<SimDuration>,
    threads: Option<usize>,
    out: Option<String>,
    profile: Option<InstrProfile>,
    trace: bool,
    counters: bool,
    point_timeout: Option<std::time::Duration>,
}

fn parse_point_timeout(v: &str) -> Result<std::time::Duration, String> {
    v.parse::<u64>()
        .ok()
        .filter(|&s| s >= 1)
        .map(std::time::Duration::from_secs)
        .ok_or_else(|| "bad --point-timeout (need an integer number of seconds >= 1)".into())
}

/// Parses a whole number of `unit_ns`-nanosecond units into a duration,
/// rejecting a value whose nanoseconds do not fit in `u64` instead of
/// letting the multiply wrap.
fn parse_duration(flag: &str, v: &str, unit_ns: u64) -> Result<SimDuration, String> {
    let n: u64 = v
        .trim()
        .parse()
        .map_err(|_| format!("bad {flag} value {v:?}"))?;
    n.checked_mul(unit_ns)
        .map(SimDuration::from_nanos)
        .ok_or_else(|| format!("{flag} value {n} overflows the nanosecond clock"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        ports: Vec::new(),
        loads: Vec::new(),
        schedulers: Vec::new(),
        seeds: Vec::new(),
        reconfigs: Vec::new(),
        shards: Vec::new(),
        fidelities: Vec::new(),
        duration: None,
        threads: None,
        out: None,
        profile: None,
        trace: false,
        counters: false,
        point_timeout: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--ports" => o.ports = parse_list(&value()?)?,
            "--loads" => o.loads = parse_list(&value()?)?,
            "--seeds" => o.seeds = parse_list(&value()?)?,
            "--shards" => o.shards = parse_list(&value()?)?,
            "--reconfigs-us" => {
                o.reconfigs = value()?
                    .split(',')
                    .map(|r| parse_duration("--reconfigs-us", r, 1_000))
                    .collect::<Result<_, _>>()?
            }
            "--fidelity" => {
                o.fidelities = value()?
                    .split(',')
                    .map(|n| {
                        Fidelity::from_name(n.trim())
                            .ok_or_else(|| format!("unknown fidelity {n:?} (exact|estimate)"))
                    })
                    .collect::<Result<_, _>>()?
            }
            "--schedulers" => {
                o.schedulers = value()?
                    .split(',')
                    .map(|n| {
                        SchedulerKind::from_name(n.trim())
                            .ok_or_else(|| format!("unknown scheduler {n:?}"))
                    })
                    .collect::<Result<_, _>>()?
            }
            "--duration-ms" => {
                o.duration = Some(parse_duration("--duration-ms", &value()?, 1_000_000)?)
            }
            "--threads" => o.threads = Some(value()?.parse().map_err(|_| "bad --threads")?),
            "--out" => o.out = Some(value()?),
            "--trace" => o.trace = true,
            "--counters" => o.counters = true,
            "--point-timeout" => o.point_timeout = Some(parse_point_timeout(&value()?)?),
            "--profile" => {
                let v = value()?;
                o.profile = Some(
                    InstrProfile::from_name(&v)
                        .ok_or_else(|| format!("unknown profile {v:?} (full|lean|timeseries)"))?,
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn run(names: &str, opts: Options) -> Result<(), String> {
    let names: Vec<&str> = if names == "all" {
        library::all_names()
    } else {
        names.split(',').map(str::trim).collect()
    };
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    for name in &names {
        let mut base =
            library::scenario(name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
        if let Some(d) = opts.duration {
            base = base.with_duration(d);
        }
        if let Some(p) = opts.profile {
            base = base.with_profile(p);
        }
        if opts.trace {
            base = base.with_trace(true);
        }
        let mut grid = SweepGrid::new(base);
        if !opts.ports.is_empty() {
            grid = grid.ports(opts.ports.clone());
        }
        if !opts.loads.is_empty() {
            grid = grid.loads(opts.loads.clone());
        }
        if !opts.schedulers.is_empty() {
            grid = grid.schedulers(opts.schedulers.clone());
        }
        if !opts.seeds.is_empty() {
            grid = grid.seeds(opts.seeds.clone());
        }
        if !opts.reconfigs.is_empty() {
            grid = grid.reconfigs(opts.reconfigs.clone());
        }
        if !opts.shards.is_empty() {
            grid = grid.shards(opts.shards.clone());
        }
        if !opts.fidelities.is_empty() {
            grid = grid.fidelities(opts.fidelities.clone());
        }
        specs.extend(grid.specs());
    }
    let executor = match opts.threads {
        Some(t) => SweepExecutor::with_threads(t),
        None => SweepExecutor::new(),
    }
    .with_point_timeout(opts.point_timeout);
    println!(
        "sweep: {} point(s) across {} thread(s)\n",
        specs.len(),
        executor.threads()
    );
    let results = executor.run(specs);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("sweep_{}", names.join("_")));
    emit_sweep_with(
        &out,
        &format!("sweep: {}", names.join(", ")),
        &results,
        opts.counters,
    );
    if results.has_timeseries() {
        for path in results.write_timeseries_artifacts(&out) {
            println!("[saved {}]", path.display());
        }
    }
    if results.has_traces() {
        for path in results.write_trace_artifacts(&out) {
            println!("[saved {}]", path.display());
        }
    }
    let failed = results.points.iter().filter(|p| p.report.is_err()).count();
    if failed > 0 {
        Err(format!("{failed} point(s) failed"))
    } else {
        Ok(())
    }
}

fn run_bench_cmd(args: &[String]) -> Result<(), String> {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(value()?),
            "--shards" => {
                shards = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or("bad --shards (need an integer >= 1)")?,
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let mode = if smoke { "smoke" } else { "full" };
    let mut specs = xds_bench::bench::catalogue(smoke);
    // Forcing the shard count never changes events or delivered bytes
    // (the sharded core's determinism contract), so point names stay
    // untouched and CI can compare the two artifacts point for point.
    if let Some(k) = shards {
        specs = specs.into_iter().map(|s| s.with_shards(k)).collect();
    }
    println!(
        "sweep bench: {} pinned point(s), mode={mode}, profile=lean, fidelity=exact{}, \
         sequential single-thread\n",
        specs.len(),
        match shards {
            Some(k) => format!(", shards={k}"),
            None => String::new(),
        }
    );
    let run = xds_bench::bench::run_bench(specs, mode, |p| {
        println!(
            "  {:<20} {:>10} events {:>9.1} ms {:>12.0} ev/s",
            p.name,
            p.events,
            p.wall_ns as f64 / 1e6,
            p.events_per_sec()
        );
    })?;
    println!(
        "\n  total: {} events in {:.1} ms = {:.0} events/sec",
        run.total_events(),
        run.total_wall_ns() as f64 / 1e6,
        run.events_per_sec()
    );
    let path = out.unwrap_or_else(|| format!("results/bench_{mode}.json"));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&path, run.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("[saved {path}]");
    Ok(())
}

fn run_validate_cmd(args: &[String]) -> Result<(), String> {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut point_timeout: Option<std::time::Duration> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(value()?),
            "--point-timeout" => point_timeout = Some(parse_point_timeout(&value()?)?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let mode = if smoke { "smoke" } else { "full" };
    let specs = xds_bench::bench::catalogue(smoke);
    println!(
        "sweep validate-estimates: {} catalogue point(s), mode={mode}, \
         exact vs estimate, sequential single-thread\n",
        specs.len()
    );
    let run = xds_bench::validate::run_validation(
        specs,
        mode,
        xds_bench::bench::today_string(),
        point_timeout,
        |r| {
            let errs = r.err_values();
            println!(
                "  {:<22} exact {:>9.1} ms  est {:>8.2} ms  speedup {:>7.1}x  \
                 err p50 {:.4} p95 {:.4} max {:.4}",
                r.name,
                r.exact_wall_ns as f64 / 1e6,
                r.est_wall_ns as f64 / 1e6,
                r.speedup(),
                xds_metrics::percentile_of(&errs, 0.50),
                xds_metrics::percentile_of(&errs, 0.95),
                xds_metrics::percentile_of(&errs, 1.0),
            );
        },
    )?;
    let all = run.all_errors();
    println!(
        "\n  envelope over {} comparison(s): err p50 {:.4} p95 {:.4} max {:.4}",
        all.len(),
        xds_metrics::percentile_of(&all, 0.50),
        xds_metrics::percentile_of(&all, 0.95),
        xds_metrics::percentile_of(&all, 1.0),
    );
    if let Some(s) = run.min_kilofabric_speedup() {
        println!("  minimum kilofabric speedup: {s:.1}x");
    }
    let base = out.unwrap_or_else(|| format!("validate_{mode}"));
    std::fs::create_dir_all("results").map_err(|e| format!("mkdir results: {e}"))?;
    for (ext, body) in [("json", run.to_json()), ("csv", run.to_csv())] {
        let path = format!("results/{base}.validation.{ext}");
        std::fs::write(&path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("[saved {path}]");
    }
    Ok(())
}

/// Formats one catalogue line per scenario name, resolving each through
/// the library. A name that fails to resolve — catalogue drift, or a
/// hand-edited invocation listing a scenario that no longer exists — is
/// a one-line user error, not a panic.
fn list_lines<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<Vec<String>, String> {
    names
        .into_iter()
        .map(|name| {
            let spec = library::scenario(name)
                .ok_or_else(|| format!("unknown scenario {name:?} (see `sweep list`)"))?;
            Ok(format!(
                "{name:<18} ports={:<5} pattern={:<14} sizes={:<10} sched={:<10} apps={:<10} faults={}",
                spec.n_ports,
                spec.pattern.label(),
                spec.sizes.label(),
                spec.scheduler.label(),
                spec.apps.label(),
                spec.faults
                    .as_ref()
                    .map(xds_core::FaultPlan::label)
                    .unwrap_or_else(|| "none".into()),
            ))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => match list_lines(library::all_names()) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sweep list: {e}");
                ExitCode::FAILURE
            }
        },
        Some("bench") => match run_bench_cmd(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sweep bench: {e}");
                ExitCode::FAILURE
            }
        },
        Some("validate-estimates") => match run_validate_cmd(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sweep validate-estimates: {e}");
                ExitCode::FAILURE
            }
        },
        Some("run") => {
            let Some(names) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return usage();
            };
            match parse_options(&args[2..]).and_then(|o| run(names, o)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("sweep: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("trace") => {
            // `sweep run --trace --counters`: the flight-recorder
            // artifact plus pinnable counters is the whole point here.
            let Some(names) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return usage();
            };
            let parsed = parse_options(&args[2..]).map(|mut o| {
                o.trace = true;
                o.counters = true;
                o
            });
            match parsed.and_then(|o| run(names, o)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("sweep trace: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("timeseries") => {
            // `sweep run --profile timeseries` with the profile pinned:
            // the epoch-resolution artifact is the whole point here.
            let Some(names) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return usage();
            };
            let parsed = parse_options(&args[2..]).and_then(|mut o| {
                // Reject a conflicting explicit profile instead of
                // silently overriding it.
                if matches!(o.profile, Some(p) if p != InstrProfile::TimeSeries) {
                    return Err("the timeseries subcommand pins --profile timeseries; \
                         use `sweep run --profile <p>` for other profiles"
                        .into());
                }
                o.profile = Some(InstrProfile::TimeSeries);
                Ok(o)
            });
            match parsed.and_then(|o| run(names, o)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("sweep timeseries: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_resolves_the_whole_catalogue() {
        let lines = list_lines(library::all_names()).expect("every catalogue name must resolve");
        assert_eq!(lines.len(), library::all_names().len());
        for l in &lines {
            for col in ["ports=", "pattern=", "sizes=", "sched=", "apps=", "faults="] {
                assert!(l.contains(col), "list line lost its {col} column: {l}");
            }
        }
        // Faulted entries show their plan; clean ones read as none.
        let storm = lines
            .iter()
            .find(|l| l.starts_with("fault-storm"))
            .expect("fault-storm is in the catalogue");
        assert!(storm.contains("faults=link+misfire+stall"), "{storm}");
        let uniform = lines
            .iter()
            .find(|l| l.starts_with("uniform "))
            .expect("uniform is in the catalogue");
        assert!(uniform.contains("faults=none"), "{uniform}");
    }

    #[test]
    fn duration_flags_reject_values_that_overflow_nanoseconds() {
        let args = |flag: &str, v: &str| vec![flag.to_string(), v.to_string()];
        // u64::MAX ns is 18_446_744_073_709 ms and 18_446_744_073_709_551 µs.
        let o = parse_options(&args("--duration-ms", "18446744073709")).unwrap();
        assert_eq!(
            o.duration,
            Some(SimDuration::from_nanos(18_446_744_073_709_000_000))
        );
        let o = parse_options(&args("--reconfigs-us", "1,18446744073709551")).unwrap();
        assert_eq!(
            o.reconfigs,
            vec![
                SimDuration::from_micros(1),
                SimDuration::from_nanos(18_446_744_073_709_551_000)
            ]
        );
        for (flag, v) in [
            ("--duration-ms", "18446744073710"),
            ("--reconfigs-us", "18446744073709552"),
            ("--reconfigs-us", "1,18446744073709552"),
        ] {
            let err = match parse_options(&args(flag, v)) {
                Ok(_) => panic!("{flag} {v} must be rejected"),
                Err(e) => e,
            };
            assert!(err.contains(flag), "error must name the flag: {err}");
            assert!(!err.contains('\n'), "one-line user error: {err}");
        }
    }

    #[test]
    fn list_reports_a_one_line_error_for_unknown_names() {
        let err = list_lines(["uniform", "no-such-scenario"])
            .expect_err("a vanished scenario name must not panic");
        assert!(
            err.contains("unknown scenario \"no-such-scenario\""),
            "error must name the missing entry: {err}"
        );
        assert!(!err.contains('\n'), "one-line user error: {err}");
    }
}
