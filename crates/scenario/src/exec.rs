//! The parallel sweep executor: shard grid points across OS threads,
//! collect reports in grid order.
//!
//! Every point is an independent single-threaded simulation whose RNG
//! streams derive only from its own spec, so parallelism is
//! embarrassingly clean: workers pull point indices off a shared atomic
//! counter, run them, and write results into their slots. Output order —
//! and therefore serialized JSON/CSV — is byte-identical for any worker
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use xds_core::report::RunReport;

use crate::output::{PointResult, SweepResults};
use crate::spec::ScenarioSpec;

/// Applies `f` to every item on a pool of `threads` workers, preserving
/// input order in the output. Items are pulled dynamically (work
/// stealing by atomic counter), so uneven point costs still balance.
pub fn parallel_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("each index is claimed once");
                let r = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// [`parallel_map_threads`] with one worker per available core.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_threads(items, default_threads(), f)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Runs one point with panic isolation and an optional wall-clock budget.
///
/// A panic anywhere inside the point (spec materialization, the runtime,
/// report assembly) is caught and converted into a per-point error, so a
/// sweep containing a pathological corner still completes and reports the
/// corner as such. With a timeout set, the point runs on a watchdog
/// thread: if the wall-clock budget elapses first, the point is reported
/// as timed out and its worker thread is abandoned (it keeps the CPU
/// until it finishes, but its result is discarded). The timeout gates
/// only *whether* a result is accepted — a point that completes in time
/// returns exactly what an unwatched run would have, so fixed-seed sweeps
/// stay byte-identical.
pub fn run_point_guarded(
    spec: &ScenarioSpec,
    timeout: Option<Duration>,
) -> Result<RunReport, String> {
    let name = spec.name.clone();
    let run = {
        let spec = spec.clone();
        let name = name.clone();
        move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.run())).unwrap_or_else(
                |p| Err(format!("scenario {name}: panicked: {}", panic_message(&*p))),
            )
        }
    };
    let Some(limit) = timeout else {
        return run();
    };
    // A deadline past what `Instant` can represent is no deadline: the
    // point runs unwatched, to completion.
    // xlint: allow(wall-clock) — watchdog deadline is harness wall time; it gates result acceptance, never simulated behavior
    let Some(deadline) = std::time::Instant::now().checked_add(limit) else {
        return run();
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name(format!("point-{name}"))
        .spawn(move || {
            let _ = tx.send(run());
        });
    if let Err(e) = spawned {
        return Err(format!("scenario {name}: watchdog spawn failed: {e}"));
    }
    loop {
        // xlint: allow(wall-clock) — remaining watchdog budget against the same harness-side deadline
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            // One last grace poll: a result that beat the deadline wins
            // even if this thread was scheduled late.
            if let Ok(r) = rx.try_recv() {
                return r;
            }
            return Err(format!(
                "scenario {name}: exceeded point timeout of {}s; worker abandoned",
                limit.as_secs_f64()
            ));
        }
        match rx.recv_timeout(left) {
            Ok(r) => return r,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return Err(format!("scenario {name}: worker vanished without a result"));
            }
        }
    }
}

/// Runs batches of [`ScenarioSpec`] points across worker threads.
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    threads: usize,
    point_timeout: Option<Duration>,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        SweepExecutor {
            threads: default_threads(),
            point_timeout: None,
        }
    }
}

impl SweepExecutor {
    /// One worker per available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// An executor with an explicit worker count (floored at 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepExecutor {
            threads: threads.max(1),
            point_timeout: None,
        }
    }

    /// Sets a wall-clock budget per point (`None` = unbounded, the
    /// default). A point that overruns becomes an error row; see
    /// [`run_point_guarded`] for the exact semantics.
    pub fn with_point_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.point_timeout = timeout;
        self
    }

    /// The worker count this executor will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every point and returns results in input order. Invalid specs
    /// produce per-point errors, never a panic — a sweep that wanders into
    /// an inadmissible corner (e.g. epoch ≤ reconfiguration) still
    /// completes and reports the corner as such. Panicking points are
    /// isolated the same way, and points overrunning the executor's
    /// [`point timeout`](Self::with_point_timeout) become error rows.
    pub fn run(&self, specs: Vec<ScenarioSpec>) -> SweepResults {
        let timeout = self.point_timeout;
        let points = parallel_map_threads(specs, self.threads, move |spec| {
            let report = run_point_guarded(&spec, timeout);
            PointResult { spec, report }
        });
        SweepResults { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use xds_sim::SimDuration;

    #[test]
    fn parallel_map_preserves_order() {
        let got = parallel_map((0..100u64).collect(), |x| x * 2);
        assert_eq!(got, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_is_empty() {
        let got: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let specs: Vec<ScenarioSpec> = (0..4)
            .map(|i| {
                ScenarioSpec::new(format!("p{i}"))
                    .with_ports(4)
                    .with_seed(i as u64 + 1)
                    .with_duration(SimDuration::from_millis(1))
            })
            .collect();
        let a = SweepExecutor::with_threads(1).run(specs.clone());
        let b = SweepExecutor::with_threads(4).run(specs);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn estimate_tier_is_byte_identical_across_thread_counts() {
        // The estimate tier must honor the same contract as the exact
        // tier: per-point streams fork off the spec seed on one thread,
        // so sweep artifacts cannot depend on worker count.
        let specs: Vec<ScenarioSpec> = (0..6)
            .map(|i| {
                ScenarioSpec::new(format!("e{i}"))
                    .with_ports(8)
                    .with_seed(i as u64 + 1)
                    .with_fidelity(crate::Fidelity::Estimate)
                    .with_duration(SimDuration::from_millis(1))
            })
            .collect();
        let a = SweepExecutor::with_threads(1).run(specs.clone());
        let b = SweepExecutor::with_threads(2).run(specs.clone());
        let c = SweepExecutor::with_threads(8).run(specs);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(b.to_json(), c.to_json());
        assert_eq!(a.to_csv(), c.to_csv());
    }

    #[test]
    fn invalid_point_reports_error_without_sinking_the_sweep() {
        let specs = vec![
            ScenarioSpec::new("ok")
                .with_ports(4)
                .with_duration(SimDuration::from_millis(1)),
            ScenarioSpec::new("bad").with_ports(1),
        ];
        let results = SweepExecutor::with_threads(2).run(specs);
        assert!(results.points[0].report.is_ok());
        assert!(results.points[1].report.is_err());
    }

    #[test]
    fn panicking_point_becomes_an_error_row_not_a_crashed_sweep() {
        let specs = vec![
            ScenarioSpec::new("ok")
                .with_ports(4)
                .with_duration(SimDuration::from_millis(1)),
            // Deliberately panics deep inside SimBuilder::build — past
            // every Err-returning validation layer.
            ScenarioSpec::new("boom")
                .with_ports(4)
                .with_faults(xds_core::FaultPlan::none().with_harness_panic()),
        ];
        let results = SweepExecutor::with_threads(2).run(specs);
        assert!(results.points[0].report.is_ok());
        let err = results.points[1].report.as_ref().unwrap_err();
        assert!(err.contains("panicked"), "{err}");
        assert!(err.contains("harness panic"), "{err}");
        // The error row serializes like any other failed point.
        assert!(results.to_csv().lines().nth(2).unwrap().ends_with(",0"));
    }

    #[test]
    fn point_timeout_turns_an_overrunning_point_into_an_error_row() {
        // A 2048-port sharded point takes far longer than a nanosecond.
        let slow = ScenarioSpec::new("slow")
            .with_ports(256)
            .with_duration(SimDuration::from_millis(50));
        let results = SweepExecutor::with_threads(1)
            .with_point_timeout(Some(std::time::Duration::from_nanos(1)))
            .run(vec![slow]);
        let err = results.points[0].report.as_ref().unwrap_err();
        assert!(err.contains("point timeout"), "{err}");
        // A generous budget accepts the result unchanged, and so does one
        // whose deadline `Instant` cannot represent.
        let spec = ScenarioSpec::new("fast")
            .with_ports(4)
            .with_duration(SimDuration::from_millis(1));
        let unwatched = spec.clone().run().unwrap();
        for budget in [
            std::time::Duration::from_secs(600),
            std::time::Duration::MAX,
        ] {
            let watched = SweepExecutor::with_threads(1)
                .with_point_timeout(Some(budget))
                .run(vec![spec.clone()]);
            let r = watched.points[0].report.as_ref().unwrap();
            assert_eq!(r.events, unwatched.events, "{budget:?}");
            assert_eq!(r.counters, unwatched.counters, "{budget:?}");
        }
    }
}
