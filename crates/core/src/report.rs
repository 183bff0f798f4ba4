//! Run reports: every experiment consumes the same measurement bundle.
//!
//! Derived metrics are exposed twice: as typed methods
//! ([`RunReport::throughput_gbps`], …) and as the canonical
//! [`RunReport::metric_columns`] list — the single accessor layer both
//! the human [`RunReport::summary_table`] and the machine-readable sweep
//! rows (`xds_scenario::output`) derive their cells from, so the two can
//! never disagree on what a column means.

use xds_metrics::{CounterSet, EpochSeries, FctStats, LatencyHistogram, SizeClass, Table};
use xds_sim::SimDuration;
use xds_switch::{EpsStats, OcsStats};

/// Packet drops by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Switch VOQ overflow (fast mode).
    pub voq_full: u64,
    /// EPS output-queue overflow.
    pub eps_full: u64,
    /// Packets that hit a dark or re-assigned circuit (slow mode
    /// synchronization failures).
    pub sync_violation: u64,
    /// Packets that hit a fault-injected dark link (see
    /// [`crate::fault::FaultPlan`]).
    pub link_dark: u64,
}

impl DropStats {
    /// Total drops.
    pub fn total(&self) -> u64 {
        self.voq_full + self.eps_full + self.sync_violation + self.link_dark
    }
}

/// The measurement bundle of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Scheduler used.
    pub scheduler: String,
    /// Placement label ("hardware" / "software").
    pub placement: String,
    /// Measured horizon.
    pub horizon: SimDuration,
    /// Events the model processed: coordinator and shard events popped
    /// from the event queues, plus the ones a NIC train handles without a
    /// queue event — a host's back-to-back departures and its gated
    /// packets' switch arrivals. The same for every shard count and
    /// profile; `CounterSet::queue_pops` counts the popped ones alone.
    pub events: u64,

    /// Bytes offered by the workload (flow sizes + app packets).
    pub offered_bytes: u64,
    /// Flows injected.
    pub offered_flows: u64,
    /// Flows fully delivered.
    pub completed_flows: u64,
    /// Bytes delivered over the OCS.
    pub delivered_ocs_bytes: u64,
    /// Bytes delivered over the EPS.
    pub delivered_eps_bytes: u64,

    /// One-way latency of interactive packets (ns).
    pub latency_interactive: LatencyHistogram,
    /// One-way latency of short-class packets (ns).
    pub latency_short: LatencyHistogram,
    /// One-way latency of bulk packets (ns).
    pub latency_bulk: LatencyHistogram,
    /// Mean RFC 3550 jitter across apps (ns), if any apps ran.
    pub voip_jitter_mean_ns: Option<f64>,
    /// Worst per-app RFC 3550 jitter (ns).
    pub voip_jitter_max_ns: Option<f64>,

    /// FCT stats per size class.
    pub fct_mice: Option<FctStats>,
    /// FCT stats for medium flows.
    pub fct_medium: Option<FctStats>,
    /// FCT stats for elephants.
    pub fct_elephant: Option<FctStats>,
    /// FCT stats over all flows.
    pub fct_overall: Option<FctStats>,

    /// Peak bytes buffered in host memory.
    pub peak_host_buffer: u64,
    /// Peak bytes buffered in the switch.
    pub peak_switch_buffer: u64,

    /// Drops by cause.
    pub drops: DropStats,
    /// OCS lifetime stats.
    pub ocs: OcsStats,
    /// EPS lifetime stats.
    pub eps: EpsStats,

    /// Scheduler decisions taken.
    pub decisions: u64,
    /// Mean decision latency (ns).
    pub decision_latency_mean_ns: f64,
    /// Mean relative L1 demand-estimation error (E6), if sampled.
    pub demand_error_mean: Option<f64>,

    /// Simulated nanoseconds the fabric spent in degraded mode (at
    /// least one port dark to injected faults). Zero when no fault plan
    /// was armed.
    pub fault_degraded_ns: u64,
    /// Bytes diverted from granted OCS bursts onto the EPS slow path
    /// because the circuit was faulted or stale. Zero when no fault
    /// plan was armed.
    pub fault_failover_bytes: u64,

    /// Wall-clock split of the per-epoch scheduling path (host time, not
    /// simulated time — which phase of the epoch loop the simulator
    /// itself spends its cycles in). Deliberately **not** part of
    /// [`trace_json`](Self::trace_json): wall-clock is nondeterministic,
    /// and the golden traces pin simulated behavior only.
    pub phases: EpochPhaseNs,

    /// Epoch-resolution telemetry (per-epoch demand error, duty cycle,
    /// VOQ backlog), recorded only under the `timeseries`
    /// instrumentation profile. Like [`phases`](Self::phases), excluded
    /// from [`trace_json`](Self::trace_json) — the golden traces pin the
    /// classic aggregate bundle.
    pub timeseries: Option<EpochSeries>,

    /// Deterministic internal counters (scheduler memoization, event-
    /// queue pops, packet-pool conservation ledger, grant batching):
    /// pure functions of the simulated event sequence, so
    /// they are pinnable and thread-count-invariant. Deliberately **not**
    /// part of [`trace_json`](Self::trace_json) — the golden traces pin
    /// the classic aggregate bundle and must not churn when a counter is
    /// added. Surfaced to sweep rows via
    /// [`counter_columns`](Self::counter_columns).
    pub counters: CounterSet,

    /// Serialized Chrome Trace Event Format JSON from the flight
    /// recorder, present only when the run was built with
    /// `SimBuilder::trace(true)`. Wall-clock data — like
    /// [`phases`](Self::phases), excluded from
    /// [`trace_json`](Self::trace_json).
    pub chrome_trace: Option<String>,

    /// Whether the run was observed (false under the `lean` profile).
    /// When false, the latency/FCT and peak-buffer fields above are
    /// *unmeasured*, not zero, and [`metric_columns`](Self::metric_columns)
    /// renders them as `null` so lean rows cannot be mistaken for
    /// "measured zero". Excluded from `trace_json` (goldens always run
    /// full fidelity).
    pub measured: bool,
}

/// Wall-clock nanoseconds the simulator spent in each phase of the
/// epoch path, summed over the run: request intake plus demand
/// estimation plus error sampling (`estimate`), the scheduling
/// algorithm proper (`decompose`), and grant-burst execution at slot
/// activation (`apply`, fast mode). The bench harness emits these per
/// point so a scale regression names its phase instead of just its
/// point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochPhaseNs {
    /// Requests → estimator → demand-error sample.
    pub estimate: u64,
    /// `Scheduler::schedule` (the decomposition / matching work).
    pub decompose: u64,
    /// Grant execution when a slot activates (fast mode).
    pub apply: u64,
}

/// A single machine-readable metric value from the
/// [`RunReport::metric_columns`] accessor layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Exact counter.
    U64(u64),
    /// Derived rate/ratio.
    F64(f64),
    /// Optional float (absent renders as `null`/empty).
    OptF64(Option<f64>),
    /// Optional counter (absent renders as `null`/empty).
    OptU64(Option<u64>),
}

impl MetricValue {
    /// Deterministic JSON literal: integers verbatim, floats in Rust's
    /// shortest-roundtrip `{:?}` form, absent/non-finite as `null`.
    pub fn json(&self) -> String {
        fn f(v: f64) -> String {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            }
        }
        match self {
            MetricValue::U64(v) => v.to_string(),
            MetricValue::F64(v) => f(*v),
            MetricValue::OptF64(v) => v.map(f).unwrap_or_else(|| "null".into()),
            MetricValue::OptU64(v) => v.map(|x| x.to_string()).unwrap_or_else(|| "null".into()),
        }
    }

    /// The value as a float, if present (counters widen losslessly
    /// enough for presentation).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::U64(v) => Some(*v as f64),
            MetricValue::F64(v) => Some(*v),
            MetricValue::OptF64(v) => *v,
            MetricValue::OptU64(v) => v.map(|x| x as f64),
        }
    }

    /// The value as an exact counter, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::U64(v) => Some(*v),
            MetricValue::OptU64(v) => *v,
            _ => None,
        }
    }
}

impl RunReport {
    /// An all-zero report skeleton for the given identity: every counter
    /// zero, every histogram empty, every optional absent, the
    /// observation flag set to "measured". The exact runtime fills its
    /// bundle incrementally; synthetic producers (the `xds-estimate` fidelity
    /// tier, test fixtures) start from this skeleton so adding a report
    /// field breaks exactly one constructor.
    pub fn skeleton(
        scheduler: impl Into<String>,
        placement: impl Into<String>,
        horizon: SimDuration,
    ) -> RunReport {
        RunReport {
            scheduler: scheduler.into(),
            placement: placement.into(),
            horizon,
            events: 0,
            offered_bytes: 0,
            offered_flows: 0,
            completed_flows: 0,
            delivered_ocs_bytes: 0,
            delivered_eps_bytes: 0,
            latency_interactive: LatencyHistogram::new(),
            latency_short: LatencyHistogram::new(),
            latency_bulk: LatencyHistogram::new(),
            voip_jitter_mean_ns: None,
            voip_jitter_max_ns: None,
            fct_mice: None,
            fct_medium: None,
            fct_elephant: None,
            fct_overall: None,
            peak_host_buffer: 0,
            peak_switch_buffer: 0,
            drops: DropStats::default(),
            ocs: OcsStats::default(),
            eps: EpsStats::default(),
            decisions: 0,
            decision_latency_mean_ns: 0.0,
            demand_error_mean: None,
            fault_degraded_ns: 0,
            fault_failover_bytes: 0,
            phases: EpochPhaseNs::default(),
            timeseries: None,
            counters: CounterSet::default(),
            chrome_trace: None,
            measured: true,
        }
    }

    /// Total delivered bytes.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_ocs_bytes + self.delivered_eps_bytes
    }

    /// Achieved aggregate throughput in Gb/s over the horizon.
    pub fn throughput_gbps(&self) -> f64 {
        if self.horizon.is_zero() {
            return 0.0;
        }
        self.delivered_bytes() as f64 * 8.0 / self.horizon.as_secs_f64() / 1e9
    }

    /// Delivered / offered bytes (may legitimately be < 1 when queues
    /// still hold traffic at the horizon).
    pub fn goodput_fraction(&self) -> f64 {
        if self.offered_bytes == 0 {
            return 0.0;
        }
        self.delivered_bytes() as f64 / self.offered_bytes as f64
    }

    /// Fraction of delivered bytes that rode the OCS.
    pub fn ocs_byte_share(&self) -> f64 {
        let total = self.delivered_bytes();
        if total == 0 {
            return 0.0;
        }
        self.delivered_ocs_bytes as f64 / total as f64
    }

    /// OCS duty cycle: fraction of the horizon *not* spent dark.
    pub fn ocs_duty_cycle(&self) -> f64 {
        if self.horizon.is_zero() {
            return 0.0;
        }
        1.0 - (self.ocs.dark_time.as_secs_f64() / self.horizon.as_secs_f64()).min(1.0)
    }

    /// Canonical deep serialization of the whole measurement bundle as
    /// deterministic JSON: every counter, drop cause, histogram digest and
    /// FCT class, formatted identically on every run of the same
    /// simulation. This is the golden-trace format — regression tests
    /// snapshot it byte-for-byte, so any behavioral drift in the runtime
    /// (event ordering, byte accounting, latency recording) shows up as a
    /// diff even when headline aggregates happen to agree.
    pub fn trace_json(&self) -> String {
        use std::fmt::Write as _;
        fn f64j(v: f64) -> String {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            }
        }
        fn hist(out: &mut String, key: &str, h: &LatencyHistogram) {
            let _ = writeln!(
                out,
                "  \"{key}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}},",
                h.count(),
                h.min(),
                h.max(),
                f64j(h.mean()),
                h.p50(),
                h.quantile(0.90),
                h.p99(),
                h.p999()
            );
        }
        fn fct(out: &mut String, key: &str, s: &Option<FctStats>) {
            match s {
                None => {
                    let _ = writeln!(out, "  \"{key}\": null,");
                }
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "  \"{key}\": {{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \
                         \"p99_ns\": {}, \"max_ns\": {}}},",
                        s.count,
                        f64j(s.mean_ns),
                        s.p50_ns,
                        s.p99_ns,
                        s.max_ns
                    );
                }
            }
        }
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"scheduler\": \"{}\",", self.scheduler);
        let _ = writeln!(o, "  \"placement\": \"{}\",", self.placement);
        let _ = writeln!(o, "  \"horizon_ns\": {},", self.horizon.as_nanos());
        let _ = writeln!(o, "  \"events\": {},", self.events);
        let _ = writeln!(o, "  \"offered_bytes\": {},", self.offered_bytes);
        let _ = writeln!(o, "  \"offered_flows\": {},", self.offered_flows);
        let _ = writeln!(o, "  \"completed_flows\": {},", self.completed_flows);
        let _ = writeln!(
            o,
            "  \"delivered_ocs_bytes\": {},",
            self.delivered_ocs_bytes
        );
        let _ = writeln!(
            o,
            "  \"delivered_eps_bytes\": {},",
            self.delivered_eps_bytes
        );
        hist(&mut o, "latency_interactive", &self.latency_interactive);
        hist(&mut o, "latency_short", &self.latency_short);
        hist(&mut o, "latency_bulk", &self.latency_bulk);
        let _ = writeln!(
            o,
            "  \"voip_jitter_mean_ns\": {},",
            self.voip_jitter_mean_ns
                .map(f64j)
                .unwrap_or_else(|| "null".into())
        );
        let _ = writeln!(
            o,
            "  \"voip_jitter_max_ns\": {},",
            self.voip_jitter_max_ns
                .map(f64j)
                .unwrap_or_else(|| "null".into())
        );
        fct(&mut o, "fct_mice", &self.fct_mice);
        fct(&mut o, "fct_medium", &self.fct_medium);
        fct(&mut o, "fct_elephant", &self.fct_elephant);
        fct(&mut o, "fct_overall", &self.fct_overall);
        let _ = writeln!(o, "  \"peak_host_buffer\": {},", self.peak_host_buffer);
        let _ = writeln!(o, "  \"peak_switch_buffer\": {},", self.peak_switch_buffer);
        let _ = writeln!(
            o,
            "  \"drops\": {{\"voq_full\": {}, \"eps_full\": {}, \"sync_violation\": {}}},",
            self.drops.voq_full, self.drops.eps_full, self.drops.sync_violation
        );
        let _ = writeln!(
            o,
            "  \"ocs\": {{\"reconfigurations\": {}, \"dark_time_ns\": {}, \
             \"delivered_bytes\": {}, \"delivered_packets\": {}, \"rejected\": {}}},",
            self.ocs.reconfigurations,
            self.ocs.dark_time.as_nanos(),
            self.ocs.delivered_bytes,
            self.ocs.delivered_packets,
            self.ocs.rejected
        );
        let _ = writeln!(
            o,
            "  \"eps\": {{\"delivered_bytes\": {}, \"delivered_packets\": {}, \
             \"drops\": {}, \"dropped_bytes\": {}}},",
            self.eps.delivered_bytes,
            self.eps.delivered_packets,
            self.eps.drops,
            self.eps.dropped_bytes
        );
        let _ = writeln!(o, "  \"decisions\": {},", self.decisions);
        let _ = writeln!(
            o,
            "  \"decision_latency_mean_ns\": {},",
            f64j(self.decision_latency_mean_ns)
        );
        let _ = writeln!(
            o,
            "  \"demand_error_mean\": {}",
            self.demand_error_mean
                .map(f64j)
                .unwrap_or_else(|| "null".into())
        );
        o.push_str("}\n");
        o
    }

    /// The canonical machine-readable metric columns, in stable order:
    /// the one list every row emitter (sweep JSON/CSV) and the summary
    /// table derive their report-backed cells from. Names are stable
    /// column identifiers.
    pub fn metric_columns(&self) -> Vec<(&'static str, MetricValue)> {
        use MetricValue as V;
        // Observation-derived columns render as absent (`null`/empty)
        // when their recorder did not run: a lean row must not read as
        // "measured zero latency / zero buffering".
        let obs = |v: u64| V::OptU64(self.measured.then_some(v));
        vec![
            ("events", V::U64(self.events)),
            ("offered_bytes", V::U64(self.offered_bytes)),
            ("offered_flows", V::U64(self.offered_flows)),
            ("completed_flows", obs(self.completed_flows)),
            ("delivered_ocs_bytes", V::U64(self.delivered_ocs_bytes)),
            ("delivered_eps_bytes", V::U64(self.delivered_eps_bytes)),
            ("throughput_gbps", V::F64(self.throughput_gbps())),
            ("goodput", V::F64(self.goodput_fraction())),
            ("ocs_byte_share", V::F64(self.ocs_byte_share())),
            ("ocs_duty_cycle", V::F64(self.ocs_duty_cycle())),
            ("p50_bulk_ns", obs(self.latency_bulk.p50())),
            ("p99_bulk_ns", obs(self.latency_bulk.p99())),
            ("p50_inter_ns", obs(self.latency_interactive.p50())),
            ("p99_inter_ns", obs(self.latency_interactive.p99())),
            ("jitter_mean_ns", V::OptF64(self.voip_jitter_mean_ns)),
            ("jitter_max_ns", V::OptF64(self.voip_jitter_max_ns)),
            (
                "fct_p99_ns",
                V::OptU64(self.fct_overall.as_ref().map(|x| x.p99_ns)),
            ),
            ("drops_voq", V::U64(self.drops.voq_full)),
            ("drops_eps", V::U64(self.drops.eps_full)),
            ("drops_sync", V::U64(self.drops.sync_violation)),
            ("drops_link_dark", V::U64(self.drops.link_dark)),
            ("peak_host_buffer", obs(self.peak_host_buffer)),
            ("peak_switch_buffer", obs(self.peak_switch_buffer)),
            ("ocs_reconfigurations", V::U64(self.ocs.reconfigurations)),
            ("decisions", V::U64(self.decisions)),
            (
                "decision_latency_mean_ns",
                V::F64(self.decision_latency_mean_ns),
            ),
            ("demand_error_mean", V::OptF64(self.demand_error_mean)),
            ("fault_degraded_ns", V::U64(self.fault_degraded_ns)),
            ("fault_failover_bytes", V::U64(self.fault_failover_bytes)),
        ]
    }

    /// The deterministic internal-counter columns, in [`CounterSet`]'s
    /// canonical order. Kept separate from
    /// [`metric_columns`](Self::metric_columns) so the classic sweep
    /// row layout is unchanged unless a caller opts the counter group
    /// in.
    pub fn counter_columns(&self) -> Vec<(&'static str, MetricValue)> {
        self.counters
            .items()
            .iter()
            .map(|&(k, v)| (k, MetricValue::U64(v)))
            .collect()
    }

    /// Looks one canonical metric column up by name.
    pub fn metric(&self, name: &str) -> Option<MetricValue> {
        self.metric_columns()
            .into_iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// Looks a canonical column up in an already-materialized
    /// [`metric_columns`](Self::metric_columns) slice — the shared lens
    /// every table renderer uses, so a renamed column fails in one
    /// place.
    ///
    /// # Panics
    /// Panics on an unknown name (the canonical set is closed).
    pub fn column(cols: &[(&'static str, MetricValue)], name: &str) -> MetricValue {
        cols.iter()
            .find(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("unknown metric column {name}"))
            .1
    }

    /// FCT stats for one class.
    pub fn fct(&self, class: SizeClass) -> Option<&FctStats> {
        match class {
            SizeClass::Mice => self.fct_mice.as_ref(),
            SizeClass::Medium => self.fct_medium.as_ref(),
            SizeClass::Elephant => self.fct_elephant.as_ref(),
        }
    }

    /// Renders the headline numbers as a table (used by the quickstart
    /// example and F2). Every report-derived cell is pulled from the
    /// same [`metric_columns`](Self::metric_columns) accessor layer the
    /// machine-readable sweep rows use — only the formatting differs.
    /// Unmeasured observables (lean profile) render as `-`.
    pub fn summary_table(&self) -> Table {
        let cols = self.metric_columns();
        let m = |name: &str| Self::column(&cols, name);
        let u = |name: &str| m(name).as_u64().expect("counter column");
        let f = |name: &str| m(name).as_f64().expect("numeric column");
        // Observation columns may be absent (unmeasured).
        let bytes_or_dash = |name: &str| {
            m(name)
                .as_u64()
                .map(xds_metrics::fmt_bytes)
                .unwrap_or_else(|| "-".into())
        };
        let ns_or_dash = |name: &str| {
            m(name)
                .as_u64()
                .map(|v| format!("{v}ns"))
                .unwrap_or_else(|| "-".into())
        };
        let mut t = Table::new(
            format!("run summary: {} / {}", self.scheduler, self.placement),
            &["metric", "value"],
        );
        let mut row = |k: &str, v: String| {
            t.row(vec![k.to_string(), v]);
        };
        row("horizon", self.horizon.to_string());
        row("offered", xds_metrics::fmt_bytes(u("offered_bytes")));
        row(
            "delivered (ocs/eps)",
            format!(
                "{} / {}",
                xds_metrics::fmt_bytes(u("delivered_ocs_bytes")),
                xds_metrics::fmt_bytes(u("delivered_eps_bytes"))
            ),
        );
        row("throughput", format!("{:.3} Gbps", f("throughput_gbps")));
        row("p99 latency bulk", ns_or_dash("p99_bulk_ns"));
        row("p99 latency interactive", ns_or_dash("p99_inter_ns"));
        row(
            "peak buffer host/switch",
            format!(
                "{} / {}",
                bytes_or_dash("peak_host_buffer"),
                bytes_or_dash("peak_switch_buffer")
            ),
        );
        row("drops", format!("{:?}", self.drops));
        row("decisions", u("decisions").to_string());
        row(
            "mean decision latency",
            format!("{:.0}ns", f("decision_latency_mean_ns")),
        );
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> RunReport {
        RunReport::skeleton("test", "hardware", SimDuration::from_millis(1))
    }

    #[test]
    fn throughput_and_shares() {
        let mut r = blank();
        r.delivered_ocs_bytes = 9_000_000;
        r.delivered_eps_bytes = 1_000_000;
        r.offered_bytes = 20_000_000;
        // 10 MB over 1 ms = 80 Gb/s.
        assert!((r.throughput_gbps() - 80.0).abs() < 1e-9);
        assert!((r.goodput_fraction() - 0.5).abs() < 1e-12);
        assert!((r.ocs_byte_share() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_all_zeros() {
        let r = blank();
        assert_eq!(r.throughput_gbps(), 0.0);
        assert_eq!(r.goodput_fraction(), 0.0);
        assert_eq!(r.ocs_byte_share(), 0.0);
        assert_eq!(r.drops.total(), 0);
    }

    #[test]
    fn duty_cycle_subtracts_dark_time() {
        let mut r = blank();
        r.ocs.dark_time = SimDuration::from_micros(100);
        // 100 µs dark of 1 ms = 90 % duty.
        assert!((r.ocs_duty_cycle() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn summary_table_renders() {
        let r = blank();
        let t = r.summary_table();
        assert!(!t.is_empty());
        let text = t.render_text();
        assert!(text.contains("throughput"));
    }

    #[test]
    fn counter_columns_mirror_the_counter_set_and_stay_out_of_goldens() {
        let mut r = blank();
        r.counters.sched_probes = 4;
        r.counters.pool_allocs = 9;
        let cols = r.counter_columns();
        assert_eq!(cols.len(), CounterSet::LEN);
        assert_eq!(cols[0].0, "sched_memo_hits");
        assert_eq!(
            RunReport::column(&cols, "sched_probes"),
            MetricValue::U64(4)
        );
        // Counters and flight-recorder output stay out of the golden-
        // trace serialization: adding one must not churn pinned traces.
        r.chrome_trace = Some("{\"traceEvents\": []}".into());
        let golden = r.trace_json();
        assert!(!golden.contains("sched_probes"));
        assert!(!golden.contains("traceEvents"));
    }

    #[test]
    fn metric_columns_cover_the_canonical_set_and_agree_with_methods() {
        let mut r = blank();
        r.delivered_ocs_bytes = 9_000_000;
        r.delivered_eps_bytes = 1_000_000;
        r.offered_bytes = 20_000_000;
        r.decisions = 7;
        let cols = r.metric_columns();
        // Stable, duplicate-free names.
        let mut names: Vec<&str> = cols.iter().map(|(k, _)| *k).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "metric column names must be unique");
        // The accessor agrees with the typed methods it wraps.
        assert_eq!(
            r.metric("throughput_gbps").unwrap().as_f64().unwrap(),
            r.throughput_gbps()
        );
        assert_eq!(r.metric("decisions").unwrap().as_u64(), Some(7));
        assert_eq!(r.metric("no_such_column"), None);
        // JSON literals are deterministic and null-safe.
        assert_eq!(MetricValue::U64(3).json(), "3");
        assert_eq!(MetricValue::F64(0.5).json(), "0.5");
        assert_eq!(MetricValue::F64(f64::NAN).json(), "null");
        assert_eq!(MetricValue::OptF64(None).json(), "null");
        assert_eq!(MetricValue::OptU64(Some(9)).json(), "9");
    }
}
