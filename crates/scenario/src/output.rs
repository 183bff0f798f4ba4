//! Machine-readable sweep output: JSON and CSV rows plus an aggregate
//! human table, with deterministic formatting so fixed-seed sweeps are
//! byte-identical across runs and thread counts.
//!
//! Serialization is hand-rolled (the workspace builds offline, without
//! serde): floats are printed with Rust's shortest-roundtrip `{:?}`
//! formatting, which is a pure function of the bit pattern.

use std::fmt::Write as _;
use std::path::Path;

use xds_core::report::RunReport;
use xds_metrics::Table;

use crate::spec::ScenarioSpec;

/// One executed grid point: the spec that described it and the report it
/// produced (or the reason it could not run).
#[derive(Debug)]
pub struct PointResult {
    /// The declarative point.
    pub spec: ScenarioSpec,
    /// The measurement bundle, or a per-point error.
    pub report: Result<RunReport, String>,
}

/// The ordered results of one sweep.
#[derive(Debug)]
pub struct SweepResults {
    /// Per-point results, in grid order.
    pub points: Vec<PointResult>,
}

/// Escapes a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` deterministically (shortest roundtrip; JSON-safe).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The columns every row carries, in order: `(name, value)` pairs. Spec
/// columns are derived here; every report-backed column comes from the
/// canonical [`RunReport::metric_columns`] accessor layer (the same one
/// `RunReport::summary_table` renders), so row emitters and summary
/// tables cannot drift apart. The deterministic internal-counter group
/// (`RunReport::counter_columns`) is appended only when `counters` is
/// set — the classic row layout is a compatibility surface.
fn row_fields(p: &PointResult, counters: bool) -> Vec<(&'static str, String)> {
    let s = &p.spec;
    let mut f: Vec<(&'static str, String)> = vec![
        ("scenario", format!("\"{}\"", json_escape(&s.name))),
        (
            "pattern",
            format!("\"{}\"", json_escape(&s.pattern.label())),
        ),
        ("sizes", format!("\"{}\"", s.sizes.label())),
        ("apps", format!("\"{}\"", s.apps.label())),
        ("scheduler", format!("\"{}\"", s.scheduler.tag())),
        ("estimator", format!("\"{}\"", s.estimator.label())),
        (
            "placement",
            format!("\"{}\"", json_escape(&s.placement.label())),
        ),
        ("profile", format!("\"{}\"", s.profile.label())),
        ("fidelity", format!("\"{}\"", s.fidelity.label())),
        ("n_ports", s.n_ports.to_string()),
        ("load", json_f64(s.load)),
        ("reconfig_ns", s.reconfig.as_nanos().to_string()),
        (
            "epoch_ns",
            s.epoch
                .map(|e| e.as_nanos().to_string())
                .unwrap_or_else(|| "null".into()),
        ),
        ("duration_ns", s.duration.as_nanos().to_string()),
        ("seed", s.seed.to_string()),
        (
            "faults",
            format!(
                "\"{}\"",
                s.faults
                    .as_ref()
                    .map_or_else(|| "none".into(), |p| p.label())
            ),
        ),
    ];
    match &p.report {
        Err(e) => {
            f.push(("error", format!("\"{}\"", json_escape(e))));
        }
        Ok(r) => {
            f.push(("error", "null".into()));
            for (name, value) in r.metric_columns() {
                f.push((name, value.json()));
            }
            if counters {
                for (name, value) in r.counter_columns() {
                    f.push((name, value.json()));
                }
            }
        }
    }
    f
}

/// Every column any row may carry, for the CSV header.
const CSV_COLUMNS: [&str; 47] = [
    "scenario",
    "pattern",
    "sizes",
    "apps",
    "scheduler",
    "estimator",
    "placement",
    "profile",
    "fidelity",
    "n_ports",
    "load",
    "reconfig_ns",
    "epoch_ns",
    "duration_ns",
    "seed",
    "faults",
    "error",
    "events",
    "offered_bytes",
    "offered_flows",
    "completed_flows",
    "delivered_ocs_bytes",
    "delivered_eps_bytes",
    "throughput_gbps",
    "goodput",
    "ocs_byte_share",
    "ocs_duty_cycle",
    "p50_bulk_ns",
    "p99_bulk_ns",
    "p50_inter_ns",
    "p99_inter_ns",
    "jitter_mean_ns",
    "jitter_max_ns",
    "fct_p99_ns",
    "drops_voq",
    "drops_eps",
    "drops_sync",
    "drops_link_dark",
    "peak_host_buffer",
    "peak_switch_buffer",
    "ocs_reconfigurations",
    "decisions",
    "decision_latency_mean_ns",
    "demand_error_mean",
    "fault_degraded_ns",
    "fault_failover_bytes",
    "ok",
];

/// The CSV header: the fixed classic columns, with the counter group
/// spliced in just before the trailing `ok` flag when opted in.
fn csv_header(counters: bool) -> Vec<&'static str> {
    let mut cols: Vec<&'static str> = CSV_COLUMNS.to_vec();
    if counters {
        let at = cols.len() - 1; // before "ok"
        for (i, name) in xds_core::CounterSet::names().into_iter().enumerate() {
            cols.insert(at + i, name);
        }
    }
    cols
}

impl SweepResults {
    /// Serializes every point as one JSON array of flat objects
    /// (classic column set — [`to_json_with`](Self::to_json_with) opts
    /// the counter group in).
    pub fn to_json(&self) -> String {
        self.to_json_with(false)
    }

    /// [`to_json`](Self::to_json), optionally appending the
    /// deterministic internal-counter columns to every successful row.
    pub fn to_json_with(&self, counters: bool) -> String {
        let mut out = String::from("[\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("  {");
            for (j, (k, v)) in row_fields(p, counters).iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{k}\": {v}");
            }
            out.push('}');
            if i + 1 < self.points.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Serializes every point as CSV with a fixed header (missing fields
    /// are empty cells; [`to_csv_with`](Self::to_csv_with) opts the
    /// counter group in).
    pub fn to_csv(&self) -> String {
        self.to_csv_with(false)
    }

    /// [`to_csv`](Self::to_csv), optionally splicing the deterministic
    /// internal-counter columns in before the trailing `ok` flag.
    pub fn to_csv_with(&self, counters: bool) -> String {
        let header = csv_header(counters);
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for p in &self.points {
            let fields = row_fields(p, counters);
            let cells: Vec<String> = header
                .iter()
                .map(|col| {
                    if *col == "ok" {
                        return if p.report.is_ok() { "1" } else { "0" }.to_string();
                    }
                    fields
                        .iter()
                        .find(|(k, _)| k == col)
                        .map(|(_, v)| {
                            // JSON string literals drop their quotes in CSV;
                            // commas inside values get re-quoted CSV-style.
                            let raw = v.trim_matches('"').to_string();
                            if raw.contains(',') {
                                format!("\"{raw}\"")
                            } else {
                                raw
                            }
                        })
                        .unwrap_or_default()
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the headline aggregate table (one row per point).
    pub fn summary_table(&self, title: impl Into<String>) -> Table {
        let mut t = Table::new(
            title,
            &[
                "scenario",
                "sched",
                "n",
                "load",
                "thru(Gbps)",
                "goodput",
                "ocs%",
                "p99 bulk(us)",
                "p99 inter(us)",
                "drops",
                "status",
            ],
        );
        for p in &self.points {
            match &p.report {
                Ok(r) => {
                    // Cells come from the same accessor layer the
                    // JSON/CSV rows use (materialized once per point);
                    // only the formatting is local. Unmeasured
                    // observables (lean profile) render as `-`.
                    let cols = r.metric_columns();
                    let m = |name: &str| RunReport::column(&cols, name).as_f64();
                    let f = |name: &str, scale: f64, digits: usize| {
                        m(name)
                            .map(|v| format!("{:.*}", digits, v * scale))
                            .unwrap_or_else(|| "-".into())
                    };
                    t.row(vec![
                        p.spec.name.clone(),
                        p.spec.scheduler.label().to_string(),
                        p.spec.n_ports.to_string(),
                        format!("{:.2}", p.spec.load),
                        f("throughput_gbps", 1.0, 2),
                        f("goodput", 1.0, 3),
                        f("ocs_byte_share", 100.0, 1),
                        f("p99_bulk_ns", 1e-3, 1),
                        f("p99_inter_ns", 1e-3, 1),
                        r.drops.total().to_string(),
                        "ok".into(),
                    ]);
                }
                Err(e) => {
                    t.row(vec![
                        p.spec.name.clone(),
                        p.spec.scheduler.label().to_string(),
                        p.spec.n_ports.to_string(),
                        format!("{:.2}", p.spec.load),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("error: {e}"),
                    ]);
                }
            }
        }
        t
    }

    /// Writes `results/<name>.json` and `results/<name>.csv` (best-effort;
    /// failures are reported on stderr, the return lists what was
    /// written).
    pub fn write_artifacts(&self, name: &str) -> Vec<std::path::PathBuf> {
        self.write_artifacts_with(name, false)
    }

    /// [`write_artifacts`](Self::write_artifacts), optionally including
    /// the deterministic internal-counter column group in both files.
    pub fn write_artifacts_with(&self, name: &str, counters: bool) -> Vec<std::path::PathBuf> {
        let dir = Path::new("results");
        let mut written = Vec::new();
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("(could not create {}: {e})", dir.display());
            return written;
        }
        for (ext, body) in [
            ("json", self.to_json_with(counters)),
            ("csv", self.to_csv_with(counters)),
        ] {
            let path = dir.join(format!("{name}.{ext}"));
            match std::fs::write(&path, body) {
                Ok(()) => written.push(path),
                Err(e) => eprintln!("(could not save {}: {e})", path.display()),
            }
        }
        written
    }

    /// Serializes every point's epoch-resolution telemetry (points run
    /// under the `timeseries` instrumentation profile) as one flat JSON
    /// array: one object per `(point, epoch)` with the spec identity
    /// columns repeated, so the stream is directly plottable/joinable.
    /// Points without a recorded series contribute no rows.
    pub fn to_timeseries_json(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (spec, r) in self.ok_reports() {
            let Some(series) = &r.timeseries else {
                continue;
            };
            for row in series.rows() {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "  {{\"scenario\": \"{}\", \"scheduler\": \"{}\", \"n_ports\": {}, \
                     \"seed\": {}, \"epoch\": {}, \"t_ns\": {}, \"demand_err\": {}, \
                     \"duty_cycle\": {}, \"backlog_bytes\": {}, \"decision_ns\": {}, \
                     \"entries\": {}}}",
                    json_escape(&spec.name),
                    spec.scheduler.tag(),
                    spec.n_ports,
                    spec.seed,
                    row.epoch,
                    row.at.as_nanos(),
                    row.demand_err_rel
                        .map(json_f64)
                        .unwrap_or_else(|| "null".into()),
                    row.duty_cycle
                        .map(json_f64)
                        .unwrap_or_else(|| "null".into()),
                    row.backlog_bytes,
                    row.decision_ns,
                    row.entries
                );
            }
        }
        out.push_str("\n]\n");
        out
    }

    /// CSV form of [`to_timeseries_json`](Self::to_timeseries_json):
    /// fixed header, one line per `(point, epoch)`, absent values empty.
    pub fn to_timeseries_csv(&self) -> String {
        let mut out = String::from(
            "scenario,scheduler,n_ports,seed,epoch,t_ns,demand_err,duty_cycle,\
             backlog_bytes,decision_ns,entries\n",
        );
        for (spec, r) in self.ok_reports() {
            let Some(series) = &r.timeseries else {
                continue;
            };
            // Same quoting rule as `to_csv`: free-form point names may
            // contain commas and must not shift the column positions.
            let name = if spec.name.contains(',') {
                format!("\"{}\"", spec.name)
            } else {
                spec.name.clone()
            };
            for row in series.rows() {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{}",
                    name,
                    spec.scheduler.tag(),
                    spec.n_ports,
                    spec.seed,
                    row.epoch,
                    row.at.as_nanos(),
                    row.demand_err_rel.map(json_f64).unwrap_or_default(),
                    row.duty_cycle.map(json_f64).unwrap_or_default(),
                    row.backlog_bytes,
                    row.decision_ns,
                    row.entries
                );
            }
        }
        out
    }

    /// Whether any point recorded an epoch-resolution series.
    pub fn has_timeseries(&self) -> bool {
        self.ok_reports().any(|(_, r)| r.timeseries.is_some())
    }

    /// Writes `results/<name>.timeseries.json` and `.csv` (best-effort,
    /// like [`write_artifacts`](Self::write_artifacts)).
    pub fn write_timeseries_artifacts(&self, name: &str) -> Vec<std::path::PathBuf> {
        let dir = Path::new("results");
        let mut written = Vec::new();
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("(could not create {}: {e})", dir.display());
            return written;
        }
        for (ext, body) in [
            ("timeseries.json", self.to_timeseries_json()),
            ("timeseries.csv", self.to_timeseries_csv()),
        ] {
            let path = dir.join(format!("{name}.{ext}"));
            match std::fs::write(&path, body) {
                Ok(()) => written.push(path),
                Err(e) => eprintln!("(could not save {}: {e})", path.display()),
            }
        }
        written
    }

    /// Whether any point carried flight-recorder output (points run with
    /// `ScenarioSpec::with_trace(true)`).
    pub fn has_traces(&self) -> bool {
        self.ok_reports().any(|(_, r)| r.chrome_trace.is_some())
    }

    /// Writes each traced point's Chrome Trace Event JSON (best-effort,
    /// like [`write_artifacts`](Self::write_artifacts)): a single traced
    /// point lands in `results/<name>.trace.json`, several in
    /// `results/<name>.<point>.trace.json` each, with every `/` of the
    /// point name (a grid point's tag separator) written as `_` so the
    /// file stays in `results/`. Load the files in Perfetto or
    /// chrome://tracing.
    pub fn write_trace_artifacts(&self, name: &str) -> Vec<std::path::PathBuf> {
        let traced: Vec<(&ScenarioSpec, &str)> = self
            .ok_reports()
            .filter_map(|(s, r)| r.chrome_trace.as_deref().map(|t| (s, t)))
            .collect();
        let mut written = Vec::new();
        if traced.is_empty() {
            return written;
        }
        let dir = Path::new("results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("(could not create {}: {e})", dir.display());
            return written;
        }
        let solo = traced.len() == 1;
        for (spec, json) in traced {
            let file = if solo {
                format!("{name}.trace.json")
            } else {
                format!("{name}.{}.trace.json", spec.name.replace('/', "_"))
            };
            let path = dir.join(file);
            match std::fs::write(&path, json) {
                Ok(()) => written.push(path),
                Err(e) => eprintln!("(could not save {}: {e})", path.display()),
            }
        }
        written
    }

    /// The successful reports, in grid order, paired with their specs.
    pub fn ok_reports(&self) -> impl Iterator<Item = (&ScenarioSpec, &RunReport)> {
        self.points
            .iter()
            .filter_map(|p| p.report.as_ref().ok().map(|r| (&p.spec, r)))
    }

    /// The report at `idx`, if the point succeeded.
    pub fn report(&self, idx: usize) -> Option<&RunReport> {
        self.points.get(idx).and_then(|p| p.report.as_ref().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use crate::SweepExecutor;
    use xds_sim::SimDuration;

    fn small_results() -> SweepResults {
        SweepExecutor::with_threads(2).run(vec![
            ScenarioSpec::new("a")
                .with_ports(4)
                .with_duration(SimDuration::from_millis(1)),
            ScenarioSpec::new("bad").with_ports(1),
        ])
    }

    #[test]
    fn json_is_wellformed_enough_and_carries_errors() {
        let r = small_results();
        let json = r.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"scenario\":").count(), 2);
        assert!(json.contains("\"error\": null"));
        assert!(json.contains("need at least 2 ports"));
        // Balanced braces across rows.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn csv_has_header_and_one_line_per_point() {
        let r = small_results();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("scenario,pattern,"));
        let header_cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), header_cols, "ragged row: {l}");
        }
        assert!(lines[1].ends_with(",1"), "ok point flagged: {}", lines[1]);
        assert!(
            lines[2].ends_with(",0"),
            "error point flagged: {}",
            lines[2]
        );
    }

    #[test]
    fn summary_table_renders_both_outcomes() {
        let r = small_results();
        let t = r.summary_table("test");
        let text = t.render_text();
        assert!(text.contains("ok"));
        assert!(text.contains("error:"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(0.5), "0.5");
    }

    #[test]
    fn rows_carry_the_instrumentation_profile() {
        let r = small_results();
        assert!(r.to_json().contains("\"profile\": \"full\""));
        assert!(r.to_csv().lines().next().unwrap().contains(",profile,"));
        let lean = SweepExecutor::with_threads(1).run(vec![ScenarioSpec::new("l")
            .with_ports(4)
            .with_profile(crate::InstrProfile::Lean)
            .with_duration(SimDuration::from_millis(1))]);
        let json = lean.to_json();
        assert!(json.contains("\"profile\": \"lean\""));
        // Unmeasured observables are null, not a fake zero — a lean row
        // must never read as "measured zero latency / zero buffering".
        assert!(json.contains("\"p99_bulk_ns\": null"), "{json}");
        assert!(json.contains("\"peak_switch_buffer\": null"), "{json}");
        assert!(json.contains("\"completed_flows\": null"), "{json}");
        // The unobserved aggregate table renders dashes, not panics.
        let text = lean.summary_table("lean").render_text();
        assert!(text.contains('-'), "{text}");
    }

    #[test]
    fn rows_carry_the_fidelity_tier() {
        let r = small_results();
        assert!(r.to_json().contains("\"fidelity\": \"exact\""));
        assert!(r.to_csv().lines().next().unwrap().contains(",fidelity,"));
        let est = SweepExecutor::with_threads(1).run(vec![ScenarioSpec::new("e")
            .with_ports(4)
            .with_fidelity(crate::Fidelity::Estimate)
            .with_duration(SimDuration::from_millis(1))]);
        let json = est.to_json();
        assert!(json.contains("\"fidelity\": \"estimate\""), "{json}");
        assert!(
            json.contains("\"error\": null"),
            "estimate tier ran: {json}"
        );
        // Estimate rows stay rectangular under the exact-tier header.
        let csv = est.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        let header_cols = lines[0].split(',').count();
        assert_eq!(lines[1].split(',').count(), header_cols);
        assert!(lines[1].ends_with(",1"), "estimate point ok: {}", lines[1]);
    }

    #[test]
    fn counter_columns_are_opt_in_and_keep_rows_rectangular() {
        let r = small_results();
        // The classic layout is untouched by default.
        assert!(!r.to_json().contains("\"sched_probes\""));
        assert!(!r.to_csv().lines().next().unwrap().contains("pool_allocs"));
        // Opted in: JSON rows carry the group, CSV splices it before
        // the trailing `ok` flag, and rows stay rectangular even for
        // errored points (empty counter cells).
        let json = r.to_json_with(true);
        assert!(json.contains("\"sched_probes\":"), "{json}");
        assert!(json.contains("\"pool_allocs\":"));
        let csv = r.to_csv_with(true);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        let header: Vec<&str> = lines[0].split(',').collect();
        assert_eq!(header.last(), Some(&"ok"));
        assert!(header.contains(&"queue_pops"));
        for retired in ["queue_spreads", "queue_spills", "queue_direct_sorts"] {
            assert!(!header.contains(&retired), "{retired} is retired");
        }
        let header_cols = header.len();
        assert_eq!(
            header_cols,
            CSV_COLUMNS.len() + xds_core::CounterSet::LEN,
            "counter group widens the header by exactly its size"
        );
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), header_cols, "ragged row: {l}");
        }
        // Trace artifacts exist only for traced points.
        assert!(!r.has_traces());
        let traced = SweepExecutor::with_threads(1).run(vec![ScenarioSpec::new("tr")
            .with_ports(4)
            .with_trace(true)
            .with_duration(SimDuration::from_millis(1))]);
        assert!(traced.has_traces());
    }

    #[test]
    fn timeseries_artifacts_stream_epoch_rows() {
        let ts = SweepExecutor::with_threads(1).run(vec![ScenarioSpec::new("ts")
            .with_ports(4)
            .with_profile(crate::InstrProfile::TimeSeries)
            .with_duration(SimDuration::from_millis(2))]);
        assert!(ts.has_timeseries());
        let json = ts.to_timeseries_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"epoch\": 0"), "{json}");
        assert!(json.contains("\"duty_cycle\""));
        assert!(json.contains("\"backlog_bytes\""));
        let csv = ts.to_timeseries_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert!(lines.len() >= 2, "header plus at least one epoch row");
        let header_cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), header_cols, "ragged row: {l}");
        }
        // Row count matches the recorded series exactly.
        let rows: usize = ts
            .ok_reports()
            .filter_map(|(_, r)| r.timeseries.as_ref())
            .map(|s| s.len())
            .sum();
        assert_eq!(lines.len() - 1, rows);
        assert_eq!(json.matches("\"epoch\":").count(), rows);
        // Full-profile sweeps produce empty streams, not errors.
        let none = small_results();
        assert!(!none.has_timeseries());
        assert_eq!(none.to_timeseries_json().matches("\"epoch\":").count(), 0);
    }
}
