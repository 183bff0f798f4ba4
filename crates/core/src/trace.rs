//! Flight-recorder span tracing: wall-clock spans serialized as Chrome
//! Trace Event Format JSON (nesting is by time containment).
//!
//! The coarse `phase_*_ns` split added with the epoch-phase accounting
//! says *that* decompose dominates an epoch; it cannot say whether the
//! time went to threshold probes, Hopcroft–Karp runs or grant fan-out.
//! The [`TraceRecorder`] answers that: the runtime (and, through
//! [`SchedObs`], the scheduler) records one complete span per unit of
//! hot-path work — epoch → estimate/decompose/apply, per threshold
//! probe, per matching, per slot activation and grant burst — and the
//! whole recording loads directly into Perfetto / `chrome://tracing`.
//!
//! Recording is strictly opt-in: the runtime holds an
//! `Option<TraceRecorder>` and every call site is behind a single
//! `is-some` test, so a tracing-disabled run does no extra work — no
//! `Instant::now()` calls, no allocation, no branch beyond the test the
//! hot path already pays for capability flags. Span timestamps are
//! host wall-clock and therefore **never deterministic**: they belong
//! only in the `results/<out>.trace.json` artifact, never in golden
//! traces or pinned counters (the deterministic side of the flight
//! recorder is `xds_metrics::CounterSet`).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// A finished span: a Chrome "complete" (`"ph": "X"`) event.
#[derive(Debug, Clone)]
struct CompleteEvent {
    cat: &'static str,
    name: &'static str,
    /// Start offset from the recorder's anchor, nanoseconds.
    ts_ns: u64,
    dur_ns: u64,
    args: Vec<(&'static str, u64)>,
}

/// Records wall-clock spans and serializes them as Chrome Trace Event
/// Format JSON (see the module docs for when this is enabled).
#[derive(Debug)]
pub struct TraceRecorder {
    t0: Instant,
    events: Vec<CompleteEvent>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A fresh recorder anchored at "now": the first span starts near
    /// `ts = 0`.
    pub fn new() -> Self {
        TraceRecorder {
            t0: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Records a span from externally captured instants (used to re-play
    /// scheduler-internal spans drained after `schedule()`, and to reuse
    /// the phase-accounting instants the runtime measures anyway).
    /// `args` render under the event's `"args"` object in the trace
    /// viewer.
    pub fn span_between(
        &mut self,
        cat: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        args: &[(&'static str, u64)],
    ) {
        let ts_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.events.push(CompleteEvent {
            cat,
            name,
            ts_ns,
            dur_ns,
            args: args.to_vec(),
        });
    }

    /// Number of completed spans recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the recording as Chrome Trace Event Format JSON: a
    /// `traceEvents` array of complete (`"ph": "X"`) events on one
    /// process/thread track (the simulation is single-threaded; nesting
    /// comes from span containment), timestamps in microseconds with
    /// nanosecond precision. Loadable as-is in Perfetto and
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\": [\n");
        out.push_str(
            "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
             \"args\": {\"name\": \"xds-sim\"}}",
        );
        for e in &self.events {
            out.push_str(",\n  ");
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": 1, \"tid\": 1",
                e.name,
                e.cat,
                micros(e.ts_ns),
                micros(e.dur_ns)
            );
            if !e.args.is_empty() {
                out.push_str(", \"args\": {");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{k}\": {v}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n],\n\"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Renders nanoseconds as a decimal microsecond literal (`12345` →
/// `12.345`), keeping full precision without floating point.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// One scheduler-internal span, captured with raw instants and re-played
/// into the recorder after `schedule()` returns (the scheduler has no
/// recorder reference on its hot path).
#[derive(Debug, Clone, Copy)]
pub struct SchedSpan {
    /// Span label (`probe`, `match_hk`, `match_memo`).
    pub name: &'static str,
    /// Wall-clock start.
    pub start: Instant,
    /// Wall-clock end.
    pub end: Instant,
    /// One attached argument, e.g. `("entries", n)`.
    pub arg: (&'static str, u64),
}

/// Per-epoch scheduler observability, drained by the runtime via
/// [`Scheduler::take_obs`](crate::sched::Scheduler::take_obs) after each
/// `schedule()` call.
///
/// Counter fields are per-epoch deltas (the runtime accumulates them
/// into the run's `CounterSet`); `spans` is only populated when the
/// scheduler was told to capture spans via
/// [`Scheduler::set_trace`](crate::sched::Scheduler::set_trace) — an
/// empty `Vec` allocates nothing, so untraced runs stay allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SchedObs {
    /// Matching-memo replays this epoch.
    pub memo_hits: u64,
    /// Hopcroft–Karp executions this epoch.
    pub hk_runs: u64,
    /// Threshold probes (adjacency builds) this epoch.
    pub probes: u64,
    /// Worklist entries loaded this epoch.
    pub worklist_len: u64,
    /// Populated value buckets this epoch.
    pub buckets_len: u64,
    /// Captured spans, oldest first (empty unless tracing).
    pub spans: Vec<SchedSpan>,
}

impl SchedObs {
    /// True when the epoch recorded nothing (no counters, no spans).
    pub fn is_empty(&self) -> bool {
        self.memo_hits == 0
            && self.hk_runs == 0
            && self.probes == 0
            && self.worklist_len == 0
            && self.buckets_len == 0
            && self.spans.is_empty()
    }
}

/// Summary returned by [`validate_chrome_trace`]: what a well-formed
/// trace contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Complete (`"ph": "X"`) events in the trace.
    pub complete_events: usize,
    /// Distinct span names seen.
    pub names: BTreeSet<String>,
}

/// Validates a string against the subset of Chrome Trace Event Format
/// the [`TraceRecorder`] emits — the schema half of the round-trip test
/// (the workspace builds without serde, so validation is hand-rolled,
/// like every other parser in the repo).
///
/// Checks: the outer object carries a `traceEvents` array; every element
/// is a flat object (one nesting level allowed for `args`) with `name`,
/// `ph`, `pid` and `tid`; complete events additionally carry `cat`,
/// numeric `ts` and `dur`. Returns what was found, or a one-line error
/// saying where the document went wrong.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let body = json.trim();
    if !body.starts_with('{') || !body.ends_with('}') {
        return Err("trace is not a JSON object".into());
    }
    let arr_key = "\"traceEvents\"";
    let key_at = body
        .find(arr_key)
        .ok_or_else(|| "missing \"traceEvents\" key".to_string())?;
    let after = &body[key_at + arr_key.len()..];
    let colon = after
        .find(':')
        .ok_or_else(|| "no ':' after \"traceEvents\"".to_string())?;
    let arr = after[colon + 1..].trim_start();
    if !arr.starts_with('[') {
        return Err("\"traceEvents\" is not an array".into());
    }
    let objects = split_array_objects(arr)?;
    let mut complete_events = 0usize;
    let mut names = BTreeSet::new();
    for (i, obj) in objects.iter().enumerate() {
        let fields = object_fields(obj).map_err(|e| format!("event {i}: {e}"))?;
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str());
        let name = get("name").ok_or_else(|| format!("event {i}: missing \"name\""))?;
        let name = name
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("event {i}: \"name\" is not a string"))?;
        let ph = get("ph").ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        for k in ["pid", "tid"] {
            let v = get(k).ok_or_else(|| format!("event {i}: missing \"{k}\""))?;
            v.parse::<u64>()
                .map_err(|_| format!("event {i}: \"{k}\" is not an integer"))?;
        }
        if ph == "\"X\"" {
            for k in ["ts", "dur"] {
                let v = get(k).ok_or_else(|| format!("event {i} ({name}): missing \"{k}\""))?;
                v.parse::<f64>()
                    .map_err(|_| format!("event {i} ({name}): \"{k}\" is not a number"))?;
            }
            get("cat").ok_or_else(|| format!("event {i} ({name}): missing \"cat\""))?;
            complete_events += 1;
            names.insert(name.to_string());
        }
    }
    Ok(TraceSummary {
        complete_events,
        names,
    })
}

/// Splits a JSON array literal into its top-level object slices,
/// tracking string and nesting state (no allocation beyond the output
/// vector). Errors on anything that is not a `[ {..}, {..}, ... ]`
/// shape.
fn split_array_objects(arr: &str) -> Result<Vec<&str>, String> {
    debug_assert!(arr.starts_with('['));
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut obj_start = None;
    for (i, c) in arr.char_indices().skip(1) {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| "unbalanced '}'".to_string())?;
                if depth == 0 {
                    let start = obj_start.take().expect("open brace recorded");
                    objects.push(&arr[start..=i]);
                }
            }
            ']' if depth == 0 => return Ok(objects),
            ',' | ' ' | '\n' | '\r' | '\t' => {}
            other if depth == 0 => {
                return Err(format!("unexpected '{other}' between array elements"));
            }
            _ => {}
        }
    }
    Err("array never closed".into())
}

/// Extracts the top-level `key: value` pairs of one flat JSON object
/// (values of nested objects are kept as raw slices, so `args` does not
/// confuse the scan).
fn object_fields(obj: &str) -> Result<Vec<(String, String)>, String> {
    let inner = obj
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "not an object".to_string())?;
    let mut fields = Vec::new();
    let bytes: Vec<char> = inner.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            ' ' | '\n' | '\r' | '\t' | ',' => i += 1,
            '"' => {
                let (key, after_key) = read_string(&bytes, i)?;
                let mut j = after_key;
                while j < bytes.len() && bytes[j].is_whitespace() {
                    j += 1;
                }
                if j >= bytes.len() || bytes[j] != ':' {
                    return Err(format!("key \"{key}\" has no ':'"));
                }
                j += 1;
                while j < bytes.len() && bytes[j].is_whitespace() {
                    j += 1;
                }
                let (value, next) = read_value(&bytes, j)?;
                fields.push((key, value));
                i = next;
            }
            other => return Err(format!("unexpected '{other}' where a key should start")),
        }
    }
    Ok(fields)
}

/// Reads a string literal starting at `bytes[i] == '"'`; returns the
/// unquoted content and the index one past the closing quote.
fn read_string(bytes: &[char], i: usize) -> Result<(String, usize), String> {
    debug_assert_eq!(bytes[i], '"');
    let mut out = String::new();
    let mut j = i + 1;
    let mut escaped = false;
    while j < bytes.len() {
        let c = bytes[j];
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Ok((out, j + 1));
        } else {
            out.push(c);
        }
        j += 1;
    }
    Err("unterminated string".into())
}

/// Reads one JSON value starting at `bytes[i]` (string, number, keyword
/// or nested object/array kept as a raw slice); returns its raw text and
/// the index one past its end.
fn read_value(bytes: &[char], i: usize) -> Result<(String, usize), String> {
    if i >= bytes.len() {
        return Err("value missing".into());
    }
    match bytes[i] {
        '"' => {
            let (s, next) = read_string(bytes, i)?;
            Ok((format!("\"{s}\""), next))
        }
        '{' | '[' => {
            let (open, close) = if bytes[i] == '{' {
                ('{', '}')
            } else {
                ('[', ']')
            };
            let mut depth = 0usize;
            let mut in_string = false;
            let mut escaped = false;
            for (off, &c) in bytes[i..].iter().enumerate() {
                if in_string {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        in_string = false;
                    }
                    continue;
                }
                match c {
                    '"' => in_string = true,
                    c if c == open => depth += 1,
                    c if c == close => {
                        depth -= 1;
                        if depth == 0 {
                            let raw: String = bytes[i..=i + off].iter().collect();
                            return Ok((raw, i + off + 1));
                        }
                    }
                    _ => {}
                }
            }
            Err("unterminated nested value".into())
        }
        _ => {
            let mut j = i;
            while j < bytes.len()
                && !matches!(bytes[j], ',' | '}' | ']')
                && !bytes[j].is_whitespace()
            {
                j += 1;
            }
            if j == i {
                return Err("empty value".into());
            }
            Ok((bytes[i..j].iter().collect(), j))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_round_trips_through_the_validator() {
        let mut tr = TraceRecorder::new();
        let t0 = Instant::now();
        let t1 = Instant::now();
        let t2 = Instant::now();
        tr.span_between("runtime", "epoch", t0, t2, &[("epoch", 0)]);
        tr.span_between("runtime", "estimate", t0, t1, &[]);
        tr.span_between("sched", "probe", t1, t2, &[("entries", 7)]);
        assert_eq!(tr.len(), 3);
        let json = tr.to_chrome_json();
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.complete_events, 3);
        let names: Vec<&str> = summary.names.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["epoch", "estimate", "probe"]);
        assert!(json.contains("\"args\": {\"epoch\": 0}"), "{json}");
        assert!(json.contains("\"displayTimeUnit\": \"ms\""));
    }

    #[test]
    fn empty_recorder_is_still_a_valid_trace() {
        let tr = TraceRecorder::new();
        assert!(tr.is_empty());
        let summary = validate_chrome_trace(&tr.to_chrome_json()).expect("valid");
        assert_eq!(summary.complete_events, 0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"other\": []}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        // A complete event without a duration is not schema-valid.
        let no_dur = "{\"traceEvents\": [{\"name\": \"a\", \"cat\": \"c\", \"ph\": \"X\", \
                      \"ts\": 1.0, \"pid\": 1, \"tid\": 1}]}";
        let err = validate_chrome_trace(no_dur).unwrap_err();
        assert!(err.contains("dur"), "{err}");
    }

    #[test]
    fn micros_renders_exact_nanosecond_precision() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(12_345), "12.345");
    }

    #[test]
    fn sched_obs_emptiness() {
        assert!(SchedObs::default().is_empty());
        let obs = SchedObs {
            probes: 1,
            ..SchedObs::default()
        };
        assert!(!obs.is_empty());
    }
}
