//! Pinned per-point references and the check every run makes.
//!
//! `refs/<workload>.tsv` has one line per point of the workload's pool:
//! its key, its event count, an FNV-1a digest of what it produced — the
//! golden-trace serialization `RunReport::trace_json` for an exact point,
//! its metric row `RunReport::metric_columns` for an estimate point — and
//! the exact tier's values of `VALIDATED_METRICS` on the point, against
//! which the estimate tier is scored. `--pin` regenerates the file by
//! running the pool through the program's own entry point,
//! `SweepExecutor::run`, so the benchmark's split-call path is checked
//! against the path users run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xds_bench::validate::VALIDATED_METRICS;
use xds_core::RunReport;
use xds_scenario::{Fidelity, SweepExecutor};

use crate::workload::{self, Workload};

/// Failure messages a run keeps for its report.
const MAX_MESSAGES: usize = 8;

/// One point's pinned reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// `RunReport::events`.
    pub events: u64,
    /// FNV-1a of the point's serialized output (see [`fingerprint`]).
    pub digest: u64,
    /// The exact tier's values of the validated metrics it measured.
    pub exact: Vec<(String, f64)>,
}

/// A workload's references, by point key.
#[derive(Debug, Default, PartialEq)]
pub struct Refs {
    pins: BTreeMap<String, Pin>,
}

impl Refs {
    /// The references compiled into the benchmark for `w`.
    pub fn of(w: Workload) -> Result<Refs, String> {
        let text = match w {
            Workload::Kilofabric => include_str!("../refs/kilofabric.tsv"),
            Workload::SweepGrid => include_str!("../refs/sweep-grid.tsv"),
            Workload::EstimateScreen => include_str!("../refs/estimate-screen.tsv"),
        };
        let refs = Refs::parse(text).map_err(|e| format!("refs/{}.tsv: {e}", w.name()))?;
        if refs.pins.is_empty() {
            return Err(format!("refs/{}.tsv pins nothing: run --pin", w.name()));
        }
        Ok(refs)
    }

    /// Parses the text form; `#` lines are comments.
    pub fn parse(text: &str) -> Result<Refs, String> {
        let mut pins = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, pin) =
                parse_line(line).ok_or_else(|| format!("line {}: malformed `{line}`", i + 1))?;
            if pins.insert(key.to_string(), pin).is_some() {
                return Err(format!("line {}: duplicate key `{key}`", i + 1));
            }
        }
        Ok(Refs { pins })
    }

    /// The text form, which [`parse`](Self::parse) reads back exactly.
    pub fn render(&self, workload: &str) -> String {
        let mut o = format!(
            "# perfbench references: {workload}. Regenerate with --pin.\n\
             # key\tevents\tdigest\texact-tier validated metrics\n"
        );
        for (key, p) in &self.pins {
            let exact: Vec<String> = p.exact.iter().map(|(m, v)| format!("{m}={v:?}")).collect();
            let _ = writeln!(
                o,
                "{key}\t{}\t{:016x}\t{}",
                p.events,
                p.digest,
                exact.join(",")
            );
        }
        o
    }

    /// Checks one point's report against its pin.
    pub fn check(&self, key: &str, report: &RunReport, fidelity: Fidelity) -> Result<(), String> {
        let pin = self
            .pins
            .get(key)
            .ok_or_else(|| format!("{key}: no pinned reference"))?;
        let (events, digest) = fingerprint(report, fidelity);
        if (events, digest) != (pin.events, pin.digest) {
            return Err(format!(
                "{key}: events {events} digest {digest:016x}, pinned {} {:016x}",
                pin.events, pin.digest
            ));
        }
        Ok(())
    }

    /// The pinned exact value of `metric` on point `key`, if measured.
    pub fn exact_value(&self, key: &str, metric: &str) -> Option<f64> {
        self.pins
            .get(key)?
            .exact
            .iter()
            .find(|(m, _)| m == metric)
            .map(|&(_, v)| v)
    }
}

fn parse_line(line: &str) -> Option<(&str, Pin)> {
    let mut cols = line.split('\t');
    let key = cols.next().filter(|k| !k.is_empty())?;
    let events = cols.next()?.parse().ok()?;
    let digest = u64::from_str_radix(cols.next()?, 16).ok()?;
    let exact = cols
        .next()
        .unwrap_or("")
        .split(',')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (m, v) = kv.split_once('=')?;
            Some((m.to_string(), v.parse().ok()?))
        })
        .collect::<Option<Vec<_>>>()?;
    cols.next().is_none().then_some((
        key,
        Pin {
            events,
            digest,
            exact,
        },
    ))
}

/// `(events, digest)` of a point's output. The digest covers
/// `RunReport::trace_json` at exact fidelity and the metric row at
/// estimate fidelity (whose reports carry no event trace to pin).
pub fn fingerprint(report: &RunReport, fidelity: Fidelity) -> (u64, u64) {
    let text = match fidelity {
        Fidelity::Exact => report.trace_json(),
        Fidelity::Estimate => report
            .metric_columns()
            .iter()
            .map(|(k, v)| format!("{k}={}\n", v.json()))
            .collect(),
    };
    (report.events, fnv1a(text.as_bytes()))
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The validated metrics `report` measured, with their values.
fn validated(report: &RunReport) -> Vec<(String, f64)> {
    VALIDATED_METRICS
        .iter()
        .filter_map(|&m| {
            let v = report.metric(m)?.as_f64()?;
            v.is_finite().then(|| (m.to_string(), v))
        })
        .collect()
}

/// Reference mode: runs the workload's whole pool through
/// `SweepExecutor::run` — and, for the estimate workload, each point's
/// exact twin — then rewrites `refs/<workload>.tsv`. Returns its path.
pub fn pin(w: Workload) -> Result<String, String> {
    let pool = w.pool();
    let exec = SweepExecutor::with_threads(workload::cpus().min(2));
    let ran = exec.run(pool.clone());
    let twins = (w == Workload::EstimateScreen).then(|| {
        exec.run(
            pool.into_iter()
                .map(|s| s.with_fidelity(Fidelity::Exact))
                .collect(),
        )
    });
    let mut refs = Refs::default();
    for (i, p) in ran.points.iter().enumerate() {
        let report = p.report.as_ref().map_err(|e| format!("pin: {e}"))?;
        let exact = match &twins {
            Some(t) => t.points[i]
                .report
                .as_ref()
                .map_err(|e| format!("pin: {e}"))?,
            None => report,
        };
        let (events, digest) = fingerprint(report, p.spec.fidelity);
        let key = workload::key(&p.spec);
        let pin = Pin {
            events,
            digest,
            exact: validated(exact),
        };
        if refs.pins.insert(key.clone(), pin).is_some() {
            return Err(format!("pin: two pool points share the key {key}"));
        }
    }
    let path = format!("{}/refs/{}.tsv", env!("CARGO_MANIFEST_DIR"), w.name());
    std::fs::write(&path, refs.render(w.name())).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Point runs attempted and failed, with the first failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one attempted point run; returns whether it passed.
    pub fn record(&mut self, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        let Err(e) = verdict else {
            return true;
        };
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(e);
        }
        false
    }

    /// Failed runs over attempted runs.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xds_sim::SimDuration;

    fn report() -> RunReport {
        let mut r = RunReport::skeleton("solstice", "hw", SimDuration::from_millis(1));
        r.events = 1234;
        r.offered_bytes = 9000;
        r.delivered_ocs_bytes = 4500;
        r
    }

    #[test]
    fn a_corrupted_digest_counts_as_a_failure() {
        let r = report();
        let (events, digest) = fingerprint(&r, Fidelity::Exact);
        let pinned = Refs::parse(&format!("p\t{events}\t{digest:016x}\n")).unwrap();
        let corrupted = Refs::parse(&format!("p\t{events}\t{:016x}\n", digest ^ 1)).unwrap();
        let mut tally = Tally::default();
        assert!(tally.record(pinned.check("p", &r, Fidelity::Exact)));
        assert!(!tally.record(corrupted.check("p", &r, Fidelity::Exact)));
        assert!(!tally.record(pinned.check("unpinned", &r, Fidelity::Exact)));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
        // The two tiers digest different serializations.
        assert_ne!(fingerprint(&r, Fidelity::Estimate), (events, digest));
    }

    #[test]
    fn references_round_trip_through_their_text_form() {
        let mut refs = Refs::default();
        let pin = Pin {
            events: 42,
            digest: 0x0123_4567_89ab_cdef,
            exact: validated(&report()),
        };
        assert!(pin.exact.iter().any(|(m, v)| m == "goodput" && *v == 0.5));
        refs.pins.insert("uniform/n16/load0.30/s101".into(), pin);
        refs.pins.insert(
            "x/n2/load0.90/s1".into(),
            Pin {
                events: 0,
                digest: 0,
                exact: vec![("throughput_gbps".into(), 0.1 + 0.2)],
            },
        );
        assert_eq!(Refs::parse(&refs.render("t")).unwrap(), refs);
    }

    #[test]
    fn malformed_references_are_rejected() {
        for bad in [
            "p\tx\t00\n",
            "p\t1\n",
            "p\t1\tzz\n",
            "p\t1\t00\tgoodput\n",
            "p\t1\t00\t\textra\n",
            "p\t1\t00\np\t2\t00\n",
        ] {
            assert!(Refs::parse(bad).is_err(), "{bad:?}");
        }
        assert!(Refs::parse("# only a comment\n\n").unwrap().pins.is_empty());
    }

    #[test]
    fn compiled_in_references_cover_every_pool_point() {
        for w in Workload::ALL {
            let refs = Refs::of(w).unwrap();
            for spec in w.pool() {
                let key = workload::key(&spec);
                assert!(refs.pins.contains_key(&key), "{}: {key} unpinned", w.name());
            }
        }
    }
}
