//! Run observation: what a simulation records about itself, and how much.
//!
//! The paper's evaluation lives and dies on visibility into the epoch
//! loop — demand-estimation error, circuit duty cycle, FCT distributions
//! — but recording those must not tax the hot path it observes. An
//! [`Instrumentation`] is the recording state of one run, built from one
//! of three named [`InstrProfile`]s and wired in through `SimBuilder`:
//!
//! * **`full`** reproduces the classic `RunReport` byte-for-byte (the
//!   golden traces pin this): per-class latency histograms, RFC 3550
//!   jitter per app, FCT tracking and the mean demand-estimation error;
//! * **`lean`** records nothing — simulated behavior (event counts,
//!   delivered bytes, drops) is *identical*, only the observation cost
//!   drops;
//! * **`timeseries`** is `full` plus an epoch-resolution [`EpochSeries`]
//!   (demand error, duty cycle, VOQ backlog per epoch).
//!
//! The runtime hands the recorder each tracked flow start, each delivered
//! packet in delivery order and one [`EpochSample`] per scheduler epoch,
//! then takes the report fields from it at the end of the run. Drops are
//! not observations: the runtime tallies them by [`DropCause`] in its
//! always-on counters under every profile.

use xds_metrics::{
    EpochRow, EpochSeries, FctStats, FctTracker, LatencyHistogram, Rfc3550Jitter, SizeClass,
};
use xds_net::{Packet, TrafficClass};
use xds_sim::SimTime;

/// Flow ids at or above this are interactive app streams (`flow ==
/// APP_FLOW_BASE + app index`), not tracked by the FCT machinery. The
/// recorder uses it to split app packets (jitter) from flow packets (FCT).
pub const APP_FLOW_BASE: u64 = u64::MAX / 2;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Switch VOQ overflow (fast mode).
    VoqFull,
    /// EPS output-queue overflow.
    EpsFull,
    /// Slow-mode synchronization failure: the packet hit a dark or
    /// re-assigned circuit.
    SyncViolation,
    /// The packet hit a fault-injected dark link (see
    /// [`crate::fault::FaultPlan`]).
    LinkDark,
}

/// One per-epoch observation of the scheduling loop.
#[derive(Debug, Clone, Copy)]
pub struct EpochSample {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Simulated time of the epoch boundary.
    pub at: SimTime,
    /// Relative L1 demand-estimation error (`None` when the ground truth
    /// was empty, or when the run is unobserved and the runtime skipped
    /// the error pass).
    pub demand_err_rel: Option<f64>,
    /// Ground-truth queued bytes across all pairs at the boundary.
    pub backlog_bytes: u64,
    /// Decision latency charged to this epoch (ns).
    pub decision_ns: u64,
    /// Cumulative OCS dark time so far (ns) — consecutive samples are
    /// differenced to derive a per-epoch duty cycle.
    pub ocs_dark_ns: u64,
    /// Schedule entries (OCS configurations) the decision produced.
    pub entries: usize,
}

/// The delivery observables a run contributes to its `RunReport` (all
/// empty under `lean`).
#[derive(Debug, Default)]
pub struct DeliveryMetrics {
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
    /// Flows fully delivered.
    pub completed_flows: u64,
    /// FCT stats for mice.
    pub fct_mice: Option<FctStats>,
    /// FCT stats for medium flows.
    pub fct_medium: Option<FctStats>,
    /// FCT stats for elephants.
    pub fct_elephant: Option<FctStats>,
    /// FCT stats over all flows.
    pub fct_overall: Option<FctStats>,
}

/// A named instrumentation profile, as plain data — the declarative form
/// of [`Instrumentation`] that scenario specs and CLIs carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrProfile {
    /// Full fidelity: histograms, jitter, FCT, buffer peaks, demand
    /// error. Reproduces the classic `RunReport` byte-for-byte.
    Full,
    /// Bench mode: identical simulated behavior (events, delivered
    /// bytes), no per-packet observation cost.
    Lean,
    /// Full fidelity plus the epoch-resolution telemetry series.
    TimeSeries,
}

impl InstrProfile {
    /// Stable CLI/result-row label.
    pub fn label(self) -> &'static str {
        match self {
            InstrProfile::Full => "full",
            InstrProfile::Lean => "lean",
            InstrProfile::TimeSeries => "timeseries",
        }
    }

    /// Parses a [`label`](Self::label) back (the CLI entry point).
    pub fn from_name(name: &str) -> Option<InstrProfile> {
        Some(match name {
            "full" => InstrProfile::Full,
            "lean" => InstrProfile::Lean,
            "timeseries" => InstrProfile::TimeSeries,
            _ => return None,
        })
    }

    /// The recording state this profile names, fresh for one run.
    pub fn instrumentation(self) -> Instrumentation {
        let observed = self != InstrProfile::Lean;
        Instrumentation {
            delivery: observed.then(DeliveryState::default),
            epoch: observed.then(|| EpochState {
                series: (self == InstrProfile::TimeSeries).then(EpochSeries::default),
                ..EpochState::default()
            }),
        }
    }
}

/// The recording state of one run. Build it with
/// [`InstrProfile::instrumentation`] and hand it to
/// `SimBuilder::instrumentation`. Both parts are `None` under `lean`, so
/// an unobserved run does no recording work at all.
///
/// To add an observable, add a field to one part and a line to
/// `delivered` or `epoch`; the runtime needs no edit unless the
/// observable reaches neither call.
#[derive(Debug)]
pub struct Instrumentation {
    delivery: Option<DeliveryState>,
    epoch: Option<EpochState>,
}

/// Per-packet observation: latency by class, FCT, per-app jitter.
#[derive(Debug, Default)]
struct DeliveryState {
    latency_interactive: LatencyHistogram,
    latency_short: LatencyHistogram,
    latency_bulk: LatencyHistogram,
    fct: FctTracker,
    /// Indexed by app; grown as apps deliver, padded to the app count at
    /// the end so an app that never delivered still counts (at zero).
    jitters: Vec<Rfc3550Jitter>,
}

/// Per-epoch observation: the demand-error mean, plus the row series
/// under `timeseries`.
#[derive(Debug, Default)]
struct EpochState {
    err_sum: f64,
    err_n: u64,
    series: Option<EpochSeries>,
    /// `(at, cumulative dark ns)` of the previous sample.
    last: Option<(SimTime, u64)>,
}

impl Instrumentation {
    /// Whether this run records anything (false under `lean`). The
    /// runtime resolves it once at build into its one observation flag,
    /// which also gates buffer-peak accounting and the demand-error pass.
    pub(crate) fn observes(&self) -> bool {
        self.delivery.is_some()
    }

    /// A tracked flow entered the system (FCT start-of-clock).
    pub(crate) fn flow_started(&mut self, flow: u64, bytes: u64, at: SimTime) {
        if let Some(d) = &mut self.delivery {
            d.fct.flow_started(flow, bytes, at);
        }
    }

    /// A packet reached its destination host at `at`. Called in delivery
    /// order, so per-flow byte streams and per-app packet sequences are
    /// exactly the simulated order.
    pub(crate) fn delivered(&mut self, pkt: &Packet, at: SimTime) {
        let Some(d) = &mut self.delivery else {
            return;
        };
        let lat = at.saturating_since(pkt.created).as_nanos();
        match pkt.class {
            TrafficClass::Interactive => {
                d.latency_interactive.record(lat);
                if pkt.flow >= APP_FLOW_BASE {
                    let app = (pkt.flow - APP_FLOW_BASE) as usize;
                    if app >= d.jitters.len() {
                        d.jitters.resize_with(app + 1, Rfc3550Jitter::new);
                    }
                    d.jitters[app].on_packet(pkt.created, at);
                }
            }
            TrafficClass::Short => d.latency_short.record(lat),
            TrafficClass::Bulk => d.latency_bulk.record(lat),
        }
        if pkt.flow < APP_FLOW_BASE {
            d.fct.bytes_delivered(pkt.flow, pkt.bytes as u64, at);
        }
    }

    /// One sample per scheduler epoch, in epoch order.
    pub(crate) fn epoch(&mut self, s: &EpochSample) {
        let Some(e) = &mut self.epoch else {
            return;
        };
        if let Some(err) = s.demand_err_rel {
            e.err_sum += err;
            e.err_n += 1;
        }
        let Some(series) = &mut e.series else {
            return;
        };
        let duty_cycle = e.last.and_then(|(t0, dark0)| {
            let dt = s.at.saturating_since(t0).as_nanos();
            (dt > 0).then(|| {
                let dark = s.ocs_dark_ns.saturating_sub(dark0);
                (1.0 - dark as f64 / dt as f64).clamp(0.0, 1.0)
            })
        });
        series.push(EpochRow {
            epoch: s.epoch,
            at: s.at,
            demand_err_rel: s.demand_err_rel,
            duty_cycle,
            backlog_bytes: s.backlog_bytes,
            decision_ns: s.decision_ns,
            entries: s.entries as u32,
        });
        e.last = Some((s.at, s.ocs_dark_ns));
    }

    /// Consumes the recording into report fields: the delivery
    /// observables, the mean demand-estimation error and the epoch
    /// series. `n_apps` is the workload's app count.
    pub(crate) fn finish(
        self,
        n_apps: usize,
    ) -> (DeliveryMetrics, Option<f64>, Option<EpochSeries>) {
        let delivery = self
            .delivery
            .map_or_else(DeliveryMetrics::default, |mut d| {
                d.jitters.resize_with(n_apps, Rfc3550Jitter::new);
                let jitter = |j: &Rfc3550Jitter| j.jitter_ns();
                DeliveryMetrics {
                    completed_flows: d.fct.completed(),
                    fct_mice: d.fct.stats(SizeClass::Mice),
                    fct_medium: d.fct.stats(SizeClass::Medium),
                    fct_elephant: d.fct.stats(SizeClass::Elephant),
                    fct_overall: d.fct.overall(),
                    voip_jitter_mean_ns: (n_apps > 0)
                        .then(|| d.jitters.iter().map(jitter).sum::<f64>() / n_apps as f64),
                    voip_jitter_max_ns: d.jitters.iter().map(jitter).reduce(f64::max),
                    latency_interactive: d.latency_interactive,
                    latency_short: d.latency_short,
                    latency_bulk: d.latency_bulk,
                }
            });
        match self.epoch {
            Some(e) => {
                let mean = (e.err_n > 0).then(|| e.err_sum / e.err_n as f64);
                (delivery, mean, e.series)
            }
            None => (delivery, None, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xds_net::PortNo;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn pkt(flow: u64, bytes: u32, class: TrafficClass, created: u64) -> Packet {
        Packet::new(flow, PortNo(0), PortNo(1), bytes, class, t(created), 0)
    }

    #[test]
    fn full_profile_tracks_latency_jitter_and_fct() {
        let mut s = InstrProfile::Full.instrumentation();
        assert!(s.observes());
        s.flow_started(1, 3000, t(0));
        s.delivered(&pkt(1, 1500, TrafficClass::Bulk, 0), t(1000));
        s.delivered(&pkt(1, 1500, TrafficClass::Bulk, 0), t(2000));
        let voip = APP_FLOW_BASE;
        s.delivered(&pkt(voip, 200, TrafficClass::Interactive, 100), t(400));
        s.delivered(&pkt(voip, 200, TrafficClass::Interactive, 300), t(900));
        let (m, err, series) = s.finish(1);
        assert_eq!(m.completed_flows, 1);
        assert_eq!(m.latency_bulk.count(), 2);
        assert_eq!(m.latency_interactive.count(), 2);
        assert!(m.voip_jitter_mean_ns.is_some());
        assert!(m.fct_overall.is_some());
        assert_eq!(err, None, "no epoch sampled");
        assert!(series.is_none(), "full records no series");
    }

    #[test]
    fn lean_profile_records_nothing() {
        let mut s = InstrProfile::Lean.instrumentation();
        assert!(!s.observes());
        s.flow_started(1, 10, t(0));
        s.delivered(&pkt(1, 10, TrafficClass::Bulk, 0), t(5));
        s.epoch(&sample(0, 0, Some(0.5), 0));
        let (m, err, series) = s.finish(1);
        assert_eq!(m.completed_flows, 0);
        assert!(m.latency_bulk.is_empty());
        assert!(m.fct_overall.is_none());
        assert_eq!(m.voip_jitter_mean_ns, None);
        assert_eq!(err, None);
        assert!(series.is_none());
    }

    fn sample(epoch: u64, at_ns: u64, err: Option<f64>, dark_ns: u64) -> EpochSample {
        EpochSample {
            epoch,
            at: t(at_ns),
            demand_err_rel: err,
            backlog_bytes: 100,
            decision_ns: 50,
            ocs_dark_ns: dark_ns,
            entries: 2,
        }
    }

    #[test]
    fn full_profile_mean_error_matches_hand_sum() {
        let mut s = InstrProfile::Full.instrumentation();
        s.epoch(&sample(0, 0, None, 0));
        s.epoch(&sample(1, 1000, Some(0.5), 0));
        s.epoch(&sample(2, 2000, Some(0.25), 0));
        let (_, err, series) = s.finish(0);
        assert_eq!(err, Some(0.375));
        assert!(series.is_none());
    }

    #[test]
    fn timeseries_profile_derives_duty_cycle_between_samples() {
        let mut s = InstrProfile::TimeSeries.instrumentation();
        // 1000 ns apart; 100 ns of new darkness per interval → duty 0.9.
        s.epoch(&sample(0, 0, Some(0.0), 0));
        s.epoch(&sample(1, 1000, Some(0.0), 100));
        s.epoch(&sample(2, 2000, None, 200));
        let (_, err, series) = s.finish(0);
        let series = series.expect("timeseries profile records rows");
        assert_eq!(series.len(), 3);
        assert_eq!(series.rows()[0].duty_cycle, None, "no interval yet");
        let d1 = series.rows()[1].duty_cycle.unwrap();
        assert!((d1 - 0.9).abs() < 1e-12, "duty {d1}");
        assert_eq!(series.rows()[2].demand_err_rel, None);
        assert_eq!(err, Some(0.0));
    }

    #[test]
    fn profile_labels_round_trip() {
        for p in [
            InstrProfile::Full,
            InstrProfile::Lean,
            InstrProfile::TimeSeries,
        ] {
            assert_eq!(InstrProfile::from_name(p.label()), Some(p));
        }
        assert_eq!(InstrProfile::from_name("bogus"), None);
    }
}
