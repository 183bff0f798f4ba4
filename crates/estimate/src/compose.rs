//! Composition: per-link mini-problem outcomes folded back into one
//! [`RunReport`], the same measurement bundle the exact tier emits.
//!
//! The link solvers produce fluid quantities — delivered bytes, mean
//! waits, residual backlogs. This module converts them into the exact
//! tier's vocabulary: latency histograms synthesized from the mean
//! waits via a fixed exponential quantile ladder
//! ([`xds_metrics::record_wait_population`]), FCT statistics per size
//! class from the path rate plus wait, drop counters from overflow
//! bytes, and the schedule-level OCS ledger (reconfigurations, dark
//! time) from the derived [`ScheduleModel`]. Every synthesized field
//! flows through the same `RunReport::metric_columns` accessor layer,
//! so estimate rows are column-compatible with exact rows by
//! construction.

use xds_core::report::RunReport;
use xds_metrics::{record_wait_population, FctStats, SizeClass};
use xds_sim::{SimDuration, SimRng};
use xds_switch::Site;

use crate::model::{EstimateProblem, LinkOutcome, ScheduleModel};
use crate::profile::SizeProfile;

/// Samples drawn to estimate the mean decision latency of the placement
/// timing model (the exact tier samples it once per epoch).
const DECISION_SAMPLES: u32 = 32;

/// Exponential-tail multipliers for the synthesized FCT quantiles:
/// `-ln(1-q)` at q = 0.5 and 0.99, plus a 7σ-ish cap for the max.
const FCT_P50_MULT: f64 = 0.693;
const FCT_P99_MULT: f64 = 4.605;
const FCT_MAX_MULT: f64 = 7.0;

/// Composes the solved links of one point into a [`RunReport`].
pub(crate) fn compose(
    p: &EstimateProblem,
    sched: &ScheduleModel,
    profile: &SizeProfile,
    agg_bps: f64,
    links: &[LinkOutcome],
    degraded_ns: u64,
    decision_rng: &mut SimRng,
) -> RunReport {
    let n = p.cfg.n_ports;
    let mtu = (p.cfg.mtu as u64).max(1);
    let horizon_ns = p.duration.as_nanos().max(1);
    let horizon_s = p.duration.as_secs_f64();

    let mut r = RunReport::skeleton(
        p.scheduler_name.clone(),
        p.cfg.placement.label(),
        p.duration,
    );
    r.measured = p.measured;

    // ---- background totals across links -------------------------------
    let mut arrival = 0.0f64;
    let mut eps_del = 0.0f64;
    let mut ocs_del = 0.0f64;
    let mut voq_drop = 0.0f64;
    let mut eps_drop = 0.0f64;
    let mut dark_drop = 0.0f64;
    let mut failover = 0.0f64;
    let mut peak_backlog = 0.0f64;
    for l in links {
        arrival += l.arrival_bytes;
        eps_del += l.eps_delivered;
        ocs_del += l.ocs_delivered;
        voq_drop += l.voq_drop_bytes;
        eps_drop += l.eps_drop_bytes;
        dark_drop += l.dark_drop_bytes;
        failover += l.failover_bytes;
        peak_backlog = peak_backlog.max(l.backlog_bytes);
    }

    // ---- interactive apps (CBR streams ride the EPS path) -------------
    let eps_quantum_ns = p.cfg.eps_rate.tx_time(mtu).as_nanos();
    let mut app_bytes = 0u64;
    let mut app_pkts = 0u64;
    let mut jitter_acc = 0.0f64;
    let mut jitter_worst = 0.0f64;
    for app in &p.apps {
        let start_ns = app.start.as_nanos();
        if start_ns >= horizon_ns {
            continue;
        }
        let interval_ns = app.interval.as_nanos().max(1);
        let pkts = (horizon_ns - start_ns) / interval_ns;
        app_bytes += pkts * app.pkt_bytes as u64;
        app_pkts += pkts;
        let dst_wait = links
            .get(app.dst.index() % n)
            .map(|l| l.eps_wait_ns)
            .unwrap_or(0.0);
        if p.measured && pkts > 0 {
            // One-way delay: serialization of the app packet plus the
            // destination link's EPS wait.
            let base = p.cfg.eps_rate.tx_time(app.pkt_bytes as u64).as_nanos();
            record_wait_population(&mut r.latency_interactive, base, dst_wait, pkts);
            // RFC 3550 jitter of a uniformly jittered sender (E|Δ| =
            // 2J/3) plus half the queueing variability.
            let j = (2.0 / 3.0) * app.send_jitter.as_nanos() as f64 + 0.5 * dst_wait;
            jitter_acc += j;
            jitter_worst = jitter_worst.max(j);
        }
    }
    if p.measured && app_pkts > 0 {
        let mean = jitter_acc / p.apps.len().max(1) as f64;
        r.voip_jitter_mean_ns = Some(mean);
        r.voip_jitter_max_ns = Some((2.0 * jitter_worst).max(mean));
    }

    // ---- byte / flow ledgers ------------------------------------------
    r.offered_bytes = arrival.round() as u64 + app_bytes;
    let bg_flows = (agg_bps * horizon_s / profile.mean_bytes).round() as u64;
    r.offered_flows = bg_flows + p.apps.len() as u64;
    r.delivered_eps_bytes = eps_del.round() as u64 + app_bytes;
    r.delivered_ocs_bytes = ocs_del.round() as u64;

    r.drops.voq_full = (voq_drop / mtu as f64).round() as u64;
    r.drops.eps_full = (eps_drop / mtu as f64).round() as u64;
    r.drops.link_dark = (dark_drop / mtu as f64).round() as u64;

    r.eps.delivered_bytes = r.delivered_eps_bytes;
    r.eps.delivered_packets = eps_del.round() as u64 / mtu + app_pkts;
    r.eps.drops = r.drops.eps_full;
    r.eps.dropped_bytes = eps_drop.round() as u64;
    r.ocs.delivered_bytes = r.delivered_ocs_bytes;
    r.ocs.delivered_packets = r.delivered_ocs_bytes / mtu;

    // ---- schedule ledger ----------------------------------------------
    // Epoch starts arrive at the stretched cadence (a decision slower
    // than the epoch delays the next epoch start, exactly as in the
    // exact tier's event loop).
    r.decisions = horizon_ns / sched.cadence_ns.max(1);
    // Epochs that actually install a schedule: the installation
    // transient (`active`) eats the leading ones.
    let installs = (r.decisions as f64 * sched.active).floor() as u64;
    r.ocs.reconfigurations = installs * sched.entries;
    r.ocs.dark_time = if r.ocs.reconfigurations == 0 {
        // No reconfigurations (pure packet switch, or a horizon shorter
        // than one decision): the fabric is never dark and the duty-cycle
        // column reads 1.0, matching the exact tier.
        SimDuration::ZERO
    } else {
        SimDuration::from_nanos(
            p.cfg
                .reconfig
                .as_nanos()
                .saturating_mul(r.ocs.reconfigurations),
        )
        .min(p.duration)
    };
    let mut lat_acc = 0.0f64;
    for _ in 0..DECISION_SAMPLES {
        lat_acc += p.cfg.placement.decision_latency(n, decision_rng).as_nanos() as f64;
    }
    r.decision_latency_mean_ns = lat_acc / DECISION_SAMPLES as f64;

    // ---- packet latency histograms ------------------------------------
    let line_quantum_ns = p.cfg.line_rate.tx_time(mtu).as_nanos();
    if p.measured {
        for l in links {
            let eps_pkts = (l.eps_delivered / mtu as f64) as u64;
            record_wait_population(
                &mut r.latency_short,
                eps_quantum_ns,
                l.eps_wait_ns,
                eps_pkts,
            );
            let ocs_pkts = (l.ocs_delivered / mtu as f64) as u64;
            record_wait_population(
                &mut r.latency_bulk,
                line_quantum_ns,
                l.ocs_wait_ns,
                ocs_pkts,
            );
        }
    }

    // ---- flow completion times ----------------------------------------
    if p.measured {
        // Byte-weighted mean waits over the two paths.
        let wmean = |f: fn(&LinkOutcome) -> (f64, f64)| -> f64 {
            let (acc, w) = links
                .iter()
                .map(f)
                .fold((0.0, 0.0), |(a, b), (x, y)| (a + x * y, b + y));
            if w > 0.0 {
                acc / w
            } else {
                0.0
            }
        };
        let eps_wait = wmean(|l| (l.eps_wait_ns, l.eps_delivered.max(0.0)));
        let ocs_wait = wmean(|l| (l.ocs_wait_ns, l.ocs_delivered.max(0.0)));
        let eps_bps = p.cfg.eps_rate.bytes_per_sec() as f64;
        let ocs_bps = (p.cfg.line_rate.bytes_per_sec() as f64 * sched.duty * sched.active).max(1.0);
        let offered = r.offered_bytes.max(1) as f64;
        let delivery_frac =
            ((r.delivered_eps_bytes + r.delivered_ocs_bytes) as f64 / offered).min(1.0);

        let mut stats: Vec<(SizeClass, FctStats)> = Vec::new();
        for class in [SizeClass::Mice, SizeClass::Medium, SizeClass::Elephant] {
            let cp = profile.of(class);
            if cp.count_share <= 0.0 {
                continue;
            }
            // Mice ride the EPS; bulk classes ride circuits unless the
            // point is the pure packet-switch baseline.
            let (rate, wait) = if p.eps_only || class == SizeClass::Mice {
                (eps_bps.max(1.0), eps_wait)
            } else {
                (ocs_bps, ocs_wait)
            };
            let base = cp.mean_bytes / rate * 1e9 + line_quantum_ns as f64;
            let mean = base + wait;
            let complete = delivery_frac * (1.0 - mean / horizon_ns as f64).clamp(0.0, 1.0);
            let count = (bg_flows as f64 * cp.count_share * complete).round() as u64;
            if count == 0 {
                continue;
            }
            let s = FctStats {
                count,
                mean_ns: mean,
                p50_ns: (base + FCT_P50_MULT * wait).round() as u64,
                p99_ns: (base + FCT_P99_MULT * wait).round() as u64,
                max_ns: (base + FCT_MAX_MULT * wait).round() as u64,
            };
            stats.push((class, s));
        }
        r.completed_flows = stats.iter().map(|(_, s)| s.count).sum();
        if !stats.is_empty() {
            let total = r.completed_flows.max(1) as f64;
            let mean = stats
                .iter()
                .map(|(_, s)| s.mean_ns * s.count as f64)
                .sum::<f64>()
                / total;
            // Walk classes by ascending mean FCT to place the overall
            // quantiles in the right class.
            let mut by_mean: Vec<&FctStats> = stats.iter().map(|(_, s)| s).collect();
            by_mean.sort_by(|a, b| a.mean_ns.total_cmp(&b.mean_ns));
            let quantile_of = |q: f64| -> &FctStats {
                let target = q * total;
                let mut cum = 0.0;
                for s in &by_mean {
                    cum += s.count as f64;
                    if cum >= target {
                        return s;
                    }
                }
                by_mean.last().expect("nonempty")
            };
            r.fct_overall = Some(FctStats {
                count: r.completed_flows,
                mean_ns: mean,
                p50_ns: quantile_of(0.5).p50_ns,
                p99_ns: quantile_of(0.99).p99_ns,
                max_ns: by_mean.iter().map(|s| s.max_ns).max().unwrap_or(0),
            });
            for (class, s) in stats {
                match class {
                    SizeClass::Mice => r.fct_mice = Some(s),
                    SizeClass::Medium => r.fct_medium = Some(s),
                    SizeClass::Elephant => r.fct_elephant = Some(s),
                }
            }
        }
    }

    // ---- buffer peaks --------------------------------------------------
    if p.measured {
        match p.cfg.placement.buffering_site() {
            Site::Switch => r.peak_switch_buffer = peak_backlog.round() as u64,
            Site::Host => r.peak_host_buffer = peak_backlog.round() as u64,
        }
    }

    // ---- fault ledger & event scale ------------------------------------
    r.fault_degraded_ns = degraded_ns;
    r.fault_failover_bytes = failover.round() as u64;
    let total_pkts = r.eps.delivered_packets + r.ocs.delivered_packets;
    r.events = 2 * total_pkts + r.offered_flows + r.decisions;

    r
}
