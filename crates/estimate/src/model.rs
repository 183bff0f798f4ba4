//! The decomposed estimator: a scenario point as `n` independent
//! per-destination-link mini-problems, each solved in closed form
//! (stationary traffic) or by a tiny seeded slotted simulation (rotating
//! or faulted traffic), then composed into a [`RunReport`].
//!
//! ## Decomposition
//!
//! The fabric's congestion is destination-dominated: every byte toward
//! port `d` must leave through `d`'s line-rate link (OCS path) or `d`'s
//! undersized EPS output queue, so per-destination byte rates determine
//! stability, waits and residual backlog to first order. Each
//! mini-problem `d` therefore sees:
//!
//! * an arrival rate `λ_d = R · colsum(d)` split EPS/OCS by the sampled
//!   [`SizeProfile`]'s bulk-threshold byte share,
//! * an EPS server at `eps_rate` (M/M/1-style waits on packet service),
//! * an OCS server at `line_rate · duty · active · cover_d`, where
//!   `duty` is the installed epoch's non-dark fraction, `active` the
//!   fraction of the horizon during which any schedule exists at all
//!   (the first demand-bearing schedule needs one epoch cadence of
//!   observed demand plus one scheduler decision, and the cadence itself
//!   stretches to the decision latency — at kilofabric sizes that
//!   exceeds a short horizon, and then the exact tier delivers zero OCS
//!   bytes), and `cover_d` the destination's served-demand fraction
//!   (1 for demand-aware schedules, `in_degree/n` for oblivious TDMA
//!   rotation); bulk waits are epoch-dominated (`epoch/2 · 1/(1-ρ)`).
//!
//! Cross-pair coupling (matching conflicts, head-of-line blocking,
//! estimator lag) is deliberately ignored — that is the fidelity trade,
//! and `sweep validate-estimates` measures exactly how much it costs.

use xds_core::config::NodeConfig;
use xds_core::fault::FaultPlan;
use xds_core::report::RunReport;
use xds_sim::{SimDuration, SimRng};
use xds_switch::Site;
use xds_traffic::{CbrApp, FlowSizeDist, TrafficMatrix};

use crate::compose;
use crate::minisim;
use crate::profile::SizeProfile;

/// Demand below this fraction of the matrix total is treated as zero
/// when counting active pairs and demand degrees.
const ACTIVE_EPS: f64 = 1e-9;

/// Queueing formulas blow up at ρ→1; beyond this utilization the model
/// switches to the overload branch (service-bound delivery, linearly
/// growing backlog).
const RHO_STABLE_MAX: f64 = 0.97;

/// One scenario point, translated for the estimate tier. Everything the
/// decomposition needs and nothing the exact runtime owns — the
/// `xds-scenario` crate builds this from a `ScenarioSpec` with the same
/// seed derivation the exact tier uses.
#[derive(Debug, Clone)]
pub struct EstimateProblem {
    /// Fabric configuration (rates, epoch, budgets, placement).
    pub cfg: NodeConfig,
    /// Initial traffic matrix.
    pub matrix: TrafficMatrix,
    /// Mid-run matrix rotation (period, stages), if the pattern drives
    /// one — rotating points take the mini-sim path.
    pub cycle: Option<(SimDuration, Vec<TrafficMatrix>)>,
    /// Flow-size distribution of the background flows.
    pub sizes: FlowSizeDist,
    /// Effective aggregate load (fraction of `n · line_rate`), after any
    /// imbalance normalization.
    pub load: f64,
    /// EPS/OCS flow-size boundary (bytes).
    pub bulk_threshold: u64,
    /// Interactive CBR apps layered over the flows.
    pub apps: Vec<CbrApp>,
    /// Simulated horizon.
    pub duration: SimDuration,
    /// Master seed (every estimator stream forks off this).
    pub seed: u64,
    /// Armed fault plan, if any — faulted points take the mini-sim path.
    pub faults: Option<FaultPlan>,
    /// Scheduler label carried into the report.
    pub scheduler_name: String,
    /// OCS configurations one installed schedule spends per epoch: 0 for
    /// the pure packet switch, 1 for matching schedulers (one matching
    /// per epoch, iSLIP/PIM/TDMA-style), the permutation budget for
    /// decomposition schedulers (BvN, Solstice).
    pub entries_per_epoch: u64,
    /// Pure packet-switch baseline: no circuits at all.
    pub eps_only: bool,
    /// Demand-oblivious rotation (TDMA): coverage spreads over all `n`
    /// destinations regardless of demand.
    pub oblivious: bool,
    /// Whether delivery-derived observables and buffer peaks count as
    /// measured (full / timeseries profiles; `false` renders them as
    /// null, like lean exact rows).
    pub measured: bool,
}

/// The schedule-level constants shared by every mini-problem of a point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScheduleModel {
    /// OCS configurations one installed schedule spends per epoch.
    pub entries: u64,
    /// Non-dark fraction of an installed cadence period (coasting on a
    /// stale schedule pays no reconfiguration, so a slow decision
    /// dilutes the dark fraction).
    pub duty: f64,
    /// Fraction of the horizon during which a schedule is installed at
    /// all. Zero when one cadence period plus one decision latency
    /// exceeds the horizon — the exact tier then never brings a circuit
    /// up, and neither does the estimate.
    pub active: f64,
    /// Effective epoch-start cadence in ns: the exact tier schedules the
    /// next epoch at `max(epoch, decision latency)`, so slow schedulers
    /// stretch the decision cadence rather than pipeline behind it.
    pub cadence_ns: u64,
}

impl ScheduleModel {
    /// Derives the schedule model from the scheduler's per-epoch entry
    /// budget and its decision-latency timing model.
    pub(crate) fn derive(p: &EstimateProblem) -> ScheduleModel {
        let epoch_ns = p.cfg.epoch.as_nanos().max(1) as f64;
        let horizon_ns = p.duration.as_nanos().max(1) as f64;
        let decision_ns = p
            .cfg
            .placement
            .mean_decision_latency(p.cfg.n_ports)
            .as_nanos() as f64;
        let cadence_ns = epoch_ns.max(decision_ns);
        if p.eps_only || p.entries_per_epoch == 0 {
            return ScheduleModel {
                entries: 0,
                duty: 0.0,
                active: 0.0,
                cadence_ns: cadence_ns as u64,
            };
        }
        let entries = p
            .entries_per_epoch
            .clamp(1, p.cfg.max_entries.max(1) as u64);
        // The exact tier's first epoch observes an empty fabric and emits
        // an empty schedule; the first demand-bearing schedule is the one
        // computed at the second epoch start, and it applies one decision
        // latency later.
        let install_ns = cadence_ns + decision_ns;
        let active = ((horizon_ns - install_ns) / horizon_ns).clamp(0.0, 1.0);
        // One schedule (and its `entries` reconfigurations) per cadence
        // period: a decision slower than the epoch stretches the period
        // and dilutes the dark fraction accordingly.
        let dark = (entries as f64 * p.cfg.reconfig.as_nanos() as f64 / cadence_ns).min(1.0);
        ScheduleModel {
            entries,
            duty: 1.0 - dark,
            active,
            cadence_ns: cadence_ns as u64,
        }
    }
}

/// Per-destination demand structure, scanned once row-major: column
/// demand fractions and in-degrees in a single walk over the matrix's
/// support (`TrafficMatrix::for_each_cell`: the listed cells of a
/// permutation-like pattern, every off-diagonal cell over a non-zero
/// background), so a sparse pattern costs `O(n·k)`, not `O(n²)`.
pub(crate) struct MatrixSummary {
    /// Column sums (per-destination offered fraction).
    pub cols: Vec<f64>,
    /// Sources with nonzero demand toward each destination (floored at
    /// 1; sizes the switch-side VOQ capacity and the oblivious-rotation
    /// coverage).
    pub in_deg: Vec<u32>,
}

impl MatrixSummary {
    pub(crate) fn scan(matrix: &TrafficMatrix) -> MatrixSummary {
        let n = matrix.n();
        let mut cols = vec![0.0f64; n];
        let mut in_deg = vec![0u32; n];
        matrix.for_each_cell(|_, d, f| {
            cols[d] += f;
            if f > ACTIVE_EPS {
                in_deg[d] += 1;
            }
        });
        for deg in &mut in_deg {
            *deg = (*deg).max(1);
        }
        MatrixSummary { cols, in_deg }
    }

    /// The fraction of destination `d`'s demand an installed schedule
    /// serves: demand-aware schedules keep every backlogged destination
    /// link busy (any permutation serves all ports at once), while an
    /// oblivious TDMA rotation connects each of the `n` sources in turn
    /// regardless of which ones have demand.
    pub(crate) fn cover(&self, d: usize, oblivious: bool) -> f64 {
        if oblivious {
            self.in_deg[d] as f64 / self.in_deg.len().max(1) as f64
        } else {
            1.0
        }
    }
}

/// The solved mini-problem of one destination link.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkOutcome {
    /// Background bytes offered toward this destination over the horizon.
    pub arrival_bytes: f64,
    /// Bytes delivered on the EPS path.
    pub eps_delivered: f64,
    /// Bytes delivered on the OCS path.
    pub ocs_delivered: f64,
    /// Mean EPS queueing wait (ns) seen by packets toward this link.
    pub eps_wait_ns: f64,
    /// Mean OCS grant wait (ns) seen by bulk packets toward this link.
    pub ocs_wait_ns: f64,
    /// Peak granted-path backlog estimate (bytes) parked for this link.
    pub backlog_bytes: f64,
    /// Bytes dropped at full switch VOQs.
    pub voq_drop_bytes: f64,
    /// Bytes dropped at the full EPS output queue.
    pub eps_drop_bytes: f64,
    /// Bytes diverted from faulted circuits onto the EPS slow path.
    pub failover_bytes: f64,
    /// Bytes lost to dark circuits (fault drops).
    pub dark_drop_bytes: f64,
}

/// A stable/overload queue outcome: delivered bytes, mean wait,
/// residual backlog.
pub(crate) fn queue_outcome(
    lambda_bps: f64,
    mu_bps: f64,
    horizon_s: f64,
    wait_scale_ns: f64,
) -> (f64, f64, f64) {
    if lambda_bps <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let offered = lambda_bps * horizon_s;
    if mu_bps <= 0.0 {
        // No server at all: everything offered is backlog.
        return (0.0, horizon_s * 0.5e9, offered);
    }
    let rho = lambda_bps / mu_bps;
    if rho < RHO_STABLE_MAX {
        // Stable: geometric-growth wait on the service quantum, residual
        // backlog by Little's law (bytes in system at the horizon).
        let wait_ns = wait_scale_ns / (1.0 - rho);
        let backlog = (lambda_bps * wait_ns * 1e-9).min(offered);
        (offered - backlog, wait_ns, backlog)
    } else {
        // Overloaded: the server bound delivers, the rest piles up; the
        // mean wait over the run grows with the undeliverable fraction.
        let delivered = (mu_bps * horizon_s).min(offered);
        let backlog = offered - delivered;
        let wait_ns = wait_scale_ns + 0.5 * horizon_s * 1e9 * (backlog / offered);
        (delivered, wait_ns, backlog)
    }
}

/// Solves one destination link in closed form.
#[allow(clippy::too_many_arguments)]
pub(crate) fn closed_form_link(
    p: &EstimateProblem,
    sched: &ScheduleModel,
    profile: &SizeProfile,
    agg_bps: f64,
    col_frac: f64,
    cover: f64,
    voq_cap_bytes: f64,
) -> LinkOutcome {
    let horizon_s = p.duration.as_secs_f64();
    let lambda = agg_bps * col_frac;
    let eps_share = if p.eps_only {
        1.0
    } else {
        profile.eps_byte_share
    };
    let l_eps = lambda * eps_share;
    let l_ocs = lambda - l_eps;

    let eps_bps = p.cfg.eps_rate.bytes_per_sec() as f64;
    let eps_quantum_ns = p.cfg.eps_rate.tx_time(p.cfg.mtu as u64).as_nanos() as f64;
    let (eps_del, eps_wait, eps_backlog) = queue_outcome(l_eps, eps_bps, horizon_s, eps_quantum_ns);
    // The EPS output queue is small; standing backlog beyond it drops.
    let eps_drop = (eps_backlog - p.cfg.eps_buffer as f64).max(0.0);

    // `active` folds the installation transient into the server rate:
    // the horizon-averaged OCS capacity is what a late-starting server
    // can move. When `active` is 0, the circuit never comes up and the
    // whole bulk stream backlogs — exactly the exact tier's behavior on
    // horizons shorter than the first scheduler decision.
    let mu_ocs = p.cfg.line_rate.bytes_per_sec() as f64 * sched.duty * sched.active * cover;
    let half_epoch_ns = p.cfg.epoch.as_nanos() as f64 * 0.5;
    let (ocs_del, ocs_wait, ocs_backlog) = queue_outcome(l_ocs, mu_ocs, horizon_s, half_epoch_ns);
    // Switch-side VOQs are finite; host memory is not (it is the thing
    // the paper measures).
    let (voq_drop, parked) = match p.cfg.placement.buffering_site() {
        Site::Switch => (
            (ocs_backlog - voq_cap_bytes).max(0.0),
            ocs_backlog.min(voq_cap_bytes),
        ),
        Site::Host => (0.0, ocs_backlog),
    };

    LinkOutcome {
        arrival_bytes: lambda * horizon_s,
        eps_delivered: eps_del,
        ocs_delivered: ocs_del,
        eps_wait_ns: eps_wait,
        ocs_wait_ns: ocs_wait,
        backlog_bytes: parked,
        voq_drop_bytes: voq_drop,
        eps_drop_bytes: eps_drop,
        failover_bytes: 0.0,
        dark_drop_bytes: 0.0,
    }
}

/// Solves the whole point: decompose, solve each link, compose.
pub(crate) fn solve(p: &EstimateProblem) -> RunReport {
    // Stream derivation mirrors the exact tier's discipline: one root,
    // deterministic fork order, no other entropy sources.
    let mut root = SimRng::new(p.seed);
    let mut profile_rng = root.fork();
    let mut decision_rng = root.fork();
    let fault_rng = root.fork();

    let profile = SizeProfile::sample(&p.sizes, p.bulk_threshold, &mut profile_rng);
    let sched = ScheduleModel::derive(p);
    let n = p.cfg.n_ports;
    let agg_bps = p.load * n as f64 * p.cfg.line_rate.bytes_per_sec() as f64;

    let summary = MatrixSummary::scan(&p.matrix);
    let (links, degraded_ns) =
        if p.cycle.is_some() || p.faults.as_ref().is_some_and(|f| f.is_active()) {
            minisim::solve_links(p, &sched, &profile, &summary, agg_bps, fault_rng)
        } else {
            let links = (0..n)
                .map(|d| {
                    let cap = p.cfg.voq_capacity as f64 * summary.in_deg[d] as f64;
                    closed_form_link(
                        p,
                        &sched,
                        &profile,
                        agg_bps,
                        summary.cols[d],
                        summary.cover(d, p.oblivious),
                        cap,
                    )
                })
                .collect();
            (links, 0)
        };

    compose::compose(
        p,
        &sched,
        &profile,
        agg_bps,
        &links,
        degraded_ns,
        &mut decision_rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xds_core::config::NodeConfig;
    use xds_hw::{HwAlgo, HwSchedulerModel};

    fn problem(n: usize) -> EstimateProblem {
        let cfg = NodeConfig::fast(
            n,
            SimDuration::from_micros(1),
            HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 }),
        );
        EstimateProblem {
            cfg,
            matrix: TrafficMatrix::uniform(n),
            cycle: None,
            sizes: FlowSizeDist::Fixed(150_000),
            load: 0.5,
            bulk_threshold: 100_000,
            apps: Vec::new(),
            duration: SimDuration::from_millis(2),
            seed: 1,
            faults: None,
            scheduler_name: "islip".into(),
            entries_per_epoch: 1,
            eps_only: false,
            oblivious: false,
            measured: true,
        }
    }

    #[test]
    fn matrix_summary_tracks_demand_structure() {
        let s = MatrixSummary::scan(&TrafficMatrix::incast(8, 7, 0));
        // Incast: 7 senders into port 0, nothing anywhere else.
        assert_eq!(s.in_deg[0], 7);
        assert!((s.cols[0] - 1.0).abs() < 1e-9);
        assert!(s.in_deg[1..].iter().all(|&d| d == 1), "floored at 1");
        assert!(s.cols[1..].iter().all(|&c| c == 0.0));
        // Demand-aware schedules cover everything; oblivious rotation
        // covers only the in-degree's share of the n slots.
        assert_eq!(s.cover(0, false), 1.0);
        assert!((s.cover(0, true) - 7.0 / 8.0).abs() < 1e-12);
        let u = MatrixSummary::scan(&TrafficMatrix::uniform(8));
        assert!(u.in_deg.iter().all(|&d| d == 7));
        // One fused pass must agree with the matrix's own column sums.
        assert_eq!(u.cols, TrafficMatrix::uniform(8).col_sums());
    }

    #[test]
    fn schedules_never_install_on_horizons_shorter_than_a_decision() {
        let mut p = problem(8);
        // One epoch of demand observation plus the decision latency
        // always exceeds a 1 ns horizon.
        p.duration = SimDuration::from_nanos(1);
        let sched = ScheduleModel::derive(&p);
        assert_eq!(sched.active, 0.0, "no schedule fits this horizon");
        let r = solve(&p);
        assert_eq!(
            r.delivered_ocs_bytes, 0,
            "no installed schedule, no circuit bytes"
        );
        assert_eq!(r.ocs.reconfigurations, 0);
        assert_eq!(r.ocs.dark_time, SimDuration::ZERO);
    }

    #[test]
    fn stable_queue_delivers_almost_everything() {
        let (del, wait, backlog) = queue_outcome(1e9, 4e9, 1e-3, 1000.0);
        assert!(del > 0.99 * 1e6, "delivered {del}");
        assert!(wait > 1000.0 && wait < 2000.0, "wait {wait}");
        assert!(backlog < 0.01 * 1e6);
    }

    #[test]
    fn overloaded_queue_is_service_bound() {
        let (del, wait, backlog) = queue_outcome(4e9, 1e9, 1e-3, 1000.0);
        assert!((del - 1e6).abs() < 1.0, "delivered {del}");
        assert!(backlog > 2.9e6, "backlog {backlog}");
        assert!(wait > 1e5, "overload waits are horizon-scale: {wait}");
    }

    #[test]
    fn estimate_report_is_deterministic_and_plausible() {
        let p = problem(8);
        let a = solve(&p);
        let b = solve(&p);
        assert_eq!(a.trace_json(), b.trace_json(), "byte-identical reruns");
        assert!(a.offered_bytes > 0);
        assert!(a.delivered_bytes() > 0);
        assert!(a.delivered_bytes() <= a.offered_bytes);
        assert!(
            a.ocs_duty_cycle() > 0.5,
            "10x reconfig epoch keeps duty high"
        );
        assert!(a.decisions > 0);
    }

    #[test]
    fn eps_only_routes_everything_through_the_packet_switch() {
        let mut p = problem(8);
        p.eps_only = true;
        p.scheduler_name = "eps_only".into();
        let r = solve(&p);
        assert_eq!(r.delivered_ocs_bytes, 0);
        assert_eq!(r.ocs.reconfigurations, 0);
        assert!(r.delivered_eps_bytes > 0);
        // No circuits means no reconfigurations and thus no dark time —
        // the duty-cycle column reads 1.0, exactly like the exact tier.
        assert_eq!(r.ocs.dark_time, SimDuration::ZERO);
    }

    #[test]
    fn heavier_load_never_delivers_fewer_bytes() {
        let mut lo = problem(8);
        lo.load = 0.2;
        let mut hi = problem(8);
        hi.load = 0.8;
        let a = solve(&lo);
        let b = solve(&hi);
        assert!(b.delivered_bytes() > a.delivered_bytes());
        assert!(b.offered_bytes > a.offered_bytes);
    }
}
