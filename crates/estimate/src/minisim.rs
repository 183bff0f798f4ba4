//! Tiny seeded per-link slotted simulations: the estimator's fallback
//! when a point is *not* stationary — the traffic matrix rotates
//! mid-run (shuffle stages, churning hotspots) or a fault plan is armed
//! (dark links, misfired slots, stalled decisions).
//!
//! Each destination link is simulated independently at epoch
//! granularity: arrivals follow the stage matrix active at each step
//! (with small seeded jitter standing in for Poisson noise), service is
//! the link's modeled EPS/OCS capacity masked by the fault processes,
//! and waits are read off the fluid backlog. All randomness forks off
//! the point's seed in a fixed order on one thread, so the result is a
//! pure function of `(problem, seed)` — the same determinism contract
//! the exact tier honors.

use xds_sim::SimRng;
use xds_switch::Site;
use xds_traffic::TrafficMatrix;

use crate::model::{EstimateProblem, LinkOutcome, MatrixSummary, ScheduleModel};
use crate::profile::SizeProfile;

/// Upper bound on simulated steps per link, so kilofabric points with
/// tiny epochs stay milliseconds-cheap. When capped, each step simply
/// covers more simulated time.
const MAX_STEPS: usize = 8192;

/// Relative width of the per-step arrival jitter (±10 %).
const ARRIVAL_JITTER: f64 = 0.1;

/// Solves every destination link by slotted mini-sim. Returns the
/// per-link outcomes plus the simulated nanoseconds during which any
/// port was dark to injected faults (the degraded-mode ledger).
pub(crate) fn solve_links(
    p: &EstimateProblem,
    sched: &ScheduleModel,
    profile: &SizeProfile,
    summary: &MatrixSummary,
    agg_bps: f64,
    mut rng: SimRng,
) -> (Vec<LinkOutcome>, u64) {
    let n = p.cfg.n_ports;
    let horizon_ns = p.duration.as_nanos().max(1);
    let epoch_ns = p.cfg.epoch.as_nanos().max(1);
    let steps = ((horizon_ns / epoch_ns).max(1) as usize).min(MAX_STEPS);
    let step_ns = horizon_ns as f64 / steps as f64;
    let step_s = step_ns * 1e-9;
    // Steps before the first schedule installs have no OCS capacity
    // (same installation transient the closed-form path models).
    let first_ocs_step = (((1.0 - sched.active) * steps as f64).ceil() as usize).min(steps);

    let plan = p.faults.clone().unwrap_or_default();

    // Per-port dark masks from the link failure + repair process. Drawn
    // port-major from a dedicated fork, so the mask is independent of
    // everything downstream.
    let mut dark = vec![false; n * steps];
    let mut degraded = vec![false; steps];
    if let Some(link) = &plan.link {
        let mut link_rng = rng.fork();
        for port in 0..n {
            let mut prng = link_rng.fork();
            let mut t = prng.exp(link.mean_up.as_nanos().max(1) as f64);
            while t < horizon_ns as f64 {
                let down = prng.exp(link.mean_down.as_nanos().max(1) as f64);
                let s0 = (t / step_ns) as usize;
                let s1 = (((t + down) / step_ns) as usize).min(steps - 1);
                for s in s0..=s1.max(s0) {
                    if s < steps {
                        dark[port * steps + s] = true;
                        degraded[s] = true;
                    }
                }
                t += down + prng.exp(link.mean_up.as_nanos().max(1) as f64);
            }
        }
    }

    // Per-step slot capacity factor from the control-plane fault
    // processes (one control plane: global draws, shared by all links).
    let mut slot_factor = vec![1.0f64; steps];
    {
        let mut ctrl_rng = rng.fork();
        if let Some(m) = &plan.misfire {
            for f in slot_factor.iter_mut() {
                if ctrl_rng.bool(m.prob) {
                    *f *= if ctrl_rng.bool(m.stale_frac) {
                        // The stale permutation stays up: roughly half
                        // the slot's useful capacity for shifting demand.
                        0.5
                    } else {
                        1.0 - (m.late.as_nanos() as f64 / epoch_ns as f64).min(1.0)
                    };
                }
            }
        }
        if let Some(st) = &plan.stall {
            let mut coasting = 0u32;
            for f in slot_factor.iter_mut() {
                if coasting > 0 {
                    // Coasting on the previous schedule: fine for steady
                    // demand, lossy for rotating demand.
                    *f *= 0.7;
                    coasting -= 1;
                } else if ctrl_rng.bool(st.prob) {
                    coasting = st.epochs;
                }
            }
        }
    }

    // Column demand fractions per rotation stage.
    let stage_cols: Vec<Vec<f64>> = match &p.cycle {
        Some((_, stages)) => stages.iter().map(TrafficMatrix::col_sums).collect(),
        None => vec![p.matrix.col_sums()],
    };
    let period_ns = p
        .cycle
        .as_ref()
        .map(|(per, _)| per.as_nanos().max(1) as f64)
        .unwrap_or(f64::INFINITY);
    let stage_at = |s: usize| -> usize {
        if stage_cols.len() == 1 {
            0
        } else {
            ((s as f64 * step_ns / period_ns) as usize) % stage_cols.len()
        }
    };

    let site = p.cfg.placement.buffering_site();
    let eps_bps = p.cfg.eps_rate.bytes_per_sec() as f64;
    let eps_quantum_ns = p.cfg.eps_rate.tx_time(p.cfg.mtu as u64).as_nanos() as f64;
    // Unlike the closed form, the mini-sim models the installation
    // transient in the time domain (`first_ocs_step`), so the slot rate
    // here carries only duty and per-destination coverage.
    let mu_ocs = p.cfg.line_rate.bytes_per_sec() as f64 * sched.duty;
    let half_epoch_ns = epoch_ns as f64 * 0.5;
    let eps_share = if p.eps_only {
        1.0
    } else {
        profile.eps_byte_share
    };

    let mut out = Vec::with_capacity(n);
    for d in 0..n {
        let mut lrng = rng.fork();
        let mu_d = mu_ocs * summary.cover(d, p.oblivious);
        let voq_cap = p.cfg.voq_capacity as f64 * summary.in_deg[d] as f64;
        let mut o = LinkOutcome::default();
        let mut b_eps = 0.0f64;
        let mut b_ocs = 0.0f64;
        let mut eps_wait_acc = 0.0f64;
        let mut eps_wait_w = 0.0f64;
        let mut ocs_wait_acc = 0.0f64;
        let mut ocs_wait_w = 0.0f64;
        for s in 0..steps {
            let lambda = agg_bps * stage_cols[stage_at(s)][d];
            let jitter = 1.0 + ARRIVAL_JITTER * (2.0 * lrng.f64() - 1.0);
            let arr = lambda * step_s * jitter;
            o.arrival_bytes += arr;
            let mut arr_eps = arr * eps_share;
            let mut arr_ocs = arr - arr_eps;
            let port_dark = dark[d * steps + s];
            if port_dark && arr_ocs > 0.0 {
                match site {
                    // Fast mode diverts granted bursts onto the EPS…
                    Site::Switch => {
                        o.failover_bytes += arr_ocs;
                        arr_eps += arr_ocs;
                    }
                    // …slow mode loses them to the dark circuit.
                    Site::Host => o.dark_drop_bytes += arr_ocs,
                }
                arr_ocs = 0.0;
            }
            b_eps += arr_eps;
            b_ocs += arr_ocs;
            if arr_eps > 0.0 {
                let w = eps_quantum_ns + b_eps / eps_bps.max(1.0) * 1e9;
                eps_wait_acc += w * arr_eps;
                eps_wait_w += arr_eps;
            }
            if arr_ocs > 0.0 {
                let w = half_epoch_ns + b_ocs / mu_d.max(1.0) * 1e9;
                ocs_wait_acc += w * arr_ocs;
                ocs_wait_w += arr_ocs;
            }
            let served_eps = b_eps.min(eps_bps * step_s);
            b_eps -= served_eps;
            o.eps_delivered += served_eps;
            let ocs_cap = if port_dark || s < first_ocs_step {
                0.0
            } else {
                mu_d * step_s * slot_factor[s]
            };
            let served_ocs = b_ocs.min(ocs_cap);
            b_ocs -= served_ocs;
            o.ocs_delivered += served_ocs;
            if b_eps > p.cfg.eps_buffer as f64 {
                o.eps_drop_bytes += b_eps - p.cfg.eps_buffer as f64;
                b_eps = p.cfg.eps_buffer as f64;
            }
            if site == Site::Switch && b_ocs > voq_cap {
                o.voq_drop_bytes += b_ocs - voq_cap;
                b_ocs = voq_cap;
            }
            o.backlog_bytes = o.backlog_bytes.max(b_eps + b_ocs);
        }
        o.eps_wait_ns = if eps_wait_w > 0.0 {
            eps_wait_acc / eps_wait_w
        } else {
            0.0
        };
        o.ocs_wait_ns = if ocs_wait_w > 0.0 {
            ocs_wait_acc / ocs_wait_w
        } else {
            0.0
        };
        out.push(o);
    }

    let degraded_ns = (degraded.iter().filter(|&&d| d).count() as f64 * step_ns).round() as u64;
    (out, degraded_ns.min(horizon_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xds_core::config::NodeConfig;
    use xds_core::fault::FaultPlan;
    use xds_hw::{HwAlgo, HwSchedulerModel};
    use xds_sim::SimDuration;
    use xds_traffic::FlowSizeDist;

    fn problem(n: usize) -> EstimateProblem {
        let cfg = NodeConfig::fast(
            n,
            SimDuration::from_micros(1),
            HwSchedulerModel::netfpga_sume(HwAlgo::Tdma),
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
            seed: 5,
            faults: Some(FaultPlan::flaky_links()),
            scheduler_name: "tdma".into(),
            entries_per_epoch: 1,
            eps_only: false,
            oblivious: true,
            measured: true,
        }
    }

    fn run(p: &EstimateProblem) -> (Vec<LinkOutcome>, u64) {
        let mut root = SimRng::new(p.seed);
        let _ = root.fork();
        let _ = root.fork();
        let fault_rng = root.fork();
        let profile = SizeProfile::sample(&p.sizes, p.bulk_threshold, &mut SimRng::new(p.seed));
        let sched = ScheduleModel::derive(p);
        let summary = MatrixSummary::scan(&p.matrix);
        let agg = p.load * p.cfg.n_ports as f64 * p.cfg.line_rate.bytes_per_sec() as f64;
        solve_links(p, &sched, &profile, &summary, agg, fault_rng)
    }

    #[test]
    fn flaky_links_open_degraded_time_and_divert_bytes() {
        let p = problem(8);
        let (links, degraded_ns) = run(&p);
        assert!(degraded_ns > 0, "flaky preset must go dark sometimes");
        assert!(degraded_ns <= p.duration.as_nanos());
        let failover: f64 = links.iter().map(|l| l.failover_bytes).sum();
        assert!(failover > 0.0, "fast mode diverts bulk onto the EPS");
        let delivered: f64 = links
            .iter()
            .map(|l| l.eps_delivered + l.ocs_delivered)
            .sum();
        assert!(delivered > 0.0);
    }

    #[test]
    fn mini_sim_is_deterministic() {
        let p = problem(8);
        let (a, da) = run(&p);
        let (b, db) = run(&p);
        assert_eq!(da, db);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_bytes.to_bits(), y.arrival_bytes.to_bits());
            assert_eq!(x.ocs_delivered.to_bits(), y.ocs_delivered.to_bits());
            assert_eq!(x.ocs_wait_ns.to_bits(), y.ocs_wait_ns.to_bits());
        }
    }

    #[test]
    fn fault_free_cycle_has_no_degraded_time() {
        let mut p = problem(8);
        p.faults = None;
        p.cycle = Some((
            SimDuration::from_micros(100),
            TrafficMatrix::shuffle_stages(8),
        ));
        let (links, degraded_ns) = run(&p);
        assert_eq!(degraded_ns, 0);
        assert!(links.iter().all(|l| l.failover_bytes == 0.0));
        assert!(links.iter().any(|l| l.ocs_delivered > 0.0));
    }
}
