//! Seeded, simulation-domain fault injection and the graceful-degradation
//! state the runtime keeps while a plan is armed.
//!
//! A [`FaultPlan`] describes failure *processes*, not failure *events*:
//! the runtime compiles the plan into ordinary stamped events drawn from
//! a dedicated RNG stream forked from the per-run seed. Faulted runs
//! therefore obey the full determinism contract — byte-identical across
//! hosts, sweep thread counts and shard maps — and an unarmed plan costs
//! strictly nothing (no RNG fork, no per-event checks beyond one `Option`
//! test on paths that already branch).
//!
//! Three fault families ship (see the ROADMAP section "Fault injection &
//! degraded mode" for how to add a fourth):
//!
//! * **link failure + repair** ([`LinkFaultSpec`]) — an OCS port goes
//!   dark for a drawn interval. The runtime masks its row/column out of
//!   the demand matrix handed to the scheduler, diverts granted bursts
//!   touching it onto the EPS slow path (fast mode) or drops in-flight
//!   circuit traffic as [`DropCause::LinkDark`] (slow mode), and
//!   restores on repair.
//! * **reconfiguration misfire** ([`MisfireSpec`]) — a slot's configure
//!   applies late, or not at all (the stale permutation stays up for the
//!   slot and every granted pair fails over to the EPS).
//! * **scheduler stall** ([`StallSpec`]) — an epoch's decision arrives
//!   k epochs late. The previous schedule's slots cover one epoch, so
//!   the fabric idles until the late decision lands.
//!
//! Degradation is observed, not just survived: `fault_*` counters in
//! [`xds_metrics::CounterSet`], [`DropCause::LinkDark`] drop tallies and
//! the `fault_degraded_ns` / `fault_failover_bytes` report columns.
//!
//! [`DropCause::LinkDark`]: crate::instrument::DropCause::LinkDark

use xds_sim::{SimDuration, SimRng, SimTime};

use crate::demand::DemandMatrix;

/// A link/port failure process: ports fail at exponentially distributed
/// intervals and stay dark for exponentially distributed outages.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultSpec {
    /// Mean time between failure arrivals (exponential).
    pub mean_up: SimDuration,
    /// Mean outage length before the port repairs (exponential).
    pub mean_down: SimDuration,
}

/// An OCS reconfiguration misfire process, generalizing the `SyncSpec`
/// skew machinery from "hosts mistime the slot" to "the switch itself
/// mistimes the slot".
#[derive(Debug, Clone, PartialEq)]
pub struct MisfireSpec {
    /// Probability that any given slot configure misfires.
    pub prob: f64,
    /// Of the misfires, the fraction that apply the *stale* permutation
    /// for the whole slot (the rest apply late by [`late`](Self::late)).
    pub stale_frac: f64,
    /// Extra configure delay for a late misfire.
    pub late: SimDuration,
}

/// A scheduler stall process: with probability `prob` an epoch's decision
/// arrives `epochs` epochs late. The previous schedule's slots cover one
/// epoch, so the fabric idles (grants nothing) until the late decision
/// lands.
#[derive(Debug, Clone, PartialEq)]
pub struct StallSpec {
    /// Probability that any given epoch's decision stalls.
    pub prob: f64,
    /// How many extra epochs a stalled decision takes.
    pub epochs: u32,
}

/// A deterministic fault-injection plan: which failure processes are
/// armed and with what parameters. The default plan is empty and the
/// runtime treats it exactly like no plan at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Link/port failure + repair process, if armed.
    pub link: Option<LinkFaultSpec>,
    /// Reconfiguration-misfire process, if armed.
    pub misfire: Option<MisfireSpec>,
    /// Scheduler-stall process, if armed.
    pub stall: Option<StallSpec>,
    /// Chaos knob for harness tests: the build panics deliberately so
    /// sweep executors can prove they isolate a panicking point. Never
    /// set by any catalogue entry.
    pub harness_panic: bool,
}

impl FaultPlan {
    /// The empty plan (identical to running with no plan).
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms the link failure + repair process.
    pub fn with_link(mut self, mean_up: SimDuration, mean_down: SimDuration) -> Self {
        self.link = Some(LinkFaultSpec { mean_up, mean_down });
        self
    }

    /// Arms the reconfiguration-misfire process.
    pub fn with_misfire(mut self, prob: f64, stale_frac: f64, late: SimDuration) -> Self {
        self.misfire = Some(MisfireSpec {
            prob,
            stale_frac,
            late,
        });
        self
    }

    /// Arms the scheduler-stall process.
    pub fn with_stall(mut self, prob: f64, epochs: u32) -> Self {
        self.stall = Some(StallSpec { prob, epochs });
        self
    }

    /// Arms the deliberate build-time panic (harness isolation tests
    /// only).
    pub fn with_harness_panic(mut self) -> Self {
        self.harness_panic = true;
        self
    }

    /// Whether any simulation-domain fault family is armed (the harness
    /// panic is not one — it never reaches the simulation).
    pub fn is_active(&self) -> bool {
        self.link.is_some() || self.misfire.is_some() || self.stall.is_some()
    }

    /// A stable, filename-safe label of the armed families, for sweep
    /// tags and the `faults` output column: `"none"`,
    /// `"link"`, `"link+misfire+stall"`, …
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.link.is_some() {
            parts.push("link");
        }
        if self.misfire.is_some() {
            parts.push("misfire");
        }
        if self.stall.is_some() {
            parts.push("stall");
        }
        if self.harness_panic {
            parts.push("panic");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// The `fault-storm` catalogue preset: all three families, tuned so a
    /// millisecond-scale run sees a steady mix of failures, misfires and
    /// stalls.
    pub fn storm() -> Self {
        Self::none()
            .with_link(SimDuration::from_micros(200), SimDuration::from_micros(100))
            .with_misfire(0.2, 0.5, SimDuration::from_micros(2))
            .with_stall(0.1, 2)
    }

    /// The `flaky-links` catalogue preset: link failures only.
    pub fn flaky_links() -> Self {
        Self::none().with_link(SimDuration::from_micros(500), SimDuration::from_micros(150))
    }
}

/// What one slot-configure draw decided (see [`MisfireSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotFault {
    /// The configure applies normally.
    None,
    /// The configure applies late by the carried extra delay.
    Late(SimDuration),
    /// The configure never applies: the stale permutation stays up.
    Stale,
}

/// Runtime fault state: the armed plan, its dedicated RNG stream, the
/// per-port failure flags and the degraded-time ledger. Lives on the
/// coordinator only — shards never see it — so every draw happens in
/// the same order regardless of the shard map.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) rng: SimRng,
    /// Per-port "dark to faults" flags.
    pub(crate) failed: Vec<bool>,
    /// Count of currently failed ports (`failed.iter().filter(|f| **f)`).
    pub(crate) n_failed: usize,
    /// When the fabric last *entered* degraded mode (any port failed).
    pub(crate) degraded_since: Option<SimTime>,
    /// Accumulated degraded-mode time over closed intervals, in
    /// simulated nanoseconds.
    pub(crate) degraded_ns: u64,
    /// Slots whose configure drew [`SlotFault::Stale`], keyed `(sid,
    /// idx)`; consumed by the matching `SlotActive`.
    pub(crate) stale_slots: Vec<(usize, usize)>,
    /// Scratch copy of the demand matrix with failed rows/columns
    /// zeroed, lent to the scheduler while ports are dark.
    mask: DemandMatrix,
}

impl FaultState {
    /// Builds the state for an armed plan over an `n`-port fabric. The
    /// RNG must be a dedicated fork of the per-run build RNG.
    pub(crate) fn new(plan: FaultPlan, rng: SimRng, n: usize) -> Self {
        FaultState {
            plan,
            rng,
            failed: vec![false; n],
            n_failed: 0,
            degraded_since: None,
            degraded_ns: 0,
            stale_slots: Vec::new(),
            mask: DemandMatrix::zero_tracked(n),
        }
    }

    /// Draws an exponential interval with the given mean, clamped to at
    /// least one simulated nanosecond so fault chains always advance.
    fn draw_exp(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
        let ns = rng.exp(mean.as_nanos() as f64);
        SimDuration::from_nanos((ns as u64).max(1))
    }

    /// Time of the first link-fault arrival, if the link family is
    /// armed.
    pub(crate) fn first_fault_at(&mut self) -> Option<SimTime> {
        let link = self.plan.link.clone()?;
        Some(SimTime::ZERO + Self::draw_exp(&mut self.rng, link.mean_up))
    }

    /// Handles a link-fault arrival at `now`: draws the victim port and
    /// outage length, returns `(port, repair_at, next_fault_at)`.
    /// `repair_at` is `None` when the drawn port was already dark (the
    /// arrival is absorbed — no double-failure, no double-repair).
    pub(crate) fn on_link_fault(
        &mut self,
        now: SimTime,
    ) -> (usize, Option<SimTime>, Option<SimTime>) {
        let link = self.plan.link.clone().expect("link family armed");
        let port = self.rng.below_usize(self.failed.len());
        let down = Self::draw_exp(&mut self.rng, link.mean_down);
        let repair_at = if self.failed[port] {
            None
        } else {
            self.failed[port] = true;
            if self.n_failed == 0 {
                self.degraded_since = Some(now);
            }
            self.n_failed += 1;
            Some(now + down)
        };
        let next = now + Self::draw_exp(&mut self.rng, link.mean_up);
        (port, repair_at, Some(next))
    }

    /// Handles a link repair at `now`: clears the flag and closes the
    /// degraded interval when the last dark port comes back.
    pub(crate) fn on_link_repair(&mut self, port: usize, now: SimTime) {
        debug_assert!(self.failed[port], "repair for a port that is not dark");
        self.failed[port] = false;
        self.n_failed -= 1;
        if self.n_failed == 0 {
            if let Some(since) = self.degraded_since.take() {
                self.degraded_ns += now.saturating_since(since).as_nanos();
            }
        }
    }

    /// Closes a still-open degraded interval at end of run and returns
    /// the total degraded time.
    pub(crate) fn finalize_degraded_ns(&mut self, end: SimTime) -> u64 {
        if let Some(since) = self.degraded_since.take() {
            self.degraded_ns += end.saturating_since(since).as_nanos();
        }
        self.degraded_ns
    }

    /// True when either endpoint of the pair is dark.
    pub(crate) fn pair_failed(&self, i: usize, j: usize) -> bool {
        self.failed[i] || self.failed[j]
    }

    /// Lends a copy of `demand` with every failed port's row and column
    /// zeroed — the scheduler never plans circuits through dark ports.
    pub(crate) fn mask_demand(&mut self, demand: &DemandMatrix) -> &DemandMatrix {
        self.mask.copy_from(demand);
        let n = self.failed.len();
        for p in 0..n {
            if self.failed[p] {
                for x in 0..n {
                    self.mask.set(p, x, 0);
                    self.mask.set(x, p, 0);
                }
            }
        }
        &self.mask
    }

    /// Draws the misfire outcome for one slot configure.
    pub(crate) fn draw_misfire(&mut self) -> SlotFault {
        let Some(m) = self.plan.misfire.clone() else {
            return SlotFault::None;
        };
        if !self.rng.bool(m.prob) {
            return SlotFault::None;
        }
        if self.rng.bool(m.stale_frac) {
            SlotFault::Stale
        } else {
            SlotFault::Late(m.late)
        }
    }

    /// Draws the stall outcome for one epoch: extra decision latency, if
    /// the stall family is armed and this epoch stalls.
    pub(crate) fn draw_stall(&mut self, epoch: SimDuration) -> Option<SimDuration> {
        let s = self.plan.stall.clone()?;
        if !self.rng.bool(s.prob) {
            return None;
        }
        let mut extra = SimDuration::ZERO;
        for _ in 0..s.epochs {
            extra += epoch;
        }
        Some(extra)
    }

    /// Marks a slot as stale (its configure never applied).
    pub(crate) fn mark_stale(&mut self, sid: usize, idx: usize) {
        self.stale_slots.push((sid, idx));
    }

    /// Consumes the stale marker for a slot, returning whether it was
    /// set.
    pub(crate) fn take_stale(&mut self, sid: usize, idx: usize) -> bool {
        if let Some(pos) = self.stale_slots.iter().position(|&s| s == (sid, idx)) {
            self.stale_slots.swap_remove(pos);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inactive_and_labelled_none() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p.label(), "none");
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn labels_join_armed_families_in_stable_order() {
        assert_eq!(FaultPlan::flaky_links().label(), "link");
        assert_eq!(FaultPlan::storm().label(), "link+misfire+stall");
        let p = FaultPlan::none().with_stall(0.5, 1).with_misfire(
            0.1,
            0.5,
            SimDuration::from_micros(1),
        );
        assert_eq!(p.label(), "misfire+stall");
        assert_eq!(FaultPlan::none().with_harness_panic().label(), "panic");
    }

    #[test]
    fn harness_panic_alone_is_not_simulation_active() {
        let p = FaultPlan::none().with_harness_panic();
        assert!(!p.is_active());
        assert!(FaultPlan::storm().is_active());
    }

    #[test]
    fn link_fault_chain_tracks_degraded_intervals() {
        let mut fs = FaultState::new(FaultPlan::flaky_links(), SimRng::new(7), 8);
        let t0 = fs.first_fault_at().expect("link family armed");
        assert!(t0 > SimTime::ZERO);
        let (port, repair, next) = fs.on_link_fault(t0);
        assert!(port < 8);
        let repair = repair.expect("fresh port fails");
        assert!(repair > t0);
        assert!(next.expect("chain continues") > t0);
        assert!(fs.failed[port]);
        assert_eq!(fs.n_failed, 1);
        assert!(fs.pair_failed(port, (port + 1) % 8));
        assert!(!fs.pair_failed((port + 1) % 8, (port + 2) % 8));
        fs.on_link_repair(port, repair);
        assert_eq!(fs.n_failed, 0);
        assert_eq!(
            fs.degraded_ns,
            repair.saturating_since(t0).as_nanos(),
            "closed interval is accounted exactly"
        );
        // A still-open interval is closed by finalize.
        let (p2, r2, _) = fs.on_link_fault(repair);
        assert!(r2.is_some());
        let end = repair + SimDuration::from_micros(50);
        let total = fs.finalize_degraded_ns(end);
        assert_eq!(
            total,
            repair.saturating_since(t0).as_nanos() + end.saturating_since(repair).as_nanos()
        );
        let _ = p2;
    }

    #[test]
    fn mask_zeroes_failed_rows_and_columns() {
        let mut fs = FaultState::new(FaultPlan::flaky_links(), SimRng::new(3), 4);
        let mut d = DemandMatrix::zero(4);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    d.set(i, j, 100);
                }
            }
        }
        fs.failed[2] = true;
        fs.n_failed = 1;
        let m = fs.mask_demand(&d);
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j || i == 2 || j == 2 { 0 } else { 100 };
                assert_eq!(m.get(i, j), want, "cell ({i},{j})");
            }
        }
        // The original is untouched.
        assert_eq!(d.get(2, 1), 100);
    }

    #[test]
    fn misfire_and_stall_draws_follow_their_probabilities() {
        let mut fs = FaultState::new(
            FaultPlan::none().with_misfire(1.0, 1.0, SimDuration::from_micros(2)),
            SimRng::new(9),
            4,
        );
        assert_eq!(fs.draw_misfire(), SlotFault::Stale);
        let mut fs = FaultState::new(
            FaultPlan::none().with_misfire(1.0, 0.0, SimDuration::from_micros(2)),
            SimRng::new(9),
            4,
        );
        assert_eq!(
            fs.draw_misfire(),
            SlotFault::Late(SimDuration::from_micros(2))
        );
        let mut fs = FaultState::new(FaultPlan::none().with_stall(1.0, 3), SimRng::new(9), 4);
        assert_eq!(
            fs.draw_stall(SimDuration::from_micros(10)),
            Some(SimDuration::from_micros(30))
        );
        let mut fs = FaultState::new(FaultPlan::flaky_links(), SimRng::new(9), 4);
        assert_eq!(fs.draw_misfire(), SlotFault::None, "family not armed");
        assert_eq!(fs.draw_stall(SimDuration::from_micros(10)), None);
    }

    #[test]
    fn stale_markers_are_consumed_once() {
        let mut fs = FaultState::new(FaultPlan::storm(), SimRng::new(1), 4);
        fs.mark_stale(3, 1);
        assert!(!fs.take_stale(3, 0));
        assert!(fs.take_stale(3, 1));
        assert!(!fs.take_stale(3, 1), "marker is consumed");
    }
}
