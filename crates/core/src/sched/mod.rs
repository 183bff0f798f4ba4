//! Scheduling logic: the pluggable algorithm slot of Figure 2.
//!
//! "The scheduling logic processes the incoming requests, estimates the
//! demand matrix, and runs the scheduling algorithm, generating
//! corresponding transmission grants." A [`Scheduler`] turns a
//! [`DemandMatrix`] into a [`Schedule`] — one or more OCS configurations
//! with slot durations. The runtime executes the schedule: each entry
//! costs one reconfiguration (dark window) before its slot.
//!
//! Shipped algorithms, spanning the design space the framework is meant to
//! explore:
//!
//! | module | algorithm | origin / role |
//! |---|---|---|
//! | [`tdma`] | static rotation | demand-oblivious baseline |
//! | [`islip`] | iSLIP | the canonical hardware crossbar scheduler |
//! | [`pim`] | parallel iterative matching | randomized ancestor of iSLIP |
//! | [`rrm`] | round-robin matching | the stepping stone iSLIP fixes |
//! | [`wavefront`] | wavefront arbiter | systolic hardware matching |
//! | [`greedy`] | greedy LQF maximal matching | ½-approx of max weight |
//! | [`ilqf`] | iterative longest-queue-first | weighted iSLIP sibling |
//! | [`hungarian`] | Hungarian assignment | exact max-weight (software-class) |
//! | [`bvn`] | Birkhoff–von-Neumann / TMS | multi-slot decomposition |
//! | [`solstice`] | Solstice-style greedy | hybrid-aware decomposition |
//! | [`hotspot`] | c-Through-style threshold | day/night hotspot offload |
//! | [`eps_only`] | no circuits | pure-EPS baseline |

pub mod bvn;
pub mod eps_only;
pub mod greedy;
pub mod hotspot;
pub mod hungarian;
pub mod ilqf;
pub mod islip;
pub mod matching;
pub mod pim;
pub mod rrm;
pub mod solstice;
pub mod tdma;
pub mod wavefront;

pub use bvn::BvnScheduler;
pub use eps_only::EpsOnlyScheduler;
pub use greedy::GreedyLqfScheduler;
pub use hotspot::HotspotScheduler;
pub use hungarian::HungarianScheduler;
pub use ilqf::IlqfScheduler;
pub use islip::IslipScheduler;
pub use pim::PimScheduler;
pub use rrm::RrmScheduler;
pub use solstice::SolsticeScheduler;
pub use tdma::TdmaScheduler;
pub use wavefront::WavefrontScheduler;

use xds_hw::HwAlgo;
use xds_sim::{BitRate, SimDuration, SimTime};
use xds_switch::Permutation;

use crate::demand::DemandMatrix;

/// Everything a scheduler may consider besides demand.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleCtx {
    /// Decision time (start of the epoch).
    pub now: SimTime,
    /// OCS per-circuit line rate.
    pub line_rate: BitRate,
    /// OCS reconfiguration (dark) time — each schedule entry pays it once.
    pub reconfig: SimDuration,
    /// Target epoch length: the schedule's reconfigurations + slots should
    /// fill (not exceed) this.
    pub epoch: SimDuration,
    /// Maximum number of entries (configurations) per epoch.
    pub max_entries: usize,
}

impl ScheduleCtx {
    /// Time available for actual transmission if `k` entries are used.
    pub fn usable_time(&self, k: usize) -> SimDuration {
        self.epoch.saturating_sub(self.reconfig * (k as u64))
    }

    /// Bytes one circuit can carry in a slot of length `slot`.
    pub fn slot_bytes(&self, slot: SimDuration) -> u64 {
        self.line_rate.bytes_in(slot)
    }
}

/// One OCS configuration and how long to hold it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The circuit configuration.
    pub perm: Permutation,
    /// Slot duration (transmission time after the dark window).
    pub slot: SimDuration,
}

/// A schedule: the ordered configurations for one epoch. Traffic not
/// covered is residual (EPS) by construction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// The entries, executed in order; each is preceded by one
    /// reconfiguration.
    pub entries: Vec<ScheduleEntry>,
}

impl Schedule {
    /// A schedule with no circuit time (everything rides the EPS).
    pub fn empty() -> Self {
        Schedule::default()
    }

    /// Total wall time the schedule occupies (slots + one reconfiguration
    /// per entry).
    pub fn span(&self, reconfig: SimDuration) -> SimDuration {
        let slots: SimDuration = self
            .entries
            .iter()
            .fold(SimDuration::ZERO, |acc, e| acc + e.slot);
        slots + reconfig * (self.entries.len() as u64)
    }

    /// Checks structural sanity against a context: entry count within
    /// budget, spans within the epoch, permutations well-formed.
    pub fn validate(&self, ctx: &ScheduleCtx, n_ports: usize) -> Result<(), String> {
        if self.entries.len() > ctx.max_entries {
            return Err(format!(
                "{} entries exceed budget {}",
                self.entries.len(),
                ctx.max_entries
            ));
        }
        for (i, e) in self.entries.iter().enumerate() {
            if e.perm.n() != n_ports {
                return Err(format!(
                    "entry {i} has {} ports, switch has {n_ports}",
                    e.perm.n()
                ));
            }
            e.perm.check_invariants()?;
            if e.slot.is_zero() {
                return Err(format!("entry {i} has a zero-length slot"));
            }
        }
        // Tolerance: one reconfig of overshoot, since schedulers round.
        let span = self.span(ctx.reconfig);
        if span > ctx.epoch + ctx.reconfig {
            return Err(format!("span {span} exceeds epoch {}", ctx.epoch));
        }
        Ok(())
    }
}

/// A hybrid-switch scheduler: demand in, circuit schedule out.
pub trait Scheduler: Send {
    /// Short name for tables.
    fn name(&self) -> &'static str;

    /// The hardware cost model entry for this algorithm (drives decision-
    /// latency when placed in hardware).
    fn hw_algo(&self) -> HwAlgo;

    /// Computes the schedule for one epoch.
    fn schedule(&mut self, demand: &DemandMatrix, ctx: &ScheduleCtx) -> Schedule;

    /// Enables wall-clock span capture for subsequent
    /// [`schedule`](Self::schedule) calls (the flight recorder is on).
    /// Counters are
    /// always accumulated; only span capture — which costs `Instant`
    /// reads and allocation — is gated. Schedulers without internal
    /// observability ignore this.
    fn set_trace(&mut self, on: bool) {
        let _ = on;
    }

    /// Drains observability accumulated since the last call (per-epoch
    /// counter deltas plus captured spans). The runtime calls this after
    /// every `schedule()`; the default for schedulers with nothing to
    /// report returns `None`, which costs nothing.
    fn take_obs(&mut self) -> Option<crate::trace::SchedObs> {
        None
    }
}

/// Builds the boolean request matrix (who has demand) used by the RRM,
/// PIM and wavefront matchers.
pub(crate) fn request_matrix(demand: &DemandMatrix) -> Vec<bool> {
    let n = demand.n();
    let mut r = vec![false; n * n];
    for (s, d, _) in demand.iter_nonzero() {
        r[s * n + d] = true;
    }
    r
}

/// Wraps a single matching into a one-entry schedule filling the epoch
/// (the pattern shared by all single-configuration schedulers). An empty
/// matching yields an empty schedule — no point going dark for nothing.
pub(crate) fn single_entry_schedule(perm: Permutation, ctx: &ScheduleCtx) -> Schedule {
    if perm.is_empty() {
        return Schedule::empty();
    }
    let slot = ctx.usable_time(1);
    if slot.is_zero() {
        return Schedule::empty();
    }
    Schedule {
        entries: vec![ScheduleEntry { perm, slot }],
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A default context for scheduler unit tests: 10 Gb/s, 1 µs reconfig,
    /// 100 µs epoch, 8 entries.
    pub fn ctx() -> ScheduleCtx {
        ScheduleCtx {
            now: SimTime::ZERO,
            line_rate: BitRate::GBPS_10,
            reconfig: SimDuration::from_micros(1),
            epoch: SimDuration::from_micros(100),
            max_entries: 8,
        }
    }

    /// Runs the scheduler and validates the output.
    pub fn run_and_validate(
        s: &mut dyn Scheduler,
        demand: &DemandMatrix,
        ctx: &ScheduleCtx,
    ) -> Schedule {
        let sched = s.schedule(demand, ctx);
        sched
            .validate(ctx, demand.n())
            .unwrap_or_else(|e| panic!("{} produced invalid schedule: {e}", s.name()));
        sched
    }

    /// Bytes the schedule could serve for each pair, assuming full-rate
    /// circuits.
    pub fn served_bytes(sched: &Schedule, ctx: &ScheduleCtx, n: usize) -> DemandMatrix {
        let mut m = DemandMatrix::zero(n);
        for e in &sched.entries {
            let bytes = ctx.slot_bytes(e.slot);
            for (i, o) in e.perm.pairs() {
                m.add(i, o, bytes);
            }
        }
        m
    }

    #[test]
    fn schedule_span_accounts_reconfigs() {
        let s = Schedule {
            entries: vec![
                ScheduleEntry {
                    perm: Permutation::identity(2),
                    slot: SimDuration::from_micros(10),
                },
                ScheduleEntry {
                    perm: Permutation::rotation(2, 1),
                    slot: SimDuration::from_micros(20),
                },
            ],
        };
        assert_eq!(
            s.span(SimDuration::from_micros(1)),
            SimDuration::from_micros(32)
        );
    }

    #[test]
    fn validate_rejects_oversized_schedules() {
        let c = ctx();
        let mut entries = Vec::new();
        for _ in 0..9 {
            entries.push(ScheduleEntry {
                perm: Permutation::identity(4),
                slot: SimDuration::from_micros(1),
            });
        }
        let s = Schedule { entries };
        assert!(s.validate(&c, 4).is_err(), "9 entries > budget 8");
    }

    #[test]
    fn validate_rejects_wrong_port_count_and_zero_slots() {
        let c = ctx();
        let s = Schedule {
            entries: vec![ScheduleEntry {
                perm: Permutation::identity(2),
                slot: SimDuration::from_micros(1),
            }],
        };
        assert!(s.validate(&c, 4).is_err());
        let z = Schedule {
            entries: vec![ScheduleEntry {
                perm: Permutation::identity(4),
                slot: SimDuration::ZERO,
            }],
        };
        assert!(z.validate(&c, 4).is_err());
    }

    #[test]
    fn usable_time_subtracts_reconfigs() {
        let c = ctx();
        assert_eq!(c.usable_time(1), SimDuration::from_micros(99));
        assert_eq!(c.usable_time(8), SimDuration::from_micros(92));
        // 10G for 99 µs = 123750 bytes.
        assert_eq!(c.slot_bytes(c.usable_time(1)), 123_750);
    }
}
