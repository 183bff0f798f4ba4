//! The assembled testbed: an event-driven simulation of hosts, the hybrid
//! ToR switch and the scheduler.
//!
//! Data path (fast scheduling / hardware placement):
//! host NIC → switch ingress → {EPS (interactive/short) | VOQ (bulk)} →
//! grants drain VOQs onto configured circuits → destination host.
//!
//! Data path (slow scheduling / software placement):
//! bulk waits in *host* memory, a whole flow per entry in the owning
//! shard's VOQ bank; grants travel the control channel; hosts transmit
//! into their (clock-skew-shifted) view of the slot; packets that hit a
//! dark or re-assigned circuit are synchronization violations.
//!
//! Both placements queue gated bytes in the same VOQ bank
//! ([`ProcessingLogic`]); placement decides only when bytes enter it (a
//! flow at injection, or a packet at switch arrival), which buffer site
//! books them, and who cuts them (the host against its clock, or the
//! slot's activation).
//!
//! There is one event loop, shaped like the paper's switch: a
//! **coordinator** owns the central scheduler, the estimator, the OCS/EPS,
//! the run's recorder and the buffer tracker, and **K port-group
//! shards** own the hosts and the VOQ banks (the `shard` child module
//! runs it). A build without [`SimBuilder::shards`] is K = 1: one
//! shard owning every port. This module holds the coordinator's state,
//! its events and the end-of-run report, plus the builder. Every handler
//! is a match arm over a private event enum (no interior mutability).
//!
//! Metric recording is **not** inlined here: the runtime hands flow
//! starts, delivered packets and per-epoch [`EpochSample`]s to the
//! [`Instrumentation`] the simulation was built with (see
//! [`crate::instrument`]), so observables grow without touching the hot
//! path, and tallies drops by cause in its always-on [`CounterSet`].
//! Simulations are assembled with [`SimBuilder`], which returns a typed
//! [`BuildError`] instead of panicking on bad input.

use xds_net::{Packet, TrafficClass};
use xds_sim::{EventQueue, SimDuration, SimRng, SimTime, TxTimeCache};
use xds_switch::{BufferTracker, Site};
use xds_traffic::FlowSpec;

use crate::config::{NodeConfig, Placement};
use crate::demand::{DemandEstimator, DemandMatrix, MirrorEstimator, SchedRequest};
use crate::fault::{FaultPlan, FaultState, SlotFault};
use crate::instrument::{DropCause, EpochSample, InstrProfile, Instrumentation, APP_FLOW_BASE};
use crate::node::Workload;
use crate::pool::{byte_budget, Fifo, Pool, Staged};
use crate::processing::ProcessingLogic;
use crate::report::{DropStats, EpochPhaseNs, RunReport};
use crate::sched::{Schedule, ScheduleCtx, Scheduler};
use crate::switching::SwitchingLogic;
use crate::trace::TraceRecorder;
use xds_metrics::CounterSet;

/// The event loop: coordinator barriers and port-group shard windows
/// (child module, so it shares this module's private types).
#[path = "shard.rs"]
mod shard;
pub use shard::ShardMap;

/// Coordinator events: the ones whose handlers read or write state shared
/// across port groups (scheduler, OCS/EPS, recorder, RNG). Shard-local
/// events are the shard module's own enum.
///
/// Deliberately **not** `Clone`: nothing on the hot path may copy an
/// event's payload. Schedules in particular live once in the runtime's
/// slab ([`SimState::scheds`]) and travel through the queue as a plain
/// `(sid, idx)` pair — the compiler proves no event handler duplicates
/// them.
#[derive(Debug)]
enum Ev {
    /// An interactive app emits its next packet.
    AppSend { app: usize },
    /// Scheduler epoch boundary: estimate demand, compute a schedule.
    EpochStart,
    /// The computed schedule (slab id `sid`) arrives (decision latency
    /// elapsed).
    ApplySchedule { sid: usize },
    /// Configure entry `idx` of schedule `sid` (OCS goes dark).
    SlotConfigure { sid: usize, idx: usize },
    /// Entry `idx` of schedule `sid` circuits are live: move granted
    /// traffic. The last entry's activation retires the slab slot.
    SlotActive { sid: usize, idx: usize },
    /// Rotate the workload's traffic matrix (E6's moving hotspot).
    RotateMatrix { idx: usize },
    /// A link-fault arrival from the armed [`FaultPlan`]: draw a victim
    /// port, mark it dark, chain the next arrival.
    LinkFault,
    /// A previously failed port repairs.
    LinkRepair { port: usize },
}

/// Per-host state: the NIC, its staging queues and the host's clock.
/// The pump path (once per packet) touches `nic_busy_until`,
/// `pump_active` and the staging-queue headers, so those lead the
/// struct and share a cache line.
///
/// Staged flows live in the owning shard's host [`Pool`]: the staging
/// queues are 12-byte intrusive FIFO headers over [`Staged`] entries, one
/// per flow (or app send) rather than one per packet, and the shard's
/// hosts recycle entries through one free list. Under software placement
/// the flows that wait for grants sit in the shard's VOQ bank instead.
#[derive(Debug)]
struct Host {
    nic_busy_until: SimTime,
    pump_active: bool,
    /// Staging queues toward the NIC, strict priority order.
    q_inter: Fifo,
    q_short: Fifo,
    q_bulk: Fifo,
    /// Clock offset vs the switch in signed nanoseconds (slow mode).
    clock_offset_ns: i64,
}

impl Host {
    fn new() -> Self {
        Host {
            q_inter: Fifo::new(),
            q_short: Fifo::new(),
            q_bulk: Fifo::new(),
            pump_active: false,
            nic_busy_until: SimTime::ZERO,
            clock_offset_ns: 0,
        }
    }

    /// The staging queue for `class`.
    fn staging(&mut self, class: TrafficClass) -> &mut Fifo {
        match class {
            TrafficClass::Interactive => &mut self.q_inter,
            TrafficClass::Short => &mut self.q_short,
            TrafficClass::Bulk => &mut self.q_bulk,
        }
    }

    /// The staging queue the NIC sends from next: the first non-empty one
    /// in strict priority order (the bulk queue when all are empty).
    fn next_queue(&mut self) -> &mut Fifo {
        if !self.q_inter.is_empty() {
            &mut self.q_inter
        } else if !self.q_short.is_empty() {
            &mut self.q_short
        } else {
            &mut self.q_bulk
        }
    }

    /// The actual (switch-clock) instant at which this host's clock reads
    /// the given switch-time `t`: a host whose clock runs ahead acts
    /// early.
    fn actual_time(&self, t: SimTime) -> SimTime {
        let off = self.clock_offset_ns;
        if off >= 0 {
            SimTime::from_nanos(t.as_nanos().saturating_sub(off as u64))
        } else {
            t + SimDuration::from_nanos(off.unsigned_abs())
        }
    }
}

/// The coordinator's state: everything the shards do not own.
struct SimState {
    cfg: NodeConfig,
    horizon: SimTime,
    is_hw: bool,
    ctrl_oneway: SimDuration,

    scheduler: Box<dyn Scheduler>,
    estimator: Box<dyn DemandEstimator>,

    flowgen: Option<xds_traffic::FlowGenerator>,
    pending_flow: Option<FlowSpec>,
    flow_stop: SimTime,
    apps: Vec<xds_traffic::CbrApp>,
    matrix_cycle: Option<crate::node::MatrixCycle>,

    switching: SwitchingLogic,
    buffers: BufferTracker,
    rng: SimRng,

    /// Fault-injection state, present only when the build armed a
    /// [`FaultPlan`] with at least one simulation-domain family. `None`
    /// means strictly zero cost: no RNG fork at build, no draws, no
    /// extra events — the no-fault event sequence is byte-identical to
    /// a build that predates the fault subsystem.
    faults: Option<FaultState>,

    /// Whether the estimator provably mirrors true occupancy (resolved
    /// once at construction): the epoch loop then skips the ground-truth
    /// snapshot and L1 pass — the error sample is identically zero.
    estimator_is_mirror: bool,

    /// Slab of in-flight schedules: events carry `(sid, idx)` instead of
    /// cloning the schedule through the queue. A slot is allocated when a
    /// decision lands, freed after its last entry's activation; freed ids
    /// are recycled so the slab stays as small as the number of schedules
    /// simultaneously in flight (≥ 2 only when decision latency overlaps
    /// the next epoch).
    scheds: Vec<Option<Schedule>>,
    free_scheds: Vec<usize>,

    /// One-entry serialization memo for the OCS circuit rate: packet
    /// streams repeat the MTU size, so grant bursts skip a division per
    /// packet.
    line_tx: TxTimeCache,

    // Epoch-loop scratch buffers, reused so the per-epoch path performs
    // no `n²`-sized allocations.
    demand_scratch: DemandMatrix,
    truth_scratch: DemandMatrix,
    reqs_scratch: Vec<SchedRequest>,
    grant_scratch: Vec<Packet>,
    /// `(release_ns, bytes)` pairs collected across one slot's grant
    /// bursts and flushed to the buffer tracker in one batch: the pairs
    /// of a slot serialize near-identical MTU ladders from the same
    /// instant, so their releases coalesce by timestamp before touching
    /// the radix queue (at 256 ports the per-packet inserts and their
    /// drain traffic were ~8% of the point).
    release_scratch: Vec<(u64, u64)>,

    // Core accounting the runtime always keeps exact, under every
    // instrumentation profile: these O(1) adds define the run's identity
    // (events and delivered bytes must match across profiles).
    offered_bytes: u64,
    offered_flows: u64,
    delivered_ocs: u64,
    delivered_eps: u64,
    decisions: u64,
    decision_ns_sum: u128,

    /// The run's recorder (see `crate::instrument`).
    instr: Instrumentation,
    /// Whether the run is observed (false under `lean`), resolved once
    /// at build: it gates delivery recording, buffer-peak accounting
    /// (the radix release queue) and the non-mirror demand-error pass.
    observed: bool,
    /// Whether the running handler has recorded an observed delivery
    /// that [`flush_deliveries`](Self::flush_deliveries) has not closed.
    delivery_group_open: bool,

    /// Wall-clock split of the epoch path (estimate / decompose /
    /// apply), accumulated with `Instant` around the three phases. The
    /// clock is read a handful of times per *epoch* (not per event), so
    /// the instrumentation is invisible next to the phases it measures.
    phases: EpochPhaseNs,

    /// Deterministic internal counters, merged from the scheduler's
    /// per-epoch observability deltas as the run goes and from the
    /// event queues' and pools' ledgers at the end. Plain u64 adds,
    /// always on.
    counters: CounterSet,
    /// The flight recorder, present only when the build requested
    /// tracing. Span recording reuses the phase-accounting `Instant`s
    /// the runtime reads anyway, so `None` means strictly zero extra
    /// clock reads on the hot path.
    trace: Option<TraceRecorder>,
}

impl SimState {
    fn gated(&self, class: TrafficClass) -> bool {
        class == TrafficClass::Bulk || (self.cfg.voip_on_ocs && class == TrafficClass::Interactive)
    }

    /// Observes a delivery (latency, jitter, FCT) when the run is
    /// observed. The caller books the bytes: those counters are
    /// profile-invariant.
    fn record_delivery(&mut self, pkt: &Packet, at: SimTime) {
        if self.observed {
            self.instr.delivered(pkt, at);
            self.delivery_group_open = true;
        }
    }

    /// Closes the handler's delivery group: `delivery_batches` counts
    /// one per handler that recorded an observed delivery.
    fn flush_deliveries(&mut self) {
        if std::mem::take(&mut self.delivery_group_open) {
            self.counters.delivery_batches += 1;
        }
    }

    /// Parks a freshly-decided schedule in the slab, returning its id.
    fn alloc_sched(&mut self, sched: Schedule) -> usize {
        match self.free_scheds.pop() {
            Some(sid) => {
                debug_assert!(self.scheds[sid].is_none(), "slab slot still live");
                self.scheds[sid] = Some(sched);
                sid
            }
            None => {
                self.scheds.push(Some(sched));
                self.scheds.len() - 1
            }
        }
    }
}

/// Why a simulation could not be assembled. Returned (typed, never
/// panicked) by [`SimBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The configuration failed [`NodeConfig::validate`].
    InvalidConfig(String),
    /// The workload's traffic matrix spans a different port space than
    /// the switch.
    PortSpaceMismatch {
        /// Port count of the workload's traffic matrix.
        workload_ports: usize,
        /// Port count of the switch configuration.
        switch_ports: usize,
    },
    /// An interactive app names an endpoint outside the switch's ports.
    AppEndpointOutOfRange {
        /// Index of the offending app in the workload.
        app: usize,
        /// The app's source port.
        src: usize,
        /// The app's destination port.
        dst: usize,
        /// Port count of the switch configuration.
        switch_ports: usize,
    },
    /// No scheduler was supplied to the builder.
    MissingScheduler,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            BuildError::PortSpaceMismatch {
                workload_ports,
                switch_ports,
            } => write!(
                f,
                "workload port count mismatch: workload spans {workload_ports} ports, \
                 switch has {switch_ports}"
            ),
            BuildError::AppEndpointOutOfRange {
                app,
                src,
                dst,
                switch_ports,
            } => write!(
                f,
                "app endpoints out of range: app {app} uses {src} -> {dst} on a \
                 {switch_ports}-port switch"
            ),
            BuildError::MissingScheduler => {
                write!(f, "no scheduler supplied (SimBuilder::scheduler)")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Assembles a [`HybridSim`]: configuration, workload, scheduling logic
/// and an [`Instrumentation`], validated into a typed
/// [`BuildError`] instead of a panic.
///
/// ```
/// use xds_core::config::NodeConfig;
/// use xds_core::runtime::SimBuilder;
/// use xds_core::sched::IslipScheduler;
/// use xds_hw::{HwAlgo, HwSchedulerModel};
/// use xds_sim::SimDuration;
///
/// let n = 4;
/// let cfg = NodeConfig::fast(
///     n,
///     SimDuration::from_nanos(100),
///     HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 }),
/// );
/// let sim = SimBuilder::new(cfg)
///     .scheduler(Box::new(IslipScheduler::new(n, 3)))
///     .build()
///     .expect("valid configuration");
/// # let _ = sim;
/// ```
pub struct SimBuilder {
    cfg: NodeConfig,
    workload: Workload,
    scheduler: Option<Box<dyn Scheduler>>,
    estimator: Option<Box<dyn DemandEstimator>>,
    /// `None` until [`instrumentation`](Self::instrumentation) is called:
    /// `build` makes the `full` profile's recorder only if none was set.
    instr: Option<Instrumentation>,
    trace: bool,
    shards: usize,
    shard_map: Option<ShardMap>,
    faults: Option<FaultPlan>,
}

impl SimBuilder {
    /// Starts a build from a configuration. Defaults: an empty workload,
    /// a [`MirrorEstimator`] sized to the switch, full-fidelity
    /// instrumentation, and **no scheduler** (one must be supplied).
    pub fn new(cfg: NodeConfig) -> Self {
        SimBuilder {
            cfg,
            workload: Workload::apps_only(Vec::new()),
            scheduler: None,
            estimator: None,
            instr: None,
            trace: false,
            shards: 1,
            shard_map: None,
            faults: None,
        }
    }

    /// Arms a fault-injection plan (defaults to none). An inactive plan
    /// (no family armed) is treated exactly like no plan: the build
    /// forks no fault RNG and the event sequence is unchanged.
    pub fn faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Splits the fabric into `k` contiguous port-group shards (defaults
    /// to 1: one shard owning every port). Every `k` reproduces K = 1's
    /// events, bytes and behavioral counters exactly (see
    /// [`crate::runtime::ShardMap`] and the shard module docs for the
    /// determinism contract); only the per-shard queue/pool ledgers move.
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Supplies an explicit port→shard assignment instead of the
    /// contiguous default split (overrides [`shards`](Self::shards)).
    pub fn shard_map(mut self, map: ShardMap) -> Self {
        self.shard_map = Some(map);
        self
    }

    /// Sets the workload (background flows + interactive apps).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the scheduling algorithm (required).
    pub fn scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets the demand estimator (defaults to the exact occupancy
    /// mirror).
    pub fn estimator(mut self, estimator: Box<dyn DemandEstimator>) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Sets the run's recorder (defaults to the `full` profile's; see
    /// [`InstrProfile::instrumentation`]).
    pub fn instrumentation(mut self, instr: Instrumentation) -> Self {
        self.instr = Some(instr);
        self
    }

    /// Enables the flight recorder (defaults to off). When on, the run
    /// captures wall-clock spans for the epoch phases, scheduler
    /// internals and slot grant bursts, and the report carries their
    /// Chrome Trace Event JSON in
    /// [`RunReport::chrome_trace`](crate::report::RunReport::chrome_trace).
    /// When off, no recorder exists and the hot path performs no extra
    /// clock reads or allocations — simulated behavior is identical
    /// either way.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Validates and assembles the simulation.
    pub fn build(self) -> Result<HybridSim, BuildError> {
        let SimBuilder {
            cfg,
            workload,
            scheduler,
            estimator,
            instr,
            trace,
            shards,
            shard_map,
            faults,
        } = self;
        cfg.validate().map_err(BuildError::InvalidConfig)?;
        let n = cfg.n_ports;
        let shard_map = match shard_map {
            Some(m) => {
                if m.ports() != n {
                    return Err(BuildError::InvalidConfig(format!(
                        "shard map covers {} ports, switch has {n}",
                        m.ports()
                    )));
                }
                m
            }
            None => ShardMap::contiguous(n, shards),
        };
        if let Some(g) = &workload.flows {
            if g.matrix().n() != n {
                return Err(BuildError::PortSpaceMismatch {
                    workload_ports: g.matrix().n(),
                    switch_ports: n,
                });
            }
        }
        for (i, a) in workload.apps.iter().enumerate() {
            if a.src.index() >= n || a.dst.index() >= n {
                return Err(BuildError::AppEndpointOutOfRange {
                    app: i,
                    src: a.src.index(),
                    dst: a.dst.index(),
                    switch_ports: n,
                });
            }
        }
        let mut scheduler = scheduler.ok_or(BuildError::MissingScheduler)?;
        if trace {
            scheduler.set_trace(true);
        }
        let estimator = estimator.unwrap_or_else(|| Box::new(MirrorEstimator::new(n)));

        let mut rng = SimRng::new(cfg.seed);
        let (is_hw, ctrl_oneway) = match &cfg.placement {
            Placement::Hardware(_) => (true, SimDuration::ZERO),
            Placement::Software { ctrl_oneway, .. } => (false, *ctrl_oneway),
        };
        // Hosts are built in global port order (the clock-offset draws
        // below fix that order); `run` hands each to its shard.
        let mut hosts: Vec<Host> = (0..n).map(|_| Host::new()).collect();
        if let Placement::Software { sync, .. } = &cfg.placement {
            let mut sync_rng = rng.fork();
            for h in &mut hosts {
                h.clock_offset_ns = sync.sample_offset_ns(&mut sync_rng);
            }
        }
        if let Some(p) = &faults {
            if p.harness_panic {
                // Chaos knob for sweep-harness isolation tests: a
                // deliberate, deterministic panic inside the build path.
                panic!("deliberate fault-plan harness panic (FaultPlan::with_harness_panic)");
            }
        }
        // The fault RNG forks only when a plan is armed, so the no-fault
        // RNG streams (and therefore every golden trace) are untouched.
        let faults = faults
            .filter(|p| p.is_active())
            .map(|p| FaultState::new(p, rng.fork(), n));
        let estimator_is_mirror = estimator.mirrors_occupancy();
        let instr = instr.unwrap_or_else(|| InstrProfile::Full.instrumentation());
        let state = SimState {
            switching: SwitchingLogic::new(n, cfg.reconfig, cfg.eps_rate, cfg.eps_buffer),
            buffers: BufferTracker::new(),
            horizon: SimTime::MAX,
            is_hw,
            ctrl_oneway,
            scheduler,
            estimator,
            flowgen: workload.flows,
            pending_flow: None,
            flow_stop: workload.flow_stop,
            apps: workload.apps,
            matrix_cycle: workload.matrix_cycle,
            rng,
            faults,
            estimator_is_mirror,
            scheds: Vec::new(),
            free_scheds: Vec::new(),
            line_tx: cfg.line_rate.tx_cache(),
            // Tracked: estimators with exact zero cells clear and fill
            // it by worklist, and sparse-aware schedulers read the
            // support instead of re-scanning n² cells per epoch.
            demand_scratch: DemandMatrix::zero_tracked(n),
            truth_scratch: DemandMatrix::zero(n),
            reqs_scratch: Vec::new(),
            grant_scratch: Vec::new(),
            release_scratch: Vec::new(),
            offered_bytes: 0,
            offered_flows: 0,
            delivered_ocs: 0,
            delivered_eps: 0,
            decisions: 0,
            decision_ns_sum: 0,
            observed: instr.observes(),
            instr,
            delivery_group_open: false,
            phases: EpochPhaseNs::default(),
            counters: CounterSet::default(),
            trace: trace.then(TraceRecorder::new),
            cfg,
        };
        Ok(HybridSim {
            state,
            hosts,
            shard_map,
        })
    }
}

/// The assembled simulation: configuration + workload + scheduling logic.
pub struct HybridSim {
    state: SimState,
    /// Every host in global port order; `run` partitions them into their
    /// shards.
    hosts: Vec<Host>,
    shard_map: ShardMap,
}

impl HybridSim {
    /// Starts a [`SimBuilder`] from a configuration.
    pub fn builder(cfg: NodeConfig) -> SimBuilder {
        SimBuilder::new(cfg)
    }

    /// Runs the testbed until `horizon` and returns the report. With
    /// more than one shard, windows run on worker threads (at most one
    /// per CPU) when the machine has more than one CPU, inline otherwise;
    /// results are identical either way.
    pub fn run(self, horizon: SimTime) -> RunReport {
        let workers = shard::default_workers(self.shard_map.k());
        shard::run_sharded(self, horizon, workers)
    }
}

impl SimState {
    /// Report assembly (the caller audits the shards' pools and folds
    /// their queue/pool ledgers into `counters` first).
    fn into_report(self, events: u64, end_time: SimTime, horizon: SimTime) -> RunReport {
        let mut st = self;
        debug_assert!(
            !st.delivery_group_open,
            "every handler closes its delivery group"
        );
        let (delivery, demand_error_mean, timeseries) = st.instr.finish(st.apps.len());
        // Close a still-open degraded interval at the run boundary and
        // harvest it into the counter registry.
        let fault_degraded_ns = match &mut st.faults {
            Some(fs) => fs.finalize_degraded_ns(end_time.max(horizon)),
            None => 0,
        };
        st.counters.fault_degraded_ns_max =
            st.counters.fault_degraded_ns_max.max(fault_degraded_ns);
        // The counters are the one drop ledger; the report's view is
        // derived from them.
        let drops = DropStats {
            voq_full: st.counters.drop_voq_full,
            eps_full: st.counters.drop_eps_full,
            sync_violation: st.counters.drop_sync_violation,
            link_dark: st.counters.drop_link_dark,
        };
        RunReport {
            scheduler: st.scheduler.name().to_string(),
            placement: st.cfg.placement.label().to_string(),
            horizon: end_time
                .saturating_since(SimTime::ZERO)
                .max(horizon.saturating_since(SimTime::ZERO)),
            events,
            offered_bytes: st.offered_bytes,
            offered_flows: st.offered_flows,
            completed_flows: delivery.completed_flows,
            delivered_ocs_bytes: st.delivered_ocs,
            delivered_eps_bytes: st.delivered_eps,
            latency_interactive: delivery.latency_interactive,
            latency_short: delivery.latency_short,
            latency_bulk: delivery.latency_bulk,
            voip_jitter_mean_ns: delivery.voip_jitter_mean_ns,
            voip_jitter_max_ns: delivery.voip_jitter_max_ns,
            fct_mice: delivery.fct_mice,
            fct_medium: delivery.fct_medium,
            fct_elephant: delivery.fct_elephant,
            fct_overall: delivery.fct_overall,
            peak_host_buffer: st.buffers.peak(Site::Host),
            peak_switch_buffer: st.buffers.peak(Site::Switch),
            drops,
            ocs: st.switching.ocs.stats(),
            eps: st.switching.eps.stats(),
            decisions: st.decisions,
            decision_latency_mean_ns: if st.decisions == 0 {
                0.0
            } else {
                st.decision_ns_sum as f64 / st.decisions as f64
            },
            demand_error_mean,
            fault_degraded_ns,
            fault_failover_bytes: st.counters.fault_failover_bytes,
            phases: st.phases,
            timeseries,
            counters: st.counters,
            chrome_trace: st.trace.map(|t| t.to_chrome_json()),
            measured: st.observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::MirrorEstimator;
    use crate::sched::{EpsOnlyScheduler, HotspotScheduler, IslipScheduler};
    use std::collections::VecDeque;
    use xds_hw::{HwAlgo, HwSchedulerModel, SwSchedulerModel};
    use xds_net::PortNo;
    use xds_sim::BitRate;
    use xds_traffic::{CbrApp, FlowGenerator, FlowSizeDist, TrafficMatrix};

    /// Test shorthand over [`SimBuilder`] (the positional shape the old
    /// constructor had).
    fn sim(
        cfg: NodeConfig,
        workload: Workload,
        scheduler: Box<dyn Scheduler>,
        estimator: Box<dyn DemandEstimator>,
    ) -> HybridSim {
        SimBuilder::new(cfg)
            .workload(workload)
            .scheduler(scheduler)
            .estimator(estimator)
            .build()
            .expect("test sim must build")
    }

    fn hw_cfg(n: usize) -> NodeConfig {
        NodeConfig::fast(
            n,
            SimDuration::from_nanos(100),
            HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 }),
        )
    }

    fn flows(n: usize, load: f64, seed: u64) -> Workload {
        Workload::flows(FlowGenerator::with_load(
            TrafficMatrix::uniform(n),
            FlowSizeDist::Fixed(150_000), // bulk-class flows
            load,
            BitRate::GBPS_10,
            SimRng::new(seed),
        ))
    }

    fn run_fast(n: usize, load: f64, ms: u64) -> RunReport {
        let cfg = hw_cfg(n);
        sim(
            cfg,
            flows(n, load, 7),
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(ms))
    }

    const MTU: u32 = 1500;

    /// Flow sizes around every packetization edge: none, one byte, just
    /// under/at/over one MTU, and several MTUs plus a tail.
    const EDGE_SIZES: [u64; 6] = [
        0,
        1,
        MTU as u64 - 1,
        MTU as u64,
        MTU as u64 + 1,
        7 * 1500 + 3,
    ];

    /// Eager packetization of one flow: the reference the staged cuts
    /// must reproduce.
    fn eager(id: u64, class: TrafficClass, bytes: u64, created: SimTime) -> Vec<Packet> {
        xds_traffic::packet_sizes(bytes, MTU)
            .enumerate()
            .map(|(seq, size)| {
                Packet::new(id, PortNo(1), PortNo(2), size, class, created, seq as u32)
            })
            .collect()
    }

    #[test]
    fn staging_cuts_the_packets_eager_packetization_made() {
        let classes = [
            TrafficClass::Bulk,
            TrafficClass::Interactive,
            TrafficClass::Short,
        ];
        let mut pool = Pool::new();
        let mut host = Host::new();
        // One queue per class, popped in strict priority like the NIC.
        let mut want: [VecDeque<Packet>; 3] = Default::default();
        let pop_want =
            |want: &mut [VecDeque<Packet>; 3]| want.iter_mut().find_map(|q| q.pop_front());
        let mut id = 0;
        for (round, &bytes) in EDGE_SIZES.iter().enumerate() {
            // Rotate the classes so every priority order gets staged.
            for k in 0..3 {
                let class = classes[(round + k) % 3];
                let created = SimTime::from_nanos(100 * id);
                want[class as usize].extend(eager(id, class, bytes, created));
                if bytes > 0 {
                    let entry = Staged::new(id, PortNo(1), PortNo(2), bytes, class, created, MTU);
                    pool.push(host.staging(class), entry);
                }
                id += 1;
            }
            if round == 2 {
                // An app send larger than the MTU leaves as one packet.
                let created = SimTime::from_nanos(7);
                let app = Packet::new(
                    APP_FLOW_BASE,
                    PortNo(1),
                    PortNo(2),
                    4000,
                    TrafficClass::Interactive,
                    created,
                    0,
                );
                want[TrafficClass::Interactive as usize].push_back(app);
                let entry = Staged::new(
                    APP_FLOW_BASE,
                    PortNo(1),
                    PortNo(2),
                    4000,
                    TrafficClass::Interactive,
                    created,
                    4000,
                );
                pool.push(&mut host.q_inter, entry);
            }
            // Interleave sends with staging.
            for _ in 0..3 {
                assert_eq!(pool.cut_front(host.next_queue()), pop_want(&mut want));
            }
        }
        while let Some(p) = pop_want(&mut want) {
            assert_eq!(pool.cut_front(host.next_queue()), Some(p));
        }
        assert_eq!(pool.cut_front(host.next_queue()), None);
        assert_eq!(pool.live(), 0, "every spent entry was popped");
        pool.check_conserved().expect("host pool conserves");
    }

    #[test]
    fn slow_mode_grants_cut_the_packets_eager_packetization_made() {
        // Software placement queues each flow whole in the VOQ bank, past
        // its one-byte switch capacity.
        let mut bank = ProcessingLogic::new(4, 1);
        let mut want = VecDeque::new();
        for (id, &bytes) in EDGE_SIZES.iter().enumerate() {
            let created = SimTime::from_nanos(10 * id as u64);
            want.extend(eager(id as u64, TrafficClass::Bulk, bytes, created));
            if bytes > 0 {
                let run = Staged::new(
                    id as u64,
                    PortNo(1),
                    PortNo(2),
                    bytes,
                    TrafficClass::Bulk,
                    created,
                    MTU,
                );
                bank.push_run(run);
            }
        }
        let total: u64 = EDGE_SIZES.iter().sum();
        assert_eq!(
            (bank.queued_bytes(1, 2), bank.total_bytes()),
            (total, total)
        );
        let mut reqs = Vec::new();
        bank.take_requests_into(SimTime::ZERO, &mut reqs);
        assert_eq!(
            reqs.iter()
                .map(|r| (r.src, r.dst, r.queued_bytes, r.arrived_bytes_total))
                .collect::<Vec<_>>(),
            [(1, 2, total, total)]
        );
        // Grant windows, in bytes: the bank offers each front packet's
        // size, and the window takes it while it fits, as a grant does.
        let mut granted = Vec::new();
        for window in [2000, MTU as u64 - 1, MTU as u64, 0, 9000, u64::MAX] {
            let mut offered = Vec::new();
            let mut room = byte_budget(window);
            granted.clear();
            bank.grant_into(
                1,
                2,
                |b| {
                    offered.push(b);
                    room(b)
                },
                &mut granted,
            );
            let fronts: Vec<u64> = want
                .iter()
                .take(granted.len() + 1)
                .map(|p| p.bytes as u64)
                .collect();
            assert_eq!(offered, fronts, "window {window}: front sizes");
            for p in &granted {
                assert_eq!(Some(*p), want.pop_front(), "window {window}");
            }
        }
        assert!(want.is_empty());
        assert_eq!(bank.total_bytes(), 0);
        assert_eq!(bank.pool_occupancy(), (0, 0));
        bank.check_pool_conserved().expect("bank pool conserves");
    }

    #[test]
    fn hosts_stage_flows_not_packets() {
        // 20 MB flows: a host serializes ~2.5 MB in the 2 ms horizon, so
        // nearly every packet is still staged when the run ends. Each pool
        // entry is pushed by its own event's handler (a flow by its
        // injection, a VOQ run by its first packet's switch arrival), so
        // the pool can never allocate more often than events fire. A host
        // sends its bulk flows one after another, so a new VOQ run starts
        // only at a flow's first packet, after a drop gap, or after a
        // grant burst emptied the pair.
        let n = 8;
        let gen = FlowGenerator::with_load(
            TrafficMatrix::uniform(n),
            FlowSizeDist::Fixed(20_000_000),
            10.0,
            BitRate::GBPS_10,
            SimRng::new(5),
        );
        let r = sim(
            hw_cfg(n),
            Workload::flows(gen),
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(2));
        assert!(r.offered_flows >= 5, "{} flows", r.offered_flows);
        assert!(
            r.delivered_bytes() < r.offered_bytes / 4,
            "flows outlast the run"
        );
        assert!(
            r.counters.pool_allocs <= r.events,
            "{} pool allocations for {} events",
            r.counters.pool_allocs,
            r.events
        );
        let runs_bound = 2 * r.offered_flows + r.drops.voq_full + r.counters.grant_bursts;
        assert!(
            r.counters.pool_allocs <= runs_bound,
            "{} pool allocations against a bound of {runs_bound}",
            r.counters.pool_allocs
        );
    }

    #[test]
    fn software_placement_queues_whole_flows_in_the_bank() {
        // Hosts queue their bulk flows and gated calls in the shard's VOQ
        // bank, one run each, so the bank holds a record for every pair
        // they queued for, and every pool entry is a whole flow or app
        // send: one push each, into the bank or a staging queue.
        let n = 4;
        let mut cfg = NodeConfig::slow(
            n,
            SimDuration::from_micros(100),
            SwSchedulerModel::tuned_userspace(),
        );
        cfg.epoch = SimDuration::from_millis(1);
        cfg.voip_on_ocs = true;
        let mut app = CbrApp::voip(0, PortNo(0), PortNo(2), SimTime::ZERO);
        app.interval = SimDuration::from_micros(500);
        let r = sim(
            cfg,
            flows(n, 0.3, 13).with_apps(vec![app]),
            Box::new(HotspotScheduler::new(10_000)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(20));
        // The flows are 150 KB each and the calls send 200 B packets.
        let app_sends = (r.offered_bytes - 150_000 * r.offered_flows) / 200;
        assert!(app_sends > 0 && r.offered_flows > 0);
        assert!(r.delivered_ocs_bytes > 0, "grants must move bulk");
        assert!(
            r.counters.voq_pairs > 0,
            "hosts queued bulk, yet the banks hold no pair"
        );
        assert!(
            r.counters.pool_allocs <= r.offered_flows + app_sends,
            "{} pool allocations for {} flows and {app_sends} app sends",
            r.counters.pool_allocs,
            r.offered_flows
        );
    }

    #[test]
    fn fast_mode_delivers_most_offered_bytes() {
        let r = run_fast(4, 0.4, 5);
        assert!(r.offered_bytes > 0);
        let gp = r.goodput_fraction();
        assert!(
            gp > 0.8,
            "goodput {gp} ({:?} of {})",
            r.delivered_bytes(),
            r.offered_bytes
        );
        assert_eq!(r.drops.sync_violation, 0, "hardware mode cannot misfire");
        assert!(r.decisions > 0);
        assert!(r.ocs.rejected == 0, "granted transmissions must be legal");
    }

    #[test]
    fn bulk_rides_ocs_not_eps_in_fast_mode() {
        let r = run_fast(4, 0.4, 5);
        assert!(
            r.delivered_ocs_bytes > 10 * r.delivered_eps_bytes,
            "bulk flows should ride circuits: ocs={} eps={}",
            r.delivered_ocs_bytes,
            r.delivered_eps_bytes
        );
        assert!(r.peak_switch_buffer > 0, "fast mode buffers in the switch");
        assert_eq!(r.peak_host_buffer, 0, "fast mode keeps host buffers empty");
    }

    #[test]
    fn eps_only_baseline_uses_no_circuits() {
        let n = 4;
        let cfg = hw_cfg(n);
        let r = sim(
            cfg,
            flows(n, 0.2, 9),
            Box::new(EpsOnlyScheduler::new()),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(2));
        assert_eq!(r.delivered_ocs_bytes, 0);
        assert_eq!(r.ocs.reconfigurations, 0);
        // The undersized EPS (1 Gb/s/port) chokes on bulk: VOQs fill and
        // overflow since nothing drains them.
        assert!(r.drops.voq_full > 0 || r.peak_switch_buffer > 0);
    }

    #[test]
    fn voip_over_eps_has_low_latency_in_fast_mode() {
        let n = 4;
        let cfg = hw_cfg(n);
        // Accelerated CBR streams (500 µs interval) so a short run still
        // sees many packets.
        let mk = |id, s, d| {
            let mut a = CbrApp::voip(id, PortNo(s), PortNo(d), SimTime::ZERO);
            a.interval = SimDuration::from_micros(500);
            a
        };
        let apps = vec![mk(0, 0, 1), mk(1, 2, 3)];
        let r = sim(
            cfg,
            flows(n, 0.3, 11).with_apps(apps),
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(20));
        assert!(
            r.latency_interactive.count() >= 60,
            "both calls flowed: {}",
            r.latency_interactive.count()
        );
        // EPS at 1 Gb/s: a 200 B packet takes ~1.6 µs + queue; p99 should
        // be well under a millisecond when the EPS isn't overloaded.
        assert!(
            r.latency_interactive.p99() < 1_000_000,
            "p99 {}ns",
            r.latency_interactive.p99()
        );
        assert!(r.voip_jitter_mean_ns.is_some());
    }

    #[test]
    fn slow_mode_buffers_at_hosts_and_works_with_good_sync() {
        let n = 4;
        let mut cfg = NodeConfig::slow(
            n,
            SimDuration::from_micros(100),
            SwSchedulerModel::tuned_userspace(),
        );
        cfg.epoch = SimDuration::from_millis(1);
        cfg.seed = 3;
        // Perfect sync first: no violations expected.
        if let Placement::Software { sync, .. } = &mut cfg.placement {
            *sync = xds_hw::SyncModel::perfect();
        }
        let r = sim(
            cfg,
            flows(n, 0.3, 13),
            Box::new(HotspotScheduler::new(10_000)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(20));
        assert!(r.peak_host_buffer > 0, "slow mode buffers at hosts");
        assert_eq!(r.peak_switch_buffer, 0, "no switch VOQs in slow mode");
        assert!(r.delivered_ocs_bytes > 0, "grants must move bulk");
        assert_eq!(
            r.drops.sync_violation, 0,
            "perfect sync ⇒ no dark-window hits"
        );
    }

    #[test]
    fn clock_skew_causes_sync_violations_in_slow_mode() {
        let n = 4;
        let mut cfg = NodeConfig::slow(
            n,
            SimDuration::from_micros(50),
            SwSchedulerModel::tuned_userspace(),
        );
        cfg.epoch = SimDuration::from_millis(1);
        cfg.seed = 5;
        if let Placement::Software { sync, .. } = &mut cfg.placement {
            // Skew comparable to the dark window: edges will be clipped.
            *sync = xds_hw::SyncModel {
                skew_bound: SimDuration::from_micros(40),
                drift_ppb: 0,
                resync_interval: SimDuration::from_secs(1),
            };
        }
        let r = sim(
            cfg,
            flows(n, 0.5, 17),
            Box::new(HotspotScheduler::new(10_000)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(20));
        assert!(
            r.drops.sync_violation > 0,
            "µs-scale skew must clip slot edges"
        );
    }

    #[test]
    fn guard_band_absorbs_clock_skew() {
        // The E8 mitigation: with a guard band at least as large as the
        // worst-case offset (plus propagation), the same skew that causes
        // violations produces none — at the cost of shortened slots.
        let n = 4;
        let mk = |guard_us: u64| {
            let mut cfg = NodeConfig::slow(
                n,
                SimDuration::from_micros(50),
                SwSchedulerModel::tuned_userspace(),
            );
            cfg.epoch = SimDuration::from_millis(1);
            cfg.seed = 5;
            cfg.guard = SimDuration::from_micros(guard_us);
            if let Placement::Software { sync, .. } = &mut cfg.placement {
                *sync = xds_hw::SyncModel {
                    skew_bound: SimDuration::from_micros(40),
                    drift_ppb: 0,
                    resync_interval: SimDuration::from_secs(1),
                };
            }
            sim(
                cfg,
                flows(n, 0.5, 17),
                Box::new(HotspotScheduler::new(10_000)),
                Box::new(MirrorEstimator::new(n)),
            )
            .run(SimTime::from_millis(20))
        };
        let unguarded = mk(0);
        let guarded = mk(45);
        assert!(
            unguarded.drops.sync_violation > 0,
            "skew must bite without guard"
        );
        assert_eq!(guarded.drops.sync_violation, 0, "guard ≥ skew absorbs it");
        // The protection costs circuit capacity.
        assert!(
            guarded.delivered_ocs_bytes
                <= unguarded.delivered_ocs_bytes + unguarded.drops.sync_violation * 9000
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = run_fast(4, 0.5, 3);
        let b = run_fast(4, 0.5, 3);
        assert_eq!(a.delivered_ocs_bytes, b.delivered_ocs_bytes);
        assert_eq!(a.delivered_eps_bytes, b.delivered_eps_bytes);
        assert_eq!(a.events, b.events);
        assert_eq!(a.offered_flows, b.offered_flows);
        assert_eq!(a.latency_bulk.p99(), b.latency_bulk.p99());
    }

    #[test]
    fn flow_stop_caps_injection() {
        let n = 4;
        let cfg = hw_cfg(n);
        let w = flows(n, 0.5, 19).with_flow_stop(SimTime::from_micros(100));
        let r = sim(
            cfg,
            w,
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(5));
        assert!(r.offered_flows > 0);
        // All offered flows get plenty of drain time: everything delivers.
        assert!(r.goodput_fraction() > 0.99, "{}", r.goodput_fraction());
        assert_eq!(r.completed_flows, r.offered_flows);
    }

    #[test]
    fn matrix_rotation_changes_traffic_mid_run() {
        let n = 4;
        let cfg = hw_cfg(n);
        // Start with all traffic on pair (0→1); rotate to (2→3) after 1 ms.
        let m1 = TrafficMatrix::from_weights(n, {
            let mut w = vec![0.0; 16];
            w[1] = 1.0; // 0 -> 1
            w
        })
        .unwrap();
        let m2 = TrafficMatrix::from_weights(n, {
            let mut w = vec![0.0; 16];
            w[2 * 4 + 3] = 1.0; // 2 -> 3
            w
        })
        .unwrap();
        let gen = FlowGenerator::with_load(
            m1.clone(),
            FlowSizeDist::Fixed(150_000),
            0.2,
            BitRate::GBPS_10,
            SimRng::new(23),
        );
        let w = Workload::flows(gen).with_matrix_cycle(SimDuration::from_millis(1), vec![m2, m1]);
        let r = sim(
            cfg,
            w,
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(4));
        // Both permutations' circuits must have been configured at some
        // point: reconfigurations > 2 and bytes flowed.
        assert!(r.delivered_ocs_bytes > 0);
        assert!(r.ocs.reconfigurations > 2);
    }

    #[test]
    fn voip_on_ocs_ablation_gates_interactive_in_fast_mode() {
        let n = 4;
        let mk = |gated: bool| {
            let mut cfg = hw_cfg(n);
            cfg.voip_on_ocs = gated;
            let mut app = CbrApp::voip(0, PortNo(0), PortNo(2), SimTime::ZERO);
            app.interval = SimDuration::from_micros(200);
            sim(
                cfg,
                Workload::apps_only(vec![app]),
                Box::new(IslipScheduler::new(n, 3)),
                Box::new(MirrorEstimator::new(n)),
            )
            .run(SimTime::from_millis(10))
        };
        let normal = mk(false);
        let gated = mk(true);
        assert!(normal.latency_interactive.count() > 0);
        assert!(gated.latency_interactive.count() > 0);
        // Gated packets wait for epoch grants: p50 latency must be much
        // larger than the EPS path's.
        assert!(
            gated.latency_interactive.p50() > 2 * normal.latency_interactive.p50(),
            "gated {} vs normal {}",
            gated.latency_interactive.p50(),
            normal.latency_interactive.p50()
        );
        assert!(gated.delivered_ocs_bytes > 0, "gated voip rides circuits");
        assert_eq!(normal.delivered_ocs_bytes, 0, "ungated voip rides the EPS");
    }

    #[test]
    fn slow_mode_conserves_bytes_with_perfect_sync() {
        let n = 4;
        let mut cfg = NodeConfig::slow(
            n,
            SimDuration::from_micros(100),
            SwSchedulerModel::tuned_userspace(),
        );
        cfg.epoch = SimDuration::from_millis(1);
        if let Placement::Software { sync, .. } = &mut cfg.placement {
            *sync = xds_hw::SyncModel::perfect();
        }
        let w = flows(n, 0.2, 37).with_flow_stop(SimTime::from_millis(3));
        let r = sim(
            cfg,
            w,
            Box::new(HotspotScheduler::new(10_000)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(60));
        assert_eq!(r.drops.total(), 0, "{:?}", r.drops);
        assert_eq!(
            r.delivered_bytes(),
            r.offered_bytes,
            "host VOQs must fully drain once flows stop"
        );
    }

    #[test]
    fn decisions_slower_than_epoch_stretch_the_cadence() {
        // When the decision latency exceeds the epoch, the scheduler
        // cannot start a new decision until the previous one lands: the
        // effective cadence is the decision latency.
        let n = 4;
        let mut cfg = hw_cfg(n);
        cfg.epoch = SimDuration::from_micros(20);
        cfg.placement = Placement::Hardware(HwSchedulerModel {
            clock: xds_hw::ClockDomain::from_mhz(1000),
            demand_cycles: 100_000, // 100 µs decision at 1 GHz
            algo: HwAlgo::Tdma,
            grant_cycles: 0,
        });
        let r = sim(
            cfg,
            flows(n, 0.3, 41),
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(2));
        // 2 ms / 100 µs ≈ 20 decisions (not 2 ms / 20 µs = 100).
        assert!(
            (15..=25).contains(&r.decisions),
            "expected ~20 stretched epochs, got {}",
            r.decisions
        );
    }

    #[test]
    fn stalled_decisions_idle_the_fabric() {
        // A stalled decision lands k epochs late. The previous schedule's
        // slots cover one epoch, so the fabric idles until the late
        // decision lands: at most one reconfiguration per single-entry
        // decision, and a third of the unstalled decisions at k = 3. A
        // fabric that coasted on the previous schedule would reconfigure
        // about three times per decision.
        let n = 8;
        let run = |plan: Option<FaultPlan>| {
            SimBuilder::new(hw_cfg(n))
                .workload(flows(n, 0.9, 43))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
                .estimator(Box::new(MirrorEstimator::new(n)))
                .faults(plan)
                .build()
                .expect("test sim must build")
                .run(SimTime::from_millis(5))
        };
        let base = run(None);
        let stalled = run(Some(FaultPlan::none().with_stall(1.0, 3)));
        assert!(
            stalled.ocs.reconfigurations <= stalled.decisions,
            "{} reconfigurations over {} decisions: the fabric coasted",
            stalled.ocs.reconfigurations,
            stalled.decisions
        );
        let ratio = base.decisions as f64 / stalled.decisions as f64;
        assert!(
            (2.7..=3.3).contains(&ratio),
            "stalls should cut decisions to a third: {} vs {} unstalled",
            stalled.decisions,
            base.decisions
        );
    }

    #[test]
    fn mismatched_workload_rejected() {
        let err = SimBuilder::new(hw_cfg(4))
            .workload(flows(8, 0.5, 1))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .build()
            .err()
            .expect("mismatched workload must be rejected");
        assert_eq!(
            err,
            BuildError::PortSpaceMismatch {
                workload_ports: 8,
                switch_ports: 4
            }
        );
        assert!(err.to_string().contains("workload port count mismatch"));
    }

    #[test]
    fn builder_reports_typed_errors() {
        // Invalid configuration.
        let mut bad = hw_cfg(4);
        bad.epoch = SimDuration::ZERO;
        let err = SimBuilder::new(bad)
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .build()
            .err()
            .expect("invalid config must be rejected");
        assert!(matches!(err, BuildError::InvalidConfig(_)), "{err:?}");
        // Out-of-range app endpoint.
        let app = CbrApp::voip(0, PortNo(0), PortNo(9), SimTime::ZERO);
        let err = SimBuilder::new(hw_cfg(4))
            .workload(Workload::apps_only(vec![app]))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .build()
            .err()
            .expect("out-of-range app must be rejected");
        assert_eq!(
            err,
            BuildError::AppEndpointOutOfRange {
                app: 0,
                src: 0,
                dst: 9,
                switch_ports: 4
            }
        );
        // Missing scheduler.
        let err = SimBuilder::new(hw_cfg(4)).build().err().unwrap();
        assert_eq!(err, BuildError::MissingScheduler);
    }

    #[test]
    fn builder_happy_path_builds_and_runs() {
        // The canonical construction path (typed errors covered above):
        // explicit estimator, default instrumentation, traffic flows.
        let n = 4;
        let r = SimBuilder::new(hw_cfg(n))
            .workload(flows(n, 0.3, 7))
            .scheduler(Box::new(IslipScheduler::new(n, 3)))
            .estimator(Box::new(MirrorEstimator::new(n)))
            .build()
            .expect("valid spec must build")
            .run(SimTime::from_millis(1));
        assert!(r.delivered_bytes() > 0);
    }

    #[test]
    fn estimator_defaults_to_mirror() {
        let n = 4;
        let r = SimBuilder::new(hw_cfg(n))
            .workload(flows(n, 0.4, 7))
            .scheduler(Box::new(IslipScheduler::new(n, 3)))
            .build()
            .expect("builds without an explicit estimator")
            .run(SimTime::from_millis(2));
        // The mirror's error sample is identically zero once traffic flows.
        assert_eq!(r.demand_error_mean, Some(0.0));
    }

    #[test]
    fn lean_profile_matches_full_events_and_bytes_exactly() {
        let run = |profile: InstrProfile| {
            SimBuilder::new(hw_cfg(4))
                .workload(flows(4, 0.5, 21))
                .scheduler(Box::new(IslipScheduler::new(4, 3)))
                .instrumentation(profile.instrumentation())
                .build()
                .expect("builds")
                .run(SimTime::from_millis(5))
        };
        let full = run(InstrProfile::Full);
        let lean = run(InstrProfile::Lean);
        // Simulated behavior is profile-invariant…
        assert_eq!(full.events, lean.events);
        assert_eq!(full.delivered_ocs_bytes, lean.delivered_ocs_bytes);
        assert_eq!(full.delivered_eps_bytes, lean.delivered_eps_bytes);
        assert_eq!(full.offered_bytes, lean.offered_bytes);
        assert_eq!(full.decisions, lean.decisions);
        // …while the lean profile skips the observation work.
        assert!(full.latency_bulk.count() > 0);
        assert_eq!(lean.latency_bulk.count(), 0);
        assert_eq!(lean.completed_flows, 0);
        assert_eq!(lean.peak_switch_buffer, 0);
        assert_eq!(lean.demand_error_mean, None);
        assert!(full.peak_switch_buffer > 0);
        assert!(full.counters.delivery_batches > 0);
        assert_eq!(lean.counters.delivery_batches, 0, "lean records no groups");
    }

    /// Runs one configuration under the `full` and `lean` profiles,
    /// asserts both count the same drops, and returns the full run.
    fn run_both_profiles(mk: impl Fn() -> SimBuilder, ms: u64) -> RunReport {
        let run = |profile: InstrProfile| {
            mk().instrumentation(profile.instrumentation())
                .build()
                .expect("builds")
                .run(SimTime::from_millis(ms))
        };
        let full = run(InstrProfile::Full);
        assert_eq!(
            full.drops,
            run(InstrProfile::Lean).drops,
            "lean moved drops"
        );
        full
    }

    #[test]
    fn every_drop_cause_reaches_the_report_and_the_counters() {
        let n = 4;
        let voq = run_both_profiles(
            || {
                // 150 KB flows into 20 KB switch VOQs.
                let mut cfg = hw_cfg(n);
                cfg.voq_capacity = 20_000;
                SimBuilder::new(cfg)
                    .workload(flows(n, 0.9, 7))
                    .scheduler(Box::new(IslipScheduler::new(n, 3)))
            },
            2,
        );
        let eps = run_both_profiles(
            || {
                // Short flows on a packet-switch-only fabric with a 6 KB
                // EPS output queue.
                let mut cfg = hw_cfg(n);
                cfg.eps_buffer = 6_000;
                let gen = FlowGenerator::with_load(
                    TrafficMatrix::uniform(n),
                    FlowSizeDist::Fixed(3_000),
                    0.5,
                    BitRate::GBPS_10,
                    SimRng::new(7),
                );
                SimBuilder::new(cfg)
                    .workload(Workload::flows(gen))
                    .scheduler(Box::new(EpsOnlyScheduler::new()))
            },
            2,
        );
        let dark = run_both_profiles(
            || {
                // Host-released bulk in flight when a flaky link dies.
                let mut cfg = NodeConfig::slow(
                    n,
                    SimDuration::from_micros(50),
                    SwSchedulerModel::tuned_userspace(),
                );
                cfg.epoch = SimDuration::from_millis(1);
                SimBuilder::new(cfg)
                    .workload(flows(n, 0.5, 7))
                    .scheduler(Box::new(HotspotScheduler::new(10_000)))
                    .faults(Some(FaultPlan::flaky_links()))
            },
            10,
        );
        let sync = run_both_profiles(|| skewed_slow_mode(n), 20);
        for (cause, report, ledger) in [
            ("voq_full", voq.drops.voq_full, voq.counters.drop_voq_full),
            ("eps_full", eps.drops.eps_full, eps.counters.drop_eps_full),
            (
                "link_dark",
                dark.drops.link_dark,
                dark.counters.drop_link_dark,
            ),
            (
                "sync_violation",
                sync.drops.sync_violation,
                sync.counters.drop_sync_violation,
            ),
        ] {
            assert!(report > 0, "{cause}: the configuration must drop");
            assert_eq!(report, ledger, "{cause}: report vs counters");
        }
    }

    #[test]
    fn counters_populate_and_tracing_defaults_to_off() {
        let r = run_fast(4, 0.4, 5);
        assert!(r.chrome_trace.is_none(), "tracing defaults to off");
        assert!(r.counters.grant_bursts > 0, "bulk load grants bursts");
        assert!(r.counters.grant_pkts_max > 0);
        assert!(r.counters.delivery_batches > 0);
        assert!(r.counters.pool_allocs > 0, "packets went through a pool");
        assert!(r.counters.pool_frees <= r.counters.pool_allocs);
        assert!(r.counters.pool_live_peak > 0);
        // Counters are part of the run's deterministic identity.
        let again = run_fast(4, 0.4, 5);
        assert_eq!(r.counters, again.counters);
    }

    #[test]
    fn flight_recorder_emits_a_valid_chrome_trace_without_perturbing_the_run() {
        let traced = SimBuilder::new(hw_cfg(4))
            .workload(flows(4, 0.4, 7))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .trace(true)
            .build()
            .expect("builds")
            .run(SimTime::from_millis(3));
        let json = traced.chrome_trace.as_ref().expect("recorder ran");
        let summary = crate::trace::validate_chrome_trace(json).expect("valid Chrome trace");
        assert!(summary.complete_events > 0);
        for name in ["epoch", "estimate", "decompose", "apply", "grant_burst"] {
            assert!(summary.names.contains(name), "missing span {name}");
        }
        // Simulated behavior and counters are trace-invariant.
        let plain = SimBuilder::new(hw_cfg(4))
            .workload(flows(4, 0.4, 7))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .build()
            .expect("builds")
            .run(SimTime::from_millis(3));
        assert!(plain.chrome_trace.is_none());
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.delivered_ocs_bytes, traced.delivered_ocs_bytes);
        assert_eq!(plain.counters, traced.counters);
    }

    #[test]
    fn timeseries_profile_records_one_row_per_epoch() {
        let r = SimBuilder::new(hw_cfg(4))
            .workload(flows(4, 0.5, 23))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .instrumentation(InstrProfile::TimeSeries.instrumentation())
            .build()
            .expect("builds")
            .run(SimTime::from_millis(3));
        let series = r.timeseries.as_ref().expect("timeseries profile records");
        assert_eq!(series.len() as u64, r.decisions, "one row per decision");
        let rows = series.rows();
        assert!(rows[0].duty_cycle.is_none(), "first row has no interval");
        assert!(
            rows.iter().skip(1).all(|row| row.duty_cycle.is_some()),
            "every later row derives a duty cycle"
        );
        assert!(
            rows.iter().any(|row| row.backlog_bytes > 0),
            "backlog must be observed under load"
        );
        // Full fidelity rides along: the aggregate metrics are intact.
        assert!(r.latency_bulk.count() > 0);
        assert_eq!(r.demand_error_mean, Some(0.0), "mirror estimator");
    }

    /// Asserts the K-invariance contract between a K = 1 reference and
    /// another shard layout: identical behavior (events, bytes, flows,
    /// decisions, drops, switch stats, latency/FCT observables) and
    /// identical values for every counter that is not a per-shard
    /// structural ledger.
    fn assert_shard_equiv(want: &RunReport, got: &RunReport, label: &str) {
        assert_eq!(want.events, got.events, "{label}: events");
        assert_eq!(want.offered_bytes, got.offered_bytes, "{label}: offered");
        assert_eq!(want.offered_flows, got.offered_flows, "{label}: flows");
        assert_eq!(
            want.completed_flows, got.completed_flows,
            "{label}: completed"
        );
        assert_eq!(
            want.delivered_ocs_bytes, got.delivered_ocs_bytes,
            "{label}: ocs bytes"
        );
        assert_eq!(
            want.delivered_eps_bytes, got.delivered_eps_bytes,
            "{label}: eps bytes"
        );
        assert_eq!(want.decisions, got.decisions, "{label}: decisions");
        assert_eq!(want.drops, got.drops, "{label}: drops");
        assert_eq!(want.ocs, got.ocs, "{label}: ocs stats");
        assert_eq!(want.eps, got.eps, "{label}: eps stats");
        assert_eq!(
            want.peak_host_buffer, got.peak_host_buffer,
            "{label}: host peak"
        );
        assert_eq!(
            want.peak_switch_buffer, got.peak_switch_buffer,
            "{label}: switch peak"
        );
        assert_eq!(want.horizon, got.horizon, "{label}: horizon");
        for h in [
            (&want.latency_bulk, &got.latency_bulk, "bulk"),
            (&want.latency_short, &got.latency_short, "short"),
            (&want.latency_interactive, &got.latency_interactive, "inter"),
        ] {
            assert_eq!(h.0.count(), h.1.count(), "{label}: {} count", h.2);
            assert_eq!(h.0.p99(), h.1.p99(), "{label}: {} p99", h.2);
        }
        assert_eq!(
            want.voip_jitter_mean_ns, got.voip_jitter_mean_ns,
            "{label}: jitter"
        );
        // Behavioral counters are K-invariant; the structural ledgers
        // (queue_*, pool_*) are per-(K, seed) deterministic but differ.
        for name in [
            "sched_memo_hits",
            "sched_hk_runs",
            "sched_probes",
            "sched_worklist_peak",
            "sched_bucket_peak",
            "voq_pairs",
            "grant_bursts",
            "grant_pkts_max",
            "delivery_batches",
        ] {
            assert_eq!(
                want.counters.get(name),
                got.counters.get(name),
                "{label}: counter {name}"
            );
        }
    }

    #[test]
    fn fast_mode_is_shard_count_invariant() {
        let n = 8;
        let mk = || {
            SimBuilder::new(hw_cfg(n))
                .workload(flows(n, 0.4, 7))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
                .estimator(Box::new(MirrorEstimator::new(n)))
        };
        let k1 = mk().build().unwrap().run(SimTime::from_millis(3));
        assert!(k1.delivered_ocs_bytes > 0);
        for k in [2, 4, 8] {
            let sharded = mk().shards(k).build().unwrap().run(SimTime::from_millis(3));
            assert_shard_equiv(&k1, &sharded, &format!("k={k}"));
        }
    }

    /// The VOQ banks hold a record per pair the traffic reached, not per
    /// pair of the fabric: a 64-port multi-ring run (4 destinations per
    /// source) holds at most the matrix's 256 non-zero cells, and the
    /// same number in one bank as in one bank per port.
    #[test]
    fn voq_pairs_follow_the_traffic_at_any_shard_count() {
        let n = 64;
        let matrix = TrafficMatrix::rings(n, &[1, 9, 33, 57]);
        let mut cells = 0u64;
        matrix.for_each_cell(|_, _, f| cells += u64::from(f > 0.0));
        assert_eq!(cells, 4 * n as u64);
        let mk = |k| {
            SimBuilder::new(hw_cfg(n))
                .workload(Workload::flows(FlowGenerator::with_load(
                    matrix.clone(),
                    FlowSizeDist::Fixed(150_000),
                    0.6,
                    BitRate::GBPS_10,
                    SimRng::new(3),
                )))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
                .shards(k)
                .build()
                .unwrap()
                .run(SimTime::from_millis(1))
        };
        let k1 = mk(1);
        let pairs = k1.counters.voq_pairs;
        assert!(
            pairs > 0 && pairs <= cells,
            "{pairs} records for {cells} cells"
        );
        let kn = mk(n);
        assert_eq!(kn.counters.voq_pairs, pairs, "K = {n}");
        assert_shard_equiv(&k1, &kn, "multi-ring k=64");
    }

    /// An estimator that logs every request the banks report and
    /// estimates nothing.
    struct RequestLog {
        n: usize,
        log: std::sync::Arc<std::sync::Mutex<Vec<SchedRequest>>>,
    }

    impl DemandEstimator for RequestLog {
        fn name(&self) -> &'static str {
            "request-log"
        }

        fn on_request(&mut self, req: &SchedRequest) {
            self.log.lock().expect("no test thread panicked").push(*req);
        }

        fn estimate(&mut self, _now: SimTime, _epoch: SimDuration) -> DemandMatrix {
            DemandMatrix::zero(self.n)
        }
    }

    /// Runs `mk` at one shard and at one shard per port, logging the
    /// requests; asserts that both runs report the same requests and
    /// events, and returns the one-shard run with its requests.
    fn run_logged(
        mk: impl Fn() -> SimBuilder,
        n: usize,
        ms: u64,
    ) -> (RunReport, Vec<SchedRequest>) {
        let run = |k| {
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let report = mk()
                .estimator(Box::new(RequestLog {
                    n,
                    log: log.clone(),
                }))
                .shards(k)
                .build()
                .expect("builds")
                .run(SimTime::from_millis(ms));
            let reqs = std::mem::take(&mut *log.lock().expect("no test thread panicked"));
            (report, reqs)
        };
        let (k1, reqs) = run(1);
        let (kn, reqs_kn) = run(n);
        assert_eq!(reqs, reqs_kn, "K = {n} requests");
        assert_shard_equiv(&k1, &kn, "K = n");
        assert!(
            kn.counters.queue_pops < kn.events,
            "trains take events at K = n: {} pops of {}",
            kn.counters.queue_pops,
            kn.events
        );
        (k1, reqs)
    }

    /// The requests each epoch must see on pair `(src, dst)` when its
    /// packets, `(departure, switch arrival, bytes)`, are admitted and
    /// never granted: a packet is admitted before the epoch at `T` iff it
    /// arrives before `T`, or at `T` having departed before the epoch was
    /// scheduled (one epoch earlier; the first at 0). A pair reports
    /// whenever its occupancy changed since the last epoch.
    fn expected_requests(
        pair: (usize, usize),
        packets: &[(u64, u64, u64)],
        epoch: u64,
        horizon: u64,
    ) -> Vec<SchedRequest> {
        let mut out = Vec::new();
        let mut last = 0;
        for t in (0..=horizon).step_by(epoch as usize) {
            let stamp = t.saturating_sub(epoch);
            let queued = packets
                .iter()
                .filter(|&&(d, a, _)| a < t || (a == t && d < stamp))
                .map(|&(_, _, b)| b)
                .sum();
            if queued != last {
                out.push(SchedRequest {
                    src: pair.0,
                    dst: pair.1,
                    queued_bytes: queued,
                    arrived_bytes_total: queued,
                    at: SimTime::from_nanos(t),
                });
                last = queued;
            }
        }
        out
    }

    /// Gated packets land in their VOQ without an event of their own: in
    /// the window their switch arrival falls in, or from the host's wire
    /// in the window that covers it. Long host links put epoch boundaries
    /// (every 19.2 µs) between packets' departure and arrival, at one
    /// shard and at one shard per port. The epoch sees a packet that
    /// arrives on its very nanosecond iff the packet departed before the
    /// epoch was scheduled, and its requests carry exactly the bytes
    /// admitted.
    #[test]
    fn gated_packets_land_by_the_window_that_covers_their_arrival() {
        let n = 4;
        let horizon = 3_000_000;
        let cfg_with = |prop| {
            let mut cfg = hw_cfg(n);
            cfg.host_link.propagation = SimDuration::from_nanos(prop);
            // App packets are gated, so they go to the VOQs.
            cfg.voip_on_ocs = true;
            cfg
        };
        let cfg = cfg_with(0);
        let epoch = cfg.epoch.as_nanos();
        assert_eq!(epoch, 19_200);
        let tx = |bytes: u64| cfg.host_link.rate.tx_time(bytes).as_nanos();

        // Apps on an idle NIC send at start + j·interval and arrive tx +
        // prop later, both on every other epoch's nanosecond. App 0's
        // 1500 B packets (19.7 µs in flight) left before that epoch was
        // scheduled: they land from the wire ahead of it. App 1's 200 B
        // packets (18.66 µs) left after, in the window the epoch ends:
        // they wait on the wire behind it.
        let prop = 18_500;
        let apps = [(0, 1, 1500, 18_700), (2, 3, 200, 19_740)];
        let mk_apps = || {
            let apps = apps
                .iter()
                .enumerate()
                .map(|(id, &(s, d, bytes, start))| CbrApp {
                    id: id as u64,
                    src: PortNo(s),
                    dst: PortNo(d),
                    pkt_bytes: bytes,
                    interval: SimDuration::from_nanos(2 * epoch),
                    start: SimTime::from_nanos(start),
                    send_jitter: SimDuration::ZERO,
                })
                .collect();
            SimBuilder::new(cfg_with(prop))
                .workload(Workload::apps_only(apps))
                .scheduler(Box::new(EpsOnlyScheduler::new()))
        };
        let (report, reqs) = run_logged(mk_apps, n, 3);
        let mut events = (0..=horizon).step_by(epoch as usize).count() as u64;
        for &(s, d, bytes, start) in &apps {
            let packets: Vec<_> = (start..=horizon)
                .step_by(2 * epoch as usize)
                .map(|dep| (dep, dep + tx(bytes as u64) + prop, bytes as u64))
                .collect();
            let want = expected_requests((s as usize, d as usize), &packets, epoch, horizon);
            assert!(want.len() > 40, "the apps keep landing");
            let got: Vec<_> = reqs
                .iter()
                .filter(|r| r.src == s as usize)
                .copied()
                .collect();
            assert_eq!(got, want, "app {s} -> {d}");
            // Each send is its app event, the departure, the NIC's idle
            // check one packet later and the switch arrival.
            for &(dep, arrival, _) in &packets {
                events += 2
                    + u64::from(dep + tx(bytes as u64) <= horizon)
                    + u64::from(arrival <= horizon);
            }
        }
        assert_eq!(report.events, events, "model events");

        // Bulk flows on one pair, 11.2 µs in flight: a packet sent in a
        // window's last 11.2 µs crosses its end on the wire (about nine
        // at a time), the rest land in the window that sent them. Each
        // flow lands as one VOQ run: a packet overtaking its host's wire
        // would split it.
        let prop = 10_000;
        let mut w = vec![0.0; n * n];
        w[3 * n] = 1.0;
        let gen = FlowGenerator::with_load(
            TrafficMatrix::from_weights(n, w).expect("one cell"),
            FlowSizeDist::Fixed(150_000),
            0.2,
            BitRate::GBPS_10,
            SimRng::new(9),
        );
        let flow_stop = SimTime::from_millis(2);
        let mk_flows = || {
            SimBuilder::new(cfg_with(prop))
                .workload(Workload::flows(gen.clone()).with_flow_stop(flow_stop))
                .scheduler(Box::new(EpsOnlyScheduler::new()))
        };
        let (report, reqs) = run_logged(mk_flows, n, 3);
        // The host sends its flows back to back, one MTU a packet.
        let (mut packets, mut free, mut landed) = (Vec::new(), 0, 0);
        let flows = gen.clone().flows_until(flow_stop);
        for f in &flows {
            let mut dep = free.max(f.start.as_nanos());
            landed += u64::from(dep + tx(1500) + prop <= horizon);
            for _ in 0..f.bytes / 1500 {
                packets.push((dep, dep + tx(1500) + prop, 1500));
                dep += tx(1500);
            }
            free = dep;
        }
        assert_eq!(report.offered_flows, flows.len() as u64);
        assert!(flows.len() > 3, "several flows");
        assert_eq!(reqs, expected_requests((3, 0), &packets, epoch, horizon));
        assert_eq!(
            report.counters.pool_allocs,
            report.offered_flows + landed,
            "one host entry and one VOQ run per flow"
        );
    }

    /// Slow mode with clock skew comparable to the dark window: slot
    /// edges get clipped, so the run drops sync violations.
    fn skewed_slow_mode(n: usize) -> SimBuilder {
        let mut cfg = NodeConfig::slow(
            n,
            SimDuration::from_micros(50),
            SwSchedulerModel::tuned_userspace(),
        );
        cfg.epoch = SimDuration::from_millis(1);
        cfg.seed = 5;
        if let Placement::Software { sync, .. } = &mut cfg.placement {
            *sync = xds_hw::SyncModel {
                skew_bound: SimDuration::from_micros(40),
                drift_ppb: 0,
                resync_interval: SimDuration::from_secs(1),
            };
        }
        SimBuilder::new(cfg)
            .workload(flows(n, 0.5, 17))
            .scheduler(Box::new(HotspotScheduler::new(10_000)))
            .estimator(Box::new(MirrorEstimator::new(n)))
    }

    #[test]
    fn slow_mode_is_shard_count_invariant() {
        let n = 4;
        let k1 = skewed_slow_mode(n)
            .build()
            .unwrap()
            .run(SimTime::from_millis(20));
        assert!(k1.drops.sync_violation > 0, "exercise the violation path");
        for k in [2, 4] {
            let sharded = skewed_slow_mode(n)
                .shards(k)
                .build()
                .unwrap()
                .run(SimTime::from_millis(20));
            assert_shard_equiv(&k1, &sharded, &format!("slow k={k}"));
        }
    }

    #[test]
    fn apps_are_shard_count_invariant() {
        let n = 4;
        let mk = || {
            let mk_app = |id, s, d| {
                let mut a = CbrApp::voip(id, PortNo(s), PortNo(d), SimTime::ZERO);
                a.interval = SimDuration::from_micros(500);
                a
            };
            SimBuilder::new(hw_cfg(n))
                .workload(flows(n, 0.3, 11).with_apps(vec![mk_app(0, 0, 1), mk_app(1, 2, 3)]))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
                .estimator(Box::new(MirrorEstimator::new(n)))
        };
        let k1 = mk().build().unwrap().run(SimTime::from_millis(10));
        assert!(k1.latency_interactive.count() > 0, "apps flowed");
        let sharded = mk()
            .shards(2)
            .build()
            .unwrap()
            .run(SimTime::from_millis(10));
        assert_shard_equiv(&k1, &sharded, "apps k=2");
    }

    #[test]
    fn shard_executor_modes_are_equivalent() {
        // Threads vs inline must be byte-identical (shards share nothing
        // within a window) — four workers for four shards exercise the
        // concurrent path even on a single-CPU machine.
        let n = 8;
        let mk = |workers| {
            let sim = SimBuilder::new(hw_cfg(n))
                .workload(flows(n, 0.4, 7))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
                .shards(4)
                .build()
                .unwrap();
            shard::run_sharded(sim, SimTime::from_millis(3), workers)
        };
        let inline = mk(None);
        let threads = mk(Some(4));
        assert_eq!(inline.events, threads.events);
        assert_eq!(inline.delivered_ocs_bytes, threads.delivered_ocs_bytes);
        assert_eq!(inline.delivered_eps_bytes, threads.delivered_eps_bytes);
        assert_eq!(inline.counters, threads.counters, "full counter registry");
    }

    #[test]
    fn arbitrary_shard_maps_preserve_behavior() {
        let n = 8;
        let mk = || {
            SimBuilder::new(hw_cfg(n))
                .workload(flows(n, 0.4, 7))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
        };
        let k1 = mk().build().unwrap().run(SimTime::from_millis(3));
        // A deliberately lopsided, non-contiguous assignment.
        let map = ShardMap::from_assignment(vec![1, 0, 2, 0, 1, 0, 2, 0]).unwrap();
        let sharded = mk()
            .shard_map(map)
            .build()
            .unwrap()
            .run(SimTime::from_millis(3));
        assert_shard_equiv(&k1, &sharded, "scattered map");
    }

    #[test]
    fn shard_map_validates_density_and_port_space() {
        assert!(ShardMap::from_assignment(vec![0, 2]).is_err(), "hole at 1");
        assert!(
            ShardMap::from_assignment(vec![1, 0, 3, 0]).is_err(),
            "hole at 2"
        );
        assert!(ShardMap::from_assignment(Vec::new()).is_err());
        // Ids far past the port count are rejected before anything is
        // sized by them (no overflow, no huge allocation).
        assert!(ShardMap::from_assignment(vec![0, usize::MAX]).is_err());
        assert!(ShardMap::from_assignment(vec![usize::MAX / 2, 0]).is_err());
        let m = ShardMap::contiguous(8, 3);
        assert_eq!(m.k(), 3);
        let mut counts = vec![0usize; 3];
        for p in 0..8 {
            counts[m.shard_of(p)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(
            counts.iter().all(|&c| c >= 2),
            "near-equal split: {counts:?}"
        );
        // A scattered map's port index: each shard's ports ascending, and
        // each port's position among them.
        let m = ShardMap::from_assignment(vec![1, 0, 1, 2, 0]).unwrap();
        assert_eq!(
            (m.ports_of(0), m.ports_of(1), m.ports_of(2)),
            (&[1, 4][..], &[0, 2][..], &[3][..])
        );
        assert_eq!(
            (0..5).map(|p| m.local_of(p)).collect::<Vec<_>>(),
            [0, 0, 1, 0, 1]
        );
        // A map sized for the wrong fabric is a typed build error.
        let built = SimBuilder::new(hw_cfg(4))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .shard_map(ShardMap::contiguous(8, 2))
            .build();
        assert!(matches!(built.err(), Some(BuildError::InvalidConfig(_))));
    }
}
