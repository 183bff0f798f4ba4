//! # xdsched — extreme data-rate scheduling for the data center
//!
//! A framework for prototyping and evaluating **hybrid electrical/optical
//! switch schedulers**, reproducing *"Extreme data-rate scheduling for the
//! Data Center"* (Manihatty-Bojan, Zilberman, Antichi, Moore — SIGCOMM
//! 2015). The paper argues that software schedulers (milliseconds) cannot
//! keep up with fast optical switching (nanoseconds), forcing host-side
//! buffering, latency, jitter and synchronization complexity — and that
//! the way forward is a framework for rapidly prototyping *hardware*
//! schedulers. This workspace is that framework, in Rust. The NetFPGA
//! scheduler and the optical switch are not emulated: both are replaced by
//! timing models (cycle-cost pipelines for the FPGA, a dark
//! reconfiguration window for the OCS).
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | deterministic discrete-event kernel (ns clock, seeded RNG) |
//! | [`net`] | packet descriptors, port numbers, traffic classes |
//! | [`traffic`] | data-center workloads (heavy-tailed flows, VOIP apps) |
//! | [`switch`] | EPS, OCS (dark reconfiguration windows), buffer tracking |
//! | [`hw`] | hardware/software scheduler timing, sync, FPGA resources |
//! | [`metrics`] | histograms, RFC 3550 jitter, FCT, report tables |
//! | [`core`] | **the framework**: VOQs → demand → scheduler → grants |
//! | [`scenario`] | declarative scenario library + parallel sweep engine |
//!
//! ## Quickstart
//!
//! ```
//! use xdsched::prelude::*;
//!
//! let n = 4;
//! let cfg = NodeConfig::fast(
//!     n,
//!     SimDuration::from_nanos(100), // PLZT-class optical switching time
//!     HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 }),
//! );
//! let workload = Workload::flows(FlowGenerator::with_load(
//!     TrafficMatrix::uniform(n),
//!     FlowSizeDist::Fixed(200_000), // bulk flows: every byte needs a grant
//!     0.4,
//!     BitRate::GBPS_10,
//!     SimRng::new(42),
//! ));
//! let report = SimBuilder::new(cfg)
//!     .workload(workload)
//!     .scheduler(Box::new(IslipScheduler::new(n, 3)))
//!     .estimator(Box::new(MirrorEstimator::new(n)))
//!     .build()
//!     .expect("valid configuration")
//!     .run(SimTime::from_millis(5));
//! assert!(report.delivered_bytes() > 0);
//! ```

#![warn(missing_docs)]

pub use xds_core as core;
pub use xds_hw as hw;
pub use xds_metrics as metrics;
pub use xds_net as net;
pub use xds_scenario as scenario;
pub use xds_sim as sim;
pub use xds_switch as switch;
pub use xds_traffic as traffic;

/// One-stop imports for examples, tests and downstream users.
pub mod prelude {
    pub use xds_core::config::{NodeConfig, Placement};
    pub use xds_core::demand::{
        CountMinEstimator, DemandEstimator, DemandMatrix, EwmaEstimator, MirrorEstimator,
        SchedRequest, WindowEstimator,
    };
    pub use xds_core::instrument::{
        DeliveryPath, DeliveryRecord, DeliverySink, DropCause, DropSink, EpochProbe, EpochSample,
        InstrProfile, Instrumentation, SinkCtx,
    };
    pub use xds_core::node::{MatrixCycle, Workload};
    pub use xds_core::report::{MetricValue, RunReport};
    pub use xds_core::runtime::{BuildError, HybridSim, SimBuilder};
    pub use xds_core::sched::{
        BvnScheduler, EpsOnlyScheduler, GreedyLqfScheduler, HotspotScheduler, HungarianScheduler,
        IlqfScheduler, IslipScheduler, PimScheduler, RrmScheduler, Schedule, ScheduleCtx,
        ScheduleEntry, Scheduler, SolsticeScheduler, TdmaScheduler, WavefrontScheduler,
    };
    pub use xds_hw::{
        ClockDomain, HwAlgo, HwSchedulerModel, Pipeline, Stage, SwSchedulerModel, SyncModel,
    };
    pub use xds_metrics::{fmt_bytes, fmt_f64, LatencyHistogram, SizeClass, Table};
    pub use xds_net::{Packet, PortNo, TrafficClass};
    pub use xds_scenario::{
        library as scenario_library, AppMix, EstimatorKind, PlacementKind, ScenarioSpec,
        SchedulerKind, SweepExecutor, SweepGrid, TrafficPattern,
    };
    pub use xds_sim::{BitRate, Dist, SimDuration, SimRng, SimTime};
    pub use xds_switch::{Eps, Link, Ocs, Permutation, Site};
    pub use xds_traffic::{CbrApp, FlowGenerator, FlowSizeDist, TrafficMatrix};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_builds_a_minimal_run() {
        let n = 4;
        let cfg = NodeConfig::fast(
            n,
            SimDuration::from_nanos(100),
            HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 }),
        );
        let workload = Workload::flows(FlowGenerator::with_load(
            TrafficMatrix::uniform(n),
            FlowSizeDist::Fixed(200_000),
            0.2,
            BitRate::GBPS_10,
            SimRng::new(1),
        ));
        let report = SimBuilder::new(cfg)
            .workload(workload)
            .scheduler(Box::new(IslipScheduler::new(n, 3)))
            .estimator(Box::new(MirrorEstimator::new(n)))
            .build()
            .expect("valid configuration")
            .run(SimTime::from_millis(1));
        assert!(report.delivered_bytes() > 0);
    }
}
