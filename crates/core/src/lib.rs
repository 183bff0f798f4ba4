//! # xds-core — the hybrid-switch scheduling framework (Figure 2)
//!
//! This crate is the paper's contribution: "a flexible framework for rapid
//! prototyping, exploration and evaluation of novel hybrid schedulers"
//! (§3), partitioned exactly as Figure 2 partitions it:
//!
//! * [`processing`] — **processing logic**: packets are classified and
//!   placed into Virtual Output Queues; VOQ status changes generate
//!   scheduling requests; transmission happens upon grants;
//! * [`demand`] + [`sched`] — **scheduling logic**: requests are folded
//!   into a demand estimate; a pluggable [`sched::Scheduler`] computes the
//!   switch configuration(s); grants go out;
//! * [`switching`] — **switching logic**: the grant matrix configures the
//!   OCS (which is dark while reconfiguring); residual traffic rides the
//!   EPS;
//! * [`node`] + [`runtime`] — the assembled testbed: an event-driven
//!   simulation of hosts, the hybrid ToR and the scheduler, in either
//!   **fast scheduling** (hardware scheduler, switch-buffered — Figure 1
//!   right) or **slow scheduling** (software scheduler, host-buffered,
//!   grant round-trips, clock skew — Figure 1 left) placement.
//!
//! "The users implement novel design in the scheduling logic module" — in
//! this reproduction, *users implement [`sched::Scheduler`]* and hand it to
//! the runtime; everything else is the constant (yet configurable)
//! infrastructure the paper describes. Nine schedulers ship in
//! [`sched`]: iSLIP, PIM, RRM, wavefront, greedy LQF, Hungarian, BvN/TMS,
//! Solstice-style greedy, c-Through-style hotspot, plus TDMA and EPS-only
//! baselines.

#![warn(missing_docs)]

pub mod config;
pub mod demand;
pub mod fault;
pub mod instrument;
pub mod node;
pub mod pool;
pub mod processing;
pub mod report;
pub mod runtime;
pub mod sched;
pub mod switching;
pub mod trace;

pub use config::{NodeConfig, Placement};
pub use demand::{DemandEstimator, DemandMatrix, SchedRequest};
pub use fault::{FaultPlan, LinkFaultSpec, MisfireSpec, StallSpec};
pub use instrument::{DropCause, EpochSample, InstrProfile, Instrumentation};
pub use node::{MatrixCycle, Workload};
pub use pool::{Fifo, Pool};
pub use report::{MetricValue, RunReport};
pub use runtime::{BuildError, HybridSim, ShardMap, SimBuilder};
pub use sched::{Schedule, ScheduleCtx, ScheduleEntry, Scheduler};
pub use trace::{validate_chrome_trace, SchedObs, SchedSpan, TraceRecorder, TraceSummary};
pub use xds_metrics::CounterSet;
