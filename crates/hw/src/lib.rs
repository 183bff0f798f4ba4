//! # xds-hw — hardware/software scheduler placement models
//!
//! The paper's central argument is about *where the scheduler runs*:
//!
//! > "Compared to its software counterparts, hardware based schedulers can
//! > match the speeds of fast optical switches … This is inherent due to
//! > their hardware design: allowing quick demand estimation, fast schedule
//! > computation and rapid communication of computed schedules to the
//! > switch."
//!
//! We cannot ship a NetFPGA-SUME bitstream in a Rust crate, so the FPGA is
//! replaced by a model: this crate models the *timing* and *capacity* of
//! both placements:
//!
//! * [`ClockDomain`] / [`Pipeline`] — cycle-accurate latency of a pipelined
//!   hardware scheduler;
//! * [`HwAlgo`] — per-algorithm cycle-cost models (how many cycles does an
//!   iSLIP iteration or a wavefront sweep take in gateware?);
//! * [`HwSchedulerModel`] / [`SwSchedulerModel`] — end-to-end decision
//!   latency for the hardware and software paths (the software path
//!   includes I/O round-trips and OS jitter — the §2 latency terms);
//! * [`SyncModel`] — host↔switch clock skew/drift and the guard bands they
//!   force (§2's "tight synchronization" argument, experiment E8);
//! * [`resources`] — LUT/FF/BRAM estimates checked against the
//!   NetFPGA-SUME's Virtex-7 690T capacity (experiment E7).

#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod hw_model;
pub mod pipeline;
pub mod resources;
pub mod sw_model;
pub mod sync;

pub use clock::ClockDomain;
pub use cost::HwAlgo;
pub use hw_model::HwSchedulerModel;
pub use pipeline::{Pipeline, Stage};
pub use resources::{ResourceEstimate, SUME_CAPACITY};
pub use sw_model::SwSchedulerModel;
pub use sync::SyncModel;
