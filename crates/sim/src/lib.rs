//! # xds-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `xdsched` workspace. It provides the
//! pieces every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//!   Optical switching times in the reproduced paper span *nanoseconds to
//!   milliseconds*, so the kernel works in integer nanoseconds throughout and
//!   never touches floating point on the hot path.
//! * [`EventQueue`] — a stable-order event queue, a binary heap whose
//!   events pop in `(time, stamp, seq)` order, where the stamp is the
//!   scheduling time (the current clock unless given explicitly, so plain
//!   scheduling breaks ties in insertion order). It is generic over the
//!   event payload, so domain crates define their own event enums, drive
//!   their own loops and keep full ownership of their state: no
//!   `Box<dyn Fn>` trampolines, no interior mutability.
//! * [`SimRng`] — a self-contained xoshiro256\*\* PRNG seeded via splitmix64.
//!   Every run in the workspace is reproducible from a single `u64` seed;
//!   independent sub-streams are created with [`SimRng::fork`].
//! * [`dist`] — sampling distributions used by the traffic generators
//!   and the software-scheduler model (constant, log-normal, empirical
//!   CDF).
//! * [`rate`] — bit-rate arithmetic ([`BitRate`], transmission times).
//!
//! The design follows the session's networking guides: a synchronous,
//! poll/event-driven core in the smoltcp tradition. The workload is CPU-bound
//! simulation, which the Tokio documentation itself calls out as the case
//! where an async runtime adds nothing — so there is none here.

#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod rate;
pub mod rng;
pub mod time;

pub use dist::{Dist, EmpiricalCdf, Sample};
pub use event::EventQueue;
pub use rate::{BitRate, TxTimeCache};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
