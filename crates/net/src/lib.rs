//! # xds-net — packets and traffic classes
//!
//! The paper's *processing logic* "classifies packets into flows based on
//! configurable look-up rules and places them into their respective Virtual
//! Output Queue". The simulator moves packet descriptors, not header bytes,
//! and each packet's class is fixed where its traffic is generated (bulk or
//! short from the flow-size threshold, interactive for constant-bit-rate
//! apps), so no look-up stage runs. This crate holds the types every later
//! stage shares:
//!
//! * [`Packet`] — the simulation's packet descriptor (metadata, not
//!   payload bytes: the scheduler never looks at payloads);
//! * [`types`] — port numbers and traffic classes.

#![warn(missing_docs)]

pub mod packet;
pub mod types;

pub use packet::Packet;
pub use types::{PortNo, TrafficClass};
