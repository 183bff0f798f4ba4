//! # xds-net — packets, headers and classification
//!
//! The paper's *processing logic* "classifies packets into flows based on
//! configurable look-up rules and places them into their respective Virtual
//! Output Queue". This crate provides everything up to the VOQ:
//!
//! * [`Packet`] — the simulation's packet descriptor (metadata, not
//!   payload bytes: the scheduler never looks at payloads);
//! * [`wire`] — smoltcp-style typed header `Repr`s with `parse`/`emit`
//!   for Ethernet II, IPv4, UDP and TCP, so look-up rules can be exercised
//!   against real header bytes (and the classifier unit-tested on frames it
//!   would see on a NetFPGA port);
//! * [`FiveTuple`] and [`classify`] — a TCAM-like priority rule table with
//!   prefix, range and exact matchers, plus a longest-prefix-match trie;
//! * [`types`] — port numbers, traffic classes and protocol identifiers
//!   shared across the workspace.

#![warn(missing_docs)]

pub mod classify;
pub mod fivetuple;
pub mod packet;
pub mod types;
pub mod wire;

pub use classify::{Action, LpmTable, Rule, RuleMatch, RuleTable};
pub use fivetuple::FiveTuple;
pub use packet::Packet;
pub use types::{IpProtocol, PortNo, TrafficClass};
pub use wire::{Ipv4Addr, MacAddr, WireError};
