//! The simulation's packet descriptor.
//!
//! Scheduler behaviour depends only on packet *metadata* (size, ports,
//! class, timestamps), so the simulator moves descriptors rather than
//! payload bytes — the standard technique for packet-level switch
//! simulation at millions of packets per run.

use xds_sim::SimTime;

use crate::types::{PortNo, TrafficClass};

/// A packet descriptor as carried through hosts, VOQs, the OCS and the EPS.
///
/// It has no packet id: `(flow, seq)` names a packet, and nothing in the
/// simulation needs more. 32 bytes, so two share a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: u64,
    /// Source port / host.
    pub src: PortNo,
    /// Destination port / host.
    pub dst: PortNo,
    /// Wire size in bytes, headers included.
    pub bytes: u32,
    /// Traffic class, fixed where the traffic is generated.
    pub class: TrafficClass,
    /// When the application produced the packet.
    pub created: SimTime,
    /// Sequence number within the flow (0-based).
    pub seq: u32,
}

impl Packet {
    /// Convenience constructor used by generators and tests.
    pub fn new(
        flow: u64,
        src: PortNo,
        dst: PortNo,
        bytes: u32,
        class: TrafficClass,
        created: SimTime,
        seq: u32,
    ) -> Self {
        Packet {
            flow,
            src,
            dst,
            bytes,
            class,
            created,
            seq,
        }
    }

    /// Latency accumulated between creation and `now`.
    pub fn age_at(&self, now: SimTime) -> xds_sim::SimDuration {
        now.saturating_since(self.created)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xds_sim::SimDuration;

    #[test]
    fn age_is_measured_from_creation() {
        let p = Packet::new(
            9,
            PortNo(0),
            PortNo(3),
            1500,
            TrafficClass::Bulk,
            SimTime::from_nanos(100),
            0,
        );
        assert_eq!(
            p.age_at(SimTime::from_nanos(350)),
            SimDuration::from_nanos(250)
        );
        // Clock skew can make "now" earlier than creation; age saturates.
        assert_eq!(p.age_at(SimTime::from_nanos(50)), SimDuration::ZERO);
    }

    #[test]
    fn descriptor_is_compact() {
        // The simulator moves millions of these through pools and event
        // queues; keep the descriptor at half a cache line.
        assert!(std::mem::size_of::<Packet>() <= 32);
    }
}
