//! Shared identifier and enum types.

use core::fmt;

/// A switch port (equivalently, the host attached to it: the testbed is a
/// single ToR whose port *i* connects host *i*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u16);

impl PortNo {
    /// The port as a matrix index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for PortNo {
    fn from(i: usize) -> Self {
        assert!(i <= u16::MAX as usize, "port index {i} out of range");
        PortNo(i as u16)
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Traffic class, fixed where the traffic is generated; drives the EPS/OCS
/// mapping.
///
/// The paper: "the OCS is used to serve long bursts of traffic and the EPS
/// is used to serve the remaining traffic and short bursts."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrafficClass {
    /// Interactive, latency-critical packets (VOIP, gaming). Always EPS, at
    /// the highest priority.
    Interactive,
    /// Short flows / residual traffic. EPS.
    #[default]
    Short,
    /// Long bursts / elephants. OCS candidates, buffered in VOQs until
    /// granted.
    Bulk,
}

impl TrafficClass {
    /// All classes, highest priority first.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Interactive,
        TrafficClass::Short,
        TrafficClass::Bulk,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Interactive => "interactive",
            TrafficClass::Short => "short",
            TrafficClass::Bulk => "bulk",
        }
    }

    /// Whether this class is a circuit (OCS) candidate.
    pub fn is_circuit_candidate(self) -> bool {
        matches!(self, TrafficClass::Bulk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_round_trip() {
        let p = PortNo::from(7usize);
        assert_eq!(p.index(), 7);
        assert_eq!(p.to_string(), "p7");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_port_panics() {
        let _ = PortNo::from(70_000usize);
    }

    #[test]
    fn class_priorities_and_candidates() {
        assert!(TrafficClass::Bulk.is_circuit_candidate());
        assert!(!TrafficClass::Interactive.is_circuit_candidate());
        assert!(!TrafficClass::Short.is_circuit_candidate());
        assert_eq!(TrafficClass::ALL[0], TrafficClass::Interactive);
    }
}
