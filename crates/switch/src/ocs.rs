//! Optical circuit switch model.
//!
//! The model captures the two properties every claim in the paper rests on:
//!
//! 1. **Circuit semantics** — while a configuration is active, input *i*
//!    reaches exactly the output the permutation maps it to (at full line
//!    rate, no buffering inside the switch);
//! 2. **Reconfiguration darkness** — between configurations, for a
//!    technology-dependent switching time (nanoseconds for PLZT switches
//!    [paper ref 1], milliseconds for 3D-MEMS), **no packet can pass** and
//!    in-flight traffic must be buffered upstream or dropped.
//!
//! Misrouting (sending on an unconfigured circuit, or during darkness) is a
//! hard error: on the real device that light would land on the wrong port.
//! Detecting it here is what lets integration tests prove the framework's
//! synchronization is correct.

use xds_sim::{SimDuration, SimTime};

use crate::perm::Permutation;

/// Errors from illegal transmissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OcsError {
    /// Transmission attempted while the switch is reconfiguring.
    Dark {
        /// When the switch becomes usable again.
        until: SimTime,
    },
    /// Input is not connected to the requested output in the active
    /// configuration.
    NotConnected {
        /// The offending input port.
        input: usize,
        /// The requested output port.
        output: usize,
    },
}

impl core::fmt::Display for OcsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OcsError::Dark { until } => write!(f, "switch dark until {until}"),
            OcsError::NotConnected { input, output } => {
                write!(f, "no circuit {input} -> {output}")
            }
        }
    }
}

impl std::error::Error for OcsError {}

/// Lifetime statistics of the OCS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OcsStats {
    /// Completed reconfigurations.
    pub reconfigurations: u64,
    /// Total time spent dark.
    pub dark_time: SimDuration,
    /// Bytes carried on circuits.
    pub delivered_bytes: u64,
    /// Packets carried on circuits.
    pub delivered_packets: u64,
    /// Rejected transmissions (dark or misrouted) — should be zero in a
    /// correctly synchronized system.
    pub rejected: u64,
}

/// The optical circuit switch.
///
/// State is kept flat — the active configuration, the pending one, and an
/// optional dark deadline — so that reconfiguring **reuses** the two
/// permutation buffers instead of allocating: [`Ocs::configure`] borrows
/// the caller's permutation and copies it into the pending buffer, and
/// activation is a pointer swap. The OCS reconfigures once per schedule
/// entry per epoch; on large fabrics this path must not touch the
/// allocator.
#[derive(Debug, Clone)]
pub struct Ocs {
    n: usize,
    reconfig: SimDuration,
    /// The live configuration (meaningful while not dark).
    active: Permutation,
    /// The configuration being applied (meaningful while dark).
    next: Permutation,
    /// End of the current dark window, if reconfiguring.
    dark_until: Option<SimTime>,
    stats: OcsStats,
}

impl Ocs {
    /// Creates a switch with `n` ports and the given reconfiguration
    /// (switching) time, starting with no circuits configured.
    pub fn new(n: usize, reconfig: SimDuration) -> Self {
        assert!(n > 0, "OCS needs at least one port");
        Ocs {
            n,
            reconfig,
            active: Permutation::empty(n),
            next: Permutation::empty(n),
            dark_until: None,
            stats: OcsStats::default(),
        }
    }

    /// Port count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configured switching (reconfiguration) time.
    pub fn reconfig_time(&self) -> SimDuration {
        self.reconfig
    }

    /// Begins applying a new configuration at `now`; returns the instant
    /// the circuits become usable. The switch is dark in between. The
    /// permutation is copied into the switch's pending buffer — no
    /// allocation when the port count is unchanged (always, in practice).
    ///
    /// # Panics
    /// Panics if the permutation's port count differs from the switch's.
    pub fn configure(&mut self, perm: &Permutation, now: SimTime) -> SimTime {
        assert_eq!(perm.n(), self.n, "configuration port count mismatch");
        let until = now + self.reconfig;
        self.stats.reconfigurations += 1;
        self.stats.dark_time += self.reconfig;
        self.next.copy_from(perm);
        self.dark_until = Some(until);
        until
    }

    /// Advances internal state to `now` (dark → active transitions).
    /// Callers that poll (rather than schedule an event at the activation
    /// instant) use this.
    pub fn tick(&mut self, now: SimTime) {
        if let Some(until) = self.dark_until {
            if now >= until {
                core::mem::swap(&mut self.active, &mut self.next);
                self.dark_until = None;
            }
        }
    }

    /// Whether the switch is dark (reconfiguring) at `now`.
    pub fn is_dark(&self, now: SimTime) -> bool {
        matches!(self.dark_until, Some(until) if now < until)
    }

    /// The output circuit-connected to `input` at `now`, if any.
    pub fn output_for(&mut self, input: usize, now: SimTime) -> Option<usize> {
        self.tick(now);
        if self.dark_until.is_some() {
            None
        } else {
            self.active.output_of(input)
        }
    }

    /// The currently active permutation (after advancing to `now`).
    pub fn active_permutation(&mut self, now: SimTime) -> Option<&Permutation> {
        self.tick(now);
        if self.dark_until.is_some() {
            None
        } else {
            Some(&self.active)
        }
    }

    /// Validates and accounts a transmission of `bytes` from `input` to
    /// `output` starting at `now`.
    pub fn transmit(
        &mut self,
        input: usize,
        output: usize,
        bytes: u64,
        now: SimTime,
    ) -> Result<(), OcsError> {
        self.transmit_batch(input, output, bytes, 1, now)
    }

    /// [`transmit`](Self::transmit) for a burst of `packets` packets
    /// totalling `bytes`, all starting on the same circuit at `now` —
    /// grant execution moves whole VOQ bursts per slot, and validating
    /// the circuit once per burst instead of once per packet keeps that
    /// hot path off the permutation lookup. Accounting is identical to
    /// `packets` individual calls (including `rejected` on failure).
    pub fn transmit_batch(
        &mut self,
        input: usize,
        output: usize,
        bytes: u64,
        packets: u64,
        now: SimTime,
    ) -> Result<(), OcsError> {
        self.tick(now);
        if let Some(until) = self.dark_until {
            self.stats.rejected += packets;
            return Err(OcsError::Dark { until });
        }
        if self.active.output_of(input) == Some(output) {
            self.stats.delivered_bytes += bytes;
            self.stats.delivered_packets += packets;
            Ok(())
        } else {
            self.stats.rejected += packets;
            Err(OcsError::NotConnected { input, output })
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> OcsStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn starts_with_no_circuits() {
        let mut ocs = Ocs::new(4, SimDuration::from_nanos(100));
        assert!(!ocs.is_dark(t(0)));
        assert_eq!(ocs.output_for(0, t(0)), None);
        assert_eq!(
            ocs.transmit(0, 1, 100, t(0)),
            Err(OcsError::NotConnected {
                input: 0,
                output: 1
            })
        );
    }

    #[test]
    fn configuration_takes_effect_after_dark_window() {
        let mut ocs = Ocs::new(4, SimDuration::from_nanos(100));
        let active_at = ocs.configure(&Permutation::identity(4), t(50));
        assert_eq!(active_at, t(150));
        assert!(ocs.is_dark(t(149)));
        assert_eq!(ocs.output_for(0, t(149)), None);
        assert!(matches!(
            ocs.transmit(0, 0, 100, t(100)),
            Err(OcsError::Dark { .. })
        ));
        // At the activation instant, circuits carry traffic.
        assert_eq!(ocs.output_for(0, t(150)), Some(0));
        ocs.transmit(0, 0, 1500, t(150)).unwrap();
        let s = ocs.stats();
        assert_eq!(s.reconfigurations, 1);
        assert_eq!(s.dark_time, SimDuration::from_nanos(100));
        assert_eq!(s.delivered_bytes, 1500);
        assert_eq!(s.rejected, 1); // the transmission attempted while dark
    }

    #[test]
    fn misrouting_is_detected() {
        let mut ocs = Ocs::new(4, SimDuration::from_nanos(10));
        ocs.configure(&Permutation::rotation(4, 1), t(0));
        assert_eq!(ocs.output_for(0, t(10)), Some(1));
        assert!(ocs.transmit(0, 2, 64, t(10)).is_err());
        assert!(ocs.transmit(0, 1, 64, t(10)).is_ok());
    }

    #[test]
    fn reconfiguration_replaces_circuits() {
        let mut ocs = Ocs::new(3, SimDuration::from_nanos(10));
        ocs.configure(&Permutation::identity(3), t(0));
        assert_eq!(ocs.output_for(1, t(10)), Some(1));
        ocs.configure(&Permutation::rotation(3, 1), t(20));
        // Dark again during the swap.
        assert!(ocs.is_dark(t(25)));
        assert_eq!(ocs.output_for(1, t(30)), Some(2));
        assert_eq!(ocs.stats().reconfigurations, 2);
        assert_eq!(ocs.stats().dark_time, SimDuration::from_nanos(20));
    }

    #[test]
    fn identical_reconfiguration_still_pays_the_dark_window() {
        let mut ocs = Ocs::new(2, SimDuration::from_micros(1));
        let p = Permutation::identity(2);
        let first = ocs.configure(&p, t(0));
        ocs.tick(first);
        let second = ocs.configure(&p, first);
        assert_eq!(second, first + SimDuration::from_micros(1));
        assert_eq!(ocs.stats().reconfigurations, 2);
    }

    #[test]
    fn nanosecond_vs_millisecond_switching_dark_time() {
        // The paper's core contrast: same schedule cadence, 6 orders of
        // magnitude difference in dark time.
        let mut fast = Ocs::new(64, SimDuration::from_nanos(10));
        let mut slow = Ocs::new(64, SimDuration::from_millis(10));
        let mut now = t(0);
        for k in 0..5 {
            let f = fast.configure(&Permutation::rotation(64, k + 1), now);
            let s = slow.configure(&Permutation::rotation(64, k + 1), now);
            now = f.max(s) + SimDuration::from_micros(100);
        }
        assert_eq!(fast.stats().dark_time, SimDuration::from_nanos(50));
        assert_eq!(slow.stats().dark_time, SimDuration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "port count mismatch")]
    fn wrong_port_count_panics() {
        let mut ocs = Ocs::new(4, SimDuration::from_nanos(10));
        ocs.configure(&Permutation::identity(8), t(0));
    }
}
