//! The jitter estimator for interactive (VOIP / gaming) traffic.
//!
//! The paper's §2 argues that slow (software/host-buffered) scheduling
//! "can increase the overall traffic latency and jitter of widely used
//! applications (i.e., VOIP, multiuser gaming etc.)". Experiment E4
//! quantifies that with the estimator VOIP actually uses: the RFC 3550
//! interarrival jitter.

use xds_sim::SimTime;

/// RFC 3550 §6.4.1 interarrival jitter: a smoothed estimate of the
/// *variation in transit time* between consecutive packets,
/// `J += (|D| - J) / 16`.
#[derive(Debug, Clone, Default)]
pub struct Rfc3550Jitter {
    jitter_ns: f64,
    last_transit_ns: Option<i128>,
    samples: u64,
    max_abs_d_ns: u64,
}

impl Rfc3550Jitter {
    /// Creates an estimator with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one packet observation (its send and receive timestamps).
    pub fn on_packet(&mut self, sent: SimTime, received: SimTime) {
        let transit = received.as_nanos() as i128 - sent.as_nanos() as i128;
        if let Some(prev) = self.last_transit_ns {
            let d = (transit - prev).unsigned_abs() as u64;
            self.max_abs_d_ns = self.max_abs_d_ns.max(d);
            self.jitter_ns += (d as f64 - self.jitter_ns) / 16.0;
            self.samples += 1;
        }
        self.last_transit_ns = Some(transit);
    }

    /// Current smoothed jitter estimate in nanoseconds.
    pub fn jitter_ns(&self) -> f64 {
        self.jitter_ns
    }

    /// Largest single transit-time delta observed, in nanoseconds.
    pub fn max_delta_ns(&self) -> u64 {
        self.max_abs_d_ns
    }

    /// Number of deltas incorporated (packets − 1).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn perfectly_paced_stream_has_zero_jitter() {
        let mut j = Rfc3550Jitter::new();
        // Constant transit of 50 ns, packets every 20 µs.
        for i in 0..100u64 {
            j.on_packet(t(i * 20_000), t(i * 20_000 + 50));
        }
        assert_eq!(j.jitter_ns(), 0.0);
        assert_eq!(j.max_delta_ns(), 0);
        assert_eq!(j.samples(), 99);
    }

    #[test]
    fn transit_variation_raises_jitter() {
        let mut j = Rfc3550Jitter::new();
        // Transit alternates 50 ns / 1050 ns → |D| = 1000 each step.
        for i in 0..200u64 {
            let transit = if i % 2 == 0 { 50 } else { 1050 };
            j.on_packet(t(i * 20_000), t(i * 20_000 + transit));
        }
        // The EWMA converges to |D| = 1000.
        assert!(
            (j.jitter_ns() - 1000.0).abs() < 50.0,
            "jitter {}",
            j.jitter_ns()
        );
        assert_eq!(j.max_delta_ns(), 1000);
    }

    #[test]
    fn jitter_converges_per_rfc_formula() {
        let mut j = Rfc3550Jitter::new();
        j.on_packet(t(0), t(10));
        j.on_packet(t(100), t(130)); // transit 30, D = 20 → J = 20/16 = 1.25
        assert!((j.jitter_ns() - 1.25).abs() < 1e-9);
        j.on_packet(t(200), t(230)); // transit 30, D = 0 → J = 1.25 - 1.25/16
        assert!((j.jitter_ns() - (1.25 - 1.25 / 16.0)).abs() < 1e-9);
    }
}
