//! Bit-rate arithmetic: serialization delays and byte budgets.
//!
//! All conversions use 128-bit intermediate integer math so that a 100 Gb/s
//! link and a multi-second window never overflow and every result is exact
//! (rounded up for transmission times — a partial nanosecond still occupies
//! the wire).

use crate::time::SimDuration;

/// A link or port speed in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitRate(u64);

impl BitRate {
    /// 1 Gb/s.
    pub const GBPS_1: BitRate = BitRate::from_gbps(1);
    /// 10 Gb/s — the per-port rate in the paper's 64×64 example.
    pub const GBPS_10: BitRate = BitRate::from_gbps(10);
    /// 40 Gb/s.
    pub const GBPS_40: BitRate = BitRate::from_gbps(40);
    /// 100 Gb/s — the NetFPGA-SUME aggregate the paper targets.
    pub const GBPS_100: BitRate = BitRate::from_gbps(100);

    /// Constructs from bits per second.
    ///
    /// Zero rates are rejected: a zero-speed link cannot transmit and every
    /// use of it would need a special case.
    pub const fn from_bps(bps: u64) -> BitRate {
        assert!(bps > 0, "bit rate must be positive");
        BitRate(bps)
    }

    /// Constructs from megabits per second.
    pub const fn from_mbps(mbps: u64) -> BitRate {
        BitRate::from_bps(mbps * 1_000_000)
    }

    /// Constructs from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> BitRate {
        BitRate::from_bps(gbps * 1_000_000_000)
    }

    /// Raw bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Bytes per second (rounded down).
    pub const fn bytes_per_sec(self) -> u64 {
        self.0 / 8
    }

    /// Time to serialize `bytes` onto the wire, rounded up to the next
    /// nanosecond.
    pub fn tx_time(self, bytes: u64) -> SimDuration {
        // Fast path: for packet-scale sizes the numerator fits u64, and
        // hardware 64-bit division beats the software u128 routine —
        // this runs two to three times per simulated packet.
        if bytes <= u64::MAX / 8_000_000_000 {
            let ns = (bytes * 8_000_000_000).div_ceil(self.0);
            return SimDuration::from_nanos(ns);
        }
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.0 as u128);
        SimDuration::from_nanos(ns as u64)
    }

    /// A one-entry [`tx_time`](Self::tx_time) memo for this rate. Packet
    /// streams overwhelmingly repeat one wire size (the MTU), so hot
    /// paths that serialize per packet hit the memo instead of dividing.
    pub fn tx_cache(self) -> TxTimeCache {
        TxTimeCache {
            rate: self,
            bytes: u64::MAX,
            tx: SimDuration::ZERO,
        }
    }

    /// Bytes that can be fully transmitted within `window` (rounded down).
    pub fn bytes_in(self, window: SimDuration) -> u64 {
        let bits = self.0 as u128 * window.as_nanos() as u128 / 1_000_000_000;
        (bits / 8) as u64
    }

    /// Scales the rate by a factor (e.g. EPS at 1/10 of line rate). Rounds
    /// down but never below 1 bps.
    pub fn scale(self, k: f64) -> BitRate {
        assert!(k.is_finite() && k > 0.0, "rate scale factor must be > 0");
        BitRate(((self.0 as f64 * k) as u64).max(1))
    }
}

/// A one-entry [`BitRate::tx_time`] memo (see [`BitRate::tx_cache`]):
/// returns exactly what `tx_time` returns, skipping the division while
/// consecutive lookups repeat the same byte count.
#[derive(Debug, Clone, Copy)]
pub struct TxTimeCache {
    rate: BitRate,
    bytes: u64,
    tx: SimDuration,
}

impl TxTimeCache {
    /// Serialization time of `bytes` at the cached rate.
    #[inline]
    pub fn tx_time(&mut self, bytes: u64) -> SimDuration {
        if bytes != self.bytes {
            self.bytes = bytes;
            self.tx = self.rate.tx_time(bytes);
        }
        self.tx
    }

    /// The rate this cache serializes at.
    pub fn rate(&self) -> BitRate {
        self.rate
    }
}

impl core::fmt::Display for BitRate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let bps = self.0;
        if bps >= 1_000_000_000 && bps.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gbps", bps / 1_000_000_000)
        } else if bps >= 1_000_000 {
            write!(f, "{:.1}Mbps", bps as f64 / 1e6)
        } else {
            write!(f, "{bps}bps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_known_values() {
        // 1500 B at 10 Gb/s = 1200 ns exactly.
        assert_eq!(
            BitRate::GBPS_10.tx_time(1500),
            SimDuration::from_nanos(1200)
        );
        // 64 B at 10 Gb/s = 51.2 ns, rounded up to 52.
        assert_eq!(BitRate::GBPS_10.tx_time(64), SimDuration::from_nanos(52));
        // 1 B at 1 Gb/s = 8 ns.
        assert_eq!(BitRate::GBPS_1.tx_time(1), SimDuration::from_nanos(8));
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let r = BitRate::GBPS_10;
        let window = SimDuration::from_micros(1);
        // 10 Gb/s for 1 µs = 10_000 bits = 1250 bytes.
        assert_eq!(r.bytes_in(window), 1250);
        // Round-trip: transmitting those bytes takes exactly the window.
        assert_eq!(r.tx_time(1250), window);
    }

    #[test]
    fn rate_display() {
        assert_eq!(BitRate::GBPS_10.to_string(), "10Gbps");
        assert_eq!(BitRate::from_mbps(250).to_string(), "250.0Mbps");
        assert_eq!(BitRate::from_bps(999).to_string(), "999bps");
    }

    #[test]
    fn scale_rounds_and_stays_positive() {
        assert_eq!(BitRate::GBPS_10.scale(0.1), BitRate::GBPS_1);
        assert!(BitRate::from_bps(1).scale(0.001).bps() >= 1);
    }

    #[test]
    #[should_panic(expected = "bit rate must be positive")]
    fn zero_rate_rejected() {
        BitRate::from_bps(0);
    }
}
