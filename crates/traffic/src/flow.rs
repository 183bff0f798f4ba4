//! The flow generator: Poisson arrivals × traffic matrix × size
//! distribution, calibrated to an offered load.

use xds_net::{PortNo, TrafficClass};
use xds_sim::{BitRate, SimDuration, SimRng, SimTime};

use crate::matrix::TrafficMatrix;
use crate::size_dist::FlowSizeDist;

/// One flow to be injected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Unique flow id.
    pub id: u64,
    /// Source port/host.
    pub src: PortNo,
    /// Destination port/host.
    pub dst: PortNo,
    /// Flow size in bytes.
    pub bytes: u64,
    /// When the flow arrives at its source host.
    pub start: SimTime,
    /// Traffic class (derived from size against the bulk threshold).
    pub class: TrafficClass,
}

/// The mean gap of the Poisson flow arrivals that offer `load` × the
/// aggregate capacity of `n` ports at `line_rate`, rounded to whole
/// nanoseconds as [`FlowGenerator::with_load`] uses it. Errs when the
/// arrival rate is not finite and positive, or when the gap rounds to
/// 0 ns: no arrival process can be drawn from either.
pub fn mean_flow_gap(
    load: f64,
    n: usize,
    line_rate: BitRate,
    sizes: &FlowSizeDist,
) -> Result<SimDuration, String> {
    let agg_bytes_per_sec = load * n as f64 * line_rate.bytes_per_sec() as f64;
    let flows_per_sec = agg_bytes_per_sec / sizes.mean_bytes();
    if !(flows_per_sec.is_finite() && flows_per_sec > 0.0) {
        return Err(format!(
            "arrival rate must be positive and finite, got {flows_per_sec} flows/s"
        ));
    }
    let gap = SimDuration::from_secs_f64(1.0 / flows_per_sec);
    if gap == SimDuration::ZERO {
        return Err(format!(
            "mean flow gap rounds to 0 ns ({flows_per_sec:.3e} flows/s)"
        ));
    }
    Ok(gap)
}

/// Generates an endless, time-ordered stream of flows.
#[derive(Debug, Clone)]
pub struct FlowGenerator {
    matrix: TrafficMatrix,
    sizes: FlowSizeDist,
    /// Mean gap of the Poisson flow-arrival process, rounded to whole
    /// nanoseconds: every gap draw scales this rounded value, so the pinned
    /// traces depend on the rounding.
    mean_gap: SimDuration,
    rng: SimRng,
    next_id: u64,
    clock: SimTime,
    /// Flows at or above this size are classed [`TrafficClass::Bulk`]
    /// (OCS candidates); smaller ones are [`TrafficClass::Short`].
    pub bulk_threshold: u64,
}

impl FlowGenerator {
    /// Default boundary between "short bursts" (EPS) and "long bursts"
    /// (OCS candidates): 100 KB, the conventional mice/elephant split.
    pub const DEFAULT_BULK_THRESHOLD: u64 = 100_000;

    /// Creates a generator producing `load` × aggregate capacity of
    /// offered bytes: with `n` ports at `line_rate` each, the aggregate
    /// byte arrival rate is `load · n · line_rate/8`, converted to the
    /// Poisson flow-arrival rate via the size distribution's mean.
    ///
    /// # Panics
    /// Panics if `load` is not finite and positive, or if
    /// [`mean_flow_gap`] rejects it.
    pub fn with_load(
        matrix: TrafficMatrix,
        sizes: FlowSizeDist,
        load: f64,
        line_rate: BitRate,
        rng: SimRng,
    ) -> Self {
        assert!(load > 0.0 && load.is_finite(), "load must be positive");
        let mean_gap =
            mean_flow_gap(load, matrix.n(), line_rate, &sizes).unwrap_or_else(|e| panic!("{e}"));
        FlowGenerator {
            matrix,
            sizes,
            mean_gap,
            rng,
            next_id: 0,
            clock: SimTime::ZERO,
            bulk_threshold: Self::DEFAULT_BULK_THRESHOLD,
        }
    }

    /// Sets the bulk threshold (builder style).
    pub fn with_bulk_threshold(mut self, bytes: u64) -> Self {
        self.bulk_threshold = bytes;
        self
    }

    /// Replaces the traffic matrix mid-run (hotspot rotation in E6).
    pub fn set_matrix(&mut self, matrix: TrafficMatrix) {
        assert_eq!(matrix.n(), self.matrix.n(), "port count must not change");
        self.matrix = matrix;
    }

    /// The traffic matrix currently in use.
    pub fn matrix(&self) -> &TrafficMatrix {
        &self.matrix
    }

    /// Generates the next flow; `start` times are non-decreasing.
    pub fn next_flow(&mut self) -> FlowSpec {
        let gap = self.rng.exp(self.mean_gap.as_secs_f64());
        self.clock += SimDuration::from_secs_f64(gap);
        let (src, dst) = self.matrix.sample_pair(&mut self.rng);
        let bytes = self.sizes.sample_bytes(&mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        FlowSpec {
            id,
            src: PortNo::from(src),
            dst: PortNo::from(dst),
            bytes,
            start: self.clock,
            class: if bytes >= self.bulk_threshold {
                TrafficClass::Bulk
            } else {
                TrafficClass::Short
            },
        }
    }

    /// Materializes all flows starting before `horizon` (inclusive of none
    /// after), for harnesses that want a static workload.
    pub fn flows_until(&mut self, horizon: SimTime) -> Vec<FlowSpec> {
        let mut out = Vec::new();
        loop {
            let f = self.next_flow();
            if f.start > horizon {
                break;
            }
            out.push(f);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(load: f64) -> FlowGenerator {
        FlowGenerator::with_load(
            TrafficMatrix::uniform(8),
            FlowSizeDist::Fixed(10_000),
            load,
            BitRate::GBPS_10,
            SimRng::new(1),
        )
    }

    #[test]
    fn offered_load_matches_request() {
        let mut g = generator(0.5);
        let horizon = SimTime::from_millis(20);
        let flows = g.flows_until(horizon);
        let bytes: u64 = flows.iter().map(|f| f.bytes).sum();
        let offered_gbps = bytes as f64 * 8.0 / horizon.as_secs_f64() / 1e9;
        // 8 ports × 10G × 0.5 = 40 Gb/s aggregate.
        assert!(
            (offered_gbps - 40.0).abs() / 40.0 < 0.05,
            "offered {offered_gbps} Gb/s"
        );
    }

    #[test]
    fn poisson_rate_matches_over_many_samples() {
        // 8 ports × 10 Gb/s × 0.5 load / 10 kB flows = 500k flows/s.
        let mut g = generator(0.5);
        let n = 100_000;
        let last = (0..n).map(|_| g.next_flow().start).last().unwrap();
        let rate = n as f64 / last.as_secs_f64();
        assert!((rate - 500_000.0).abs() / 500_000.0 < 0.02, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_rejected() {
        // A zero mean flow size asks for an infinite flow rate.
        FlowGenerator::with_load(
            TrafficMatrix::uniform(8),
            FlowSizeDist::Fixed(0),
            0.5,
            BitRate::GBPS_10,
            SimRng::new(1),
        );
    }

    #[test]
    fn mean_gap_rejects_rates_no_gap_can_draw() {
        // 8 ports × 1.25 GB/s × load / 10 kB flows: the gap is
        // 1 µs / load, so it rounds to 1 ns up to load 2000 and to 0 ns
        // past it.
        let gap = |load| mean_flow_gap(load, 8, BitRate::GBPS_10, &FlowSizeDist::Fixed(10_000));
        assert_eq!(gap(0.5), Ok(SimDuration::from_micros(2)));
        assert_eq!(gap(1900.0), Ok(SimDuration::from_nanos(1)));
        let err = gap(2100.0).unwrap_err();
        assert!(err.contains("rounds to 0 ns"), "{err}");
        for load in [1e300, f64::MAX, f64::INFINITY] {
            let err = gap(load).unwrap_err();
            assert!(err.contains("arrival rate"), "load {load}: {err}");
        }
    }

    #[test]
    fn starts_are_monotonic_and_ids_unique() {
        let mut g = generator(0.8);
        let mut last = SimTime::ZERO;
        // BTreeSet: membership only, but deterministic-core code (tests
        // included) avoids randomly seeded hash collections wholesale.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let f = g.next_flow();
            assert!(f.start >= last);
            last = f.start;
            assert!(seen.insert(f.id), "duplicate flow id {}", f.id);
            assert_ne!(f.src, f.dst, "self-flows are meaningless");
        }
    }

    #[test]
    fn class_follows_threshold() {
        let mut g = FlowGenerator::with_load(
            TrafficMatrix::uniform(4),
            FlowSizeDist::WebSearch,
            0.3,
            BitRate::GBPS_10,
            SimRng::new(3),
        )
        .with_bulk_threshold(50_000);
        for _ in 0..1000 {
            let f = g.next_flow();
            if f.bytes >= 50_000 {
                assert_eq!(f.class, TrafficClass::Bulk);
            } else {
                assert_eq!(f.class, TrafficClass::Short);
            }
        }
    }

    #[test]
    fn matrix_swap_changes_destinations() {
        let mut g = FlowGenerator::with_load(
            TrafficMatrix::permutation(4, 1),
            FlowSizeDist::Fixed(1000),
            0.5,
            BitRate::GBPS_10,
            SimRng::new(4),
        );
        for _ in 0..100 {
            let f = g.next_flow();
            assert_eq!(f.dst.index(), (f.src.index() + 1) % 4);
        }
        g.set_matrix(TrafficMatrix::permutation(4, 2));
        for _ in 0..100 {
            let f = g.next_flow();
            assert_eq!(f.dst.index(), (f.src.index() + 2) % 4);
        }
    }

    #[test]
    fn same_seed_same_workload() {
        let a: Vec<FlowSpec> = {
            let mut g = generator(0.5);
            (0..100).map(|_| g.next_flow()).collect()
        };
        let b: Vec<FlowSpec> = {
            let mut g = generator(0.5);
            (0..100).map(|_| g.next_flow()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn flows_until_respects_horizon() {
        let mut g = generator(0.5);
        let flows = g.flows_until(SimTime::from_micros(500));
        assert!(!flows.is_empty());
        assert!(flows.iter().all(|f| f.start <= SimTime::from_micros(500)));
        // Next flow from the generator continues after the horizon.
        let next = g.next_flow();
        assert!(
            next.start + SimDuration::ZERO > SimTime::from_micros(500)
                || next.start <= SimTime::from_micros(500)
        );
    }
}
