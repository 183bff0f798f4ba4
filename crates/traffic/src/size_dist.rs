//! Flow-size distributions.
//!
//! The two named empirical CDFs follow the shapes reported in the standard
//! data-center measurement studies used by every hybrid-switch evaluation:
//!
//! * **web-search** (after the DCTCP workload): mostly small request/
//!   response flows with a moderate tail into tens of MB;
//! * **data-mining** (after the VL2 workload): extremely heavy-tailed —
//!   half the flows are under ~1 KB yet most *bytes* live in multi-MB to
//!   GB background flows.
//!
//! These are intentionally *shapes*, not exact reprints: synthetic CDFs
//! that keep the published mice/elephant byte split, which is what drives
//! EPS/OCS partitioning.

use xds_sim::{Dist, EmpiricalCdf, Sample, SimRng};

/// A flow-size sampler (bytes).
#[derive(Debug, Clone, PartialEq)]
pub enum FlowSizeDist {
    /// Web-search-like (DCTCP shape).
    WebSearch,
    /// Data-mining-like (VL2 shape).
    DataMining,
    /// All flows the same size.
    Fixed(u64),
    /// Any custom distribution over bytes.
    Custom(Dist),
}

impl FlowSizeDist {
    fn cdf(&self) -> Dist {
        match self {
            FlowSizeDist::WebSearch => Dist::Empirical(
                EmpiricalCdf::new(vec![
                    (6_000.0, 0.15),
                    (13_000.0, 0.30),
                    (19_000.0, 0.50),
                    (33_000.0, 0.60),
                    (133_000.0, 0.70),
                    (667_000.0, 0.80),
                    (1_300_000.0, 0.90),
                    (6_700_000.0, 0.95),
                    (20_000_000.0, 0.98),
                    (30_000_000.0, 1.00),
                ])
                .expect("static CDF is well-formed"),
            ),
            FlowSizeDist::DataMining => Dist::Empirical(
                EmpiricalCdf::new(vec![
                    (100.0, 0.10),
                    (300.0, 0.30),
                    (1_000.0, 0.50),
                    (10_000.0, 0.60),
                    (100_000.0, 0.70),
                    (1_000_000.0, 0.80),
                    (10_000_000.0, 0.90),
                    (100_000_000.0, 0.97),
                    (1_000_000_000.0, 1.00),
                ])
                .expect("static CDF is well-formed"),
            ),
            FlowSizeDist::Fixed(b) => Dist::Constant(*b as f64),
            FlowSizeDist::Custom(d) => d.clone(),
        }
    }

    /// Draws one flow size in bytes (minimum 1).
    pub fn sample_bytes(&self, rng: &mut SimRng) -> u64 {
        (self.cdf().sample(rng).round() as u64).max(1)
    }

    /// Mean flow size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        self.cdf()
            .mean()
            .expect("all supported size distributions have finite means")
    }

    /// Label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            FlowSizeDist::WebSearch => "websearch",
            FlowSizeDist::DataMining => "datamining",
            FlowSizeDist::Fixed(_) => "fixed",
            FlowSizeDist::Custom(_) => "custom",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &FlowSizeDist, n: usize) -> f64 {
        let mut rng = SimRng::new(42);
        (0..n).map(|_| d.sample_bytes(&mut rng) as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn websearch_is_mouse_dominated_but_byte_heavy() {
        let mut rng = SimRng::new(1);
        let d = FlowSizeDist::WebSearch;
        let n = 50_000;
        let sizes: Vec<u64> = (0..n).map(|_| d.sample_bytes(&mut rng)).collect();
        let mice = sizes.iter().filter(|&&s| s < 100_000).count() as f64 / n as f64;
        // ~2/3 of web-search flows are under 100 KB…
        assert!(mice > 0.55 && mice < 0.80, "mice fraction {mice}");
        // …but large flows dominate the bytes.
        let total: u64 = sizes.iter().sum();
        let big: u64 = sizes.iter().filter(|&&s| s >= 1_000_000).sum();
        assert!(
            big as f64 / total as f64 > 0.5,
            "elephant byte share {}",
            big as f64 / total as f64
        );
    }

    #[test]
    fn datamining_is_heavier_tailed_than_websearch() {
        let ws = sample_mean(&FlowSizeDist::WebSearch, 100_000);
        let dm = sample_mean(&FlowSizeDist::DataMining, 100_000);
        assert!(
            dm > 2.0 * ws,
            "datamining mean {dm} should dwarf websearch mean {ws}"
        );
        // Sampled means track analytic means.
        assert!((ws - FlowSizeDist::WebSearch.mean_bytes()).abs() / ws < 0.1);
        assert!((dm - FlowSizeDist::DataMining.mean_bytes()).abs() / dm < 0.15);
    }

    #[test]
    fn fixed_sizes_are_exact() {
        let d = FlowSizeDist::Fixed(1_000_000);
        let mut rng = SimRng::new(2);
        for _ in 0..10 {
            assert_eq!(d.sample_bytes(&mut rng), 1_000_000);
        }
        assert_eq!(d.mean_bytes(), 1_000_000.0);
    }

    #[test]
    fn custom_distribution_is_respected() {
        let d = FlowSizeDist::Custom(Dist::Uniform {
            lo: 100.0,
            hi: 200.0,
        });
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let s = d.sample_bytes(&mut rng);
            assert!((100..=200).contains(&s));
        }
    }

    #[test]
    fn sizes_are_never_zero() {
        let d = FlowSizeDist::Custom(Dist::Constant(0.2));
        let mut rng = SimRng::new(4);
        assert_eq!(d.sample_bytes(&mut rng), 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FlowSizeDist::WebSearch.label(), "websearch");
        assert_eq!(FlowSizeDist::DataMining.label(), "datamining");
    }
}
