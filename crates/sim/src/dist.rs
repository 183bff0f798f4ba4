//! Sampling distributions for workload generation.
//!
//! The traffic generators need heavy-tailed flow sizes (empirical CDFs
//! lifted from published data-center measurement studies), and the
//! software-scheduler model needs log-normal I/O and OS jitter. All
//! samplers draw from [`SimRng`] so runs stay deterministic.

use crate::rng::SimRng;

/// Anything that can produce an `f64` sample.
pub trait Sample {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean, if known in closed form. Used by load
    /// calculations in the traffic generators.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// A closed set of distributions, enum-dispatched so workload configs stay
/// plain data (no trait objects to clone or compare).
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always returns the same value.
    Constant(f64),
    /// Log-normal with the given parameters of the underlying normal.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal, ≥ 0.
        sigma: f64,
    },
    /// Piecewise-linear empirical CDF.
    Empirical(EmpiricalCdf),
}

impl Dist {
    /// Validates parameters, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Dist::Constant(v) => {
                if !v.is_finite() {
                    return Err(format!("constant must be finite, got {v}"));
                }
            }
            Dist::LogNormal { mu, sigma } => {
                if !(mu.is_finite() && sigma.is_finite() && *sigma >= 0.0) {
                    return Err(format!(
                        "lognormal needs finite mu and sigma ≥ 0, got ({mu}, {sigma})"
                    ));
                }
            }
            Dist::Empirical(cdf) => cdf.validate()?,
        }
        Ok(())
    }
}

impl Sample for Dist {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::LogNormal { mu, sigma } => (mu + sigma * rng.gaussian()).exp(),
            Dist::Empirical(cdf) => cdf.sample(rng),
        }
    }

    fn mean(&self) -> Option<f64> {
        match self {
            Dist::Constant(v) => Some(*v),
            Dist::LogNormal { mu, sigma } => Some((mu + 0.5 * sigma * sigma).exp()),
            Dist::Empirical(cdf) => Some(cdf.mean()),
        }
    }
}

/// A piecewise-linear inverse-CDF sampler built from `(value, cumulative
/// probability)` knots, the standard way to encode published flow-size
/// distributions (web-search, data-mining, …).
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    points: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Builds a CDF from knots. Knots must be non-empty, have strictly
    /// increasing values, non-decreasing probabilities, and end at
    /// probability 1.0. A starting knot at probability 0.0 is implied at the
    /// first value if not present.
    pub fn new(mut points: Vec<(f64, f64)>) -> Result<Self, String> {
        if points.is_empty() {
            return Err("empirical CDF needs at least one knot".into());
        }
        if points[0].1 > 0.0 {
            points.insert(0, (points[0].0, 0.0));
        }
        let cdf = EmpiricalCdf { points };
        cdf.validate()?;
        Ok(cdf)
    }

    fn validate(&self) -> Result<(), String> {
        let pts = &self.points;
        for w in pts.windows(2) {
            if w[1].0 < w[0].0 {
                return Err(format!(
                    "CDF values must be non-decreasing: {} after {}",
                    w[1].0, w[0].0
                ));
            }
            if w[1].1 < w[0].1 {
                return Err(format!(
                    "CDF probabilities must be non-decreasing: {} after {}",
                    w[1].1, w[0].1
                ));
            }
        }
        let last = pts.last().expect("non-empty");
        if (last.1 - 1.0).abs() > 1e-9 {
            return Err(format!(
                "CDF must end at probability 1.0, ends at {}",
                last.1
            ));
        }
        Ok(())
    }

    /// Inverse-CDF draw with linear interpolation between knots.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.f64();
        self.quantile(u)
    }

    /// The value at cumulative probability `u` (clamped to `[0, 1]`).
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let pts = &self.points;
        if u <= pts[0].1 {
            return pts[0].0;
        }
        for w in pts.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            if u <= p1 {
                if p1 == p0 {
                    return v1;
                }
                let t = (u - p0) / (p1 - p0);
                return v0 + t * (v1 - v0);
            }
        }
        pts.last().expect("non-empty").0
    }

    /// Mean of the piecewise-linear distribution (trapezoid rule over the
    /// inverse CDF).
    pub fn mean(&self) -> f64 {
        let pts = &self.points;
        let mut acc = 0.0;
        for w in pts.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            acc += (p1 - p0) * 0.5 * (v0 + v1);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &Dist, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(7.5);
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7.5);
        }
        assert_eq!(d.mean(), Some(7.5));
    }

    #[test]
    fn lognormal_mean() {
        let d = Dist::LogNormal {
            mu: 1.0,
            sigma: 0.5,
        };
        let expect = (1.0f64 + 0.125).exp();
        let m = mean_of(&d, 7, 300_000);
        assert!((m - expect).abs() / expect < 0.02, "mean {m} vs {expect}");
        assert_eq!(d.mean(), Some(expect));
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(Dist::LogNormal {
            mu: 0.0,
            sigma: -1.0
        }
        .validate()
        .is_err());
        assert!(Dist::Constant(f64::NAN).validate().is_err());
        assert!(Dist::Constant(1.0).validate().is_ok());
    }

    #[test]
    fn empirical_cdf_interpolates() {
        let cdf = EmpiricalCdf::new(vec![(0.0, 0.0), (10.0, 0.5), (100.0, 1.0)]).unwrap();
        assert_eq!(cdf.quantile(0.0), 0.0);
        assert_eq!(cdf.quantile(0.25), 5.0);
        assert_eq!(cdf.quantile(0.5), 10.0);
        assert_eq!(cdf.quantile(0.75), 55.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
    }

    #[test]
    fn empirical_cdf_mean_by_trapezoid() {
        let cdf = EmpiricalCdf::new(vec![(0.0, 0.0), (10.0, 1.0)]).unwrap();
        assert!((cdf.mean() - 5.0).abs() < 1e-12);
        let d = Dist::Empirical(cdf);
        let m = mean_of(&d, 8, 100_000);
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn empirical_cdf_rejects_bad_knots() {
        assert!(EmpiricalCdf::new(vec![]).is_err());
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0), (1.0, 0.5)]).is_err()); // doesn't end at 1
        assert!(EmpiricalCdf::new(vec![(5.0, 0.0), (1.0, 1.0)]).is_err()); // values decrease
        assert!(EmpiricalCdf::new(vec![(0.0, 0.5), (1.0, 0.2), (2.0, 1.0)]).is_err());
        // probs decrease
    }

    #[test]
    fn empirical_cdf_implied_zero_knot() {
        // A CDF whose first knot has positive probability gets an implied
        // starting knot, making the minimum value attainable.
        let cdf = EmpiricalCdf::new(vec![(4.0, 0.3), (8.0, 1.0)]).unwrap();
        assert_eq!(cdf.quantile(0.0), 4.0);
        assert_eq!(cdf.quantile(0.3), 4.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Dist::LogNormal {
            mu: 2.0,
            sigma: 1.0,
        };
        let a: Vec<f64> = {
            let mut rng = SimRng::new(77);
            (0..32).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = SimRng::new(77);
            (0..32).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
