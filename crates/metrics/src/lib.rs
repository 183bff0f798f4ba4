//! # xds-metrics — telemetry for scheduler experiments
//!
//! Every experiment in the paper reproduction reports the same families of
//! measurements, implemented once here:
//!
//! * [`LatencyHistogram`] — log-linear (HDR-style) histogram with bounded
//!   relative error, for per-packet latency and flow-completion-time
//!   percentiles;
//! * [`Rfc3550Jitter`] — the interarrival-jitter estimator from RFC 3550,
//!   the metric the paper's VOIP claim (§2) is about;
//! * [`FctTracker`] — flow-completion-time tracking with mice / medium /
//!   elephant size classes;
//! * [`CounterSet`] — the deterministic internal-counters registry the
//!   runtime's flight recorder reports through;
//! * [`TimeSeries`] — decimating series for occupancy-over-time plots;
//! * [`EpochSeries`] — one row of scheduler telemetry per epoch, for the
//!   `timeseries` instrumentation profile;
//! * [`Table`] — the text/Markdown/CSV renderer used by every bench binary
//!   so the regenerated "figures" are directly comparable.

#![warn(missing_docs)]

pub mod compose;
pub mod counters;
pub mod fasthash;
pub mod fct;
pub mod hist;
pub mod jitter;
pub mod report;
pub mod series;

pub use compose::{
    exp_wait_quantile, percentile_of, record_wait_population, relative_error, QUANTILE_KNOTS,
};
pub use counters::{CounterKind, CounterSet};
pub use fasthash::{FastHashBuilder, FastHashMap, FastHasher};
pub use fct::{FctStats, FctTracker, SizeClass};
pub use hist::LatencyHistogram;
pub use jitter::{InterArrival, Rfc3550Jitter};
pub use report::{fmt_bytes, fmt_f64, Table};
pub use series::{EpochRow, EpochSeries, TimeSeries};
