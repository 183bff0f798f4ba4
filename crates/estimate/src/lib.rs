//! `xds-estimate` — the fast-estimate fidelity tier.
//!
//! A second way to evaluate a scenario point, decomposed instead of
//! simulated: the fabric's destination links become independent
//! mini-problems solved by closed-form queueing models (stationary
//! traffic) or tiny seeded slotted simulations (rotating or faulted
//! traffic), and the per-link outcomes are composed back into a
//! [`RunReport`] whose columns are
//! bit-compatible with exact-tier sweep rows. The point of the tier is
//! scale: a kilofabric point that costs the exact simulator seconds
//! costs the estimator microseconds, at an accuracy loss that
//! `sweep validate-estimates` quantifies per metric.
//!
//! The tier honors the repo's determinism contract: every random
//! stream forks off the point's seed in a fixed order on one thread, no
//! wall-clock enters the estimate domain, and the same problem always
//! composes the same report byte-for-byte.

#![warn(missing_docs)]

mod compose;
mod minisim;
mod model;
mod profile;

pub use model::EstimateProblem;
pub use profile::{ClassProfile, SizeProfile};

use xds_core::report::RunReport;

/// Solves one translated scenario point at the estimate tier.
pub fn estimate(problem: &EstimateProblem) -> RunReport {
    model::solve(problem)
}
