//! Epoch-resolution scheduler telemetry: one row per scheduler epoch,
//! for the `timeseries` instrumentation profile.

use xds_sim::SimTime;

/// One row of epoch-resolution scheduler telemetry: the per-epoch view of
/// the quantities the paper's evaluation plots over time (demand-estimation
/// error, circuit duty cycle, queued backlog). Recorded by the runtime
/// under the `timeseries` instrumentation profile, one row per scheduler
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Simulated time of the epoch boundary.
    pub at: SimTime,
    /// Relative L1 demand-estimation error sampled this epoch (`None`
    /// when the ground-truth occupancy was empty — no error to measure).
    pub demand_err_rel: Option<f64>,
    /// OCS duty cycle over the interval since the previous row: the
    /// fraction of that interval the circuits were *not* dark, clamped to
    /// `[0, 1]`. `None` on the first row (no interval yet).
    pub duty_cycle: Option<f64>,
    /// Ground-truth VOQ backlog (bytes queued across all pairs) at the
    /// epoch boundary.
    pub backlog_bytes: u64,
    /// Scheduler decision latency charged to this epoch (ns).
    pub decision_ns: u64,
    /// Schedule entries (OCS configurations) the decision produced.
    pub entries: u32,
}

/// An epoch-resolution telemetry series: one [`EpochRow`] per scheduler
/// epoch, in epoch order. Rows are O(epochs), not O(packets), so the
/// series stays small even on kilofabric runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochSeries {
    rows: Vec<EpochRow>,
}

impl EpochSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row (rows must arrive in epoch order).
    pub fn push(&mut self, row: EpochRow) {
        debug_assert!(
            self.rows.last().is_none_or(|r| r.epoch < row.epoch),
            "epoch rows must be appended in order"
        );
        self.rows.push(row);
    }

    /// The rows, oldest first.
    pub fn rows(&self) -> &[EpochRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the series holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn epoch_series_keeps_rows_in_order() {
        let mut s = EpochSeries::new();
        assert!(s.is_empty());
        for i in 0..5u64 {
            s.push(EpochRow {
                epoch: i,
                at: t(i * 1000),
                demand_err_rel: (i > 0).then_some(0.25),
                duty_cycle: (i > 0).then_some(0.9),
                backlog_bytes: i * 10,
                decision_ns: 100,
                entries: 4,
            });
        }
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.rows()[0].demand_err_rel, None);
        assert_eq!(s.rows()[4].backlog_bytes, 40);
        for w in s.rows().windows(2) {
            assert!(w[0].epoch < w[1].epoch);
        }
    }
}
