//! Demand matrices, scheduling requests, and demand estimators.
//!
//! Figure 2: "As the status of a VOQ changes, the subsystem generates
//! scheduling requests … The scheduling logic processes the incoming
//! requests, estimates the demand matrix, and runs the scheduling
//! algorithm."

mod estimators;

pub use estimators::{
    CountMinEstimator, DemandEstimator, EwmaEstimator, MirrorEstimator, WindowEstimator,
};

use xds_sim::SimTime;

/// Optional support tracker for a [`DemandMatrix`]: the flat indices of
/// every cell that *may* be non-zero (a superset — cells that decayed
/// back to zero linger until [`DemandMatrix::compact_support`]). This is
/// the sparse epoch interface: at kilofabric scale the per-epoch
/// consumers (Solstice's worklist build, the estimators' fills, the
/// scratch clears) must walk the live cells, not all `n²` of them.
#[derive(Debug, Clone)]
struct SupportTracker {
    /// Flat indices of possibly-non-zero cells, in insertion order.
    cells: Vec<u32>,
    /// Membership bitmap over all `n²` cells (1 byte each; two tracked
    /// matrices at 1024 ports cost 2 MB — noise next to the matrices).
    member: Vec<bool>,
    /// Writes that zeroed a member cell since the last compaction: a
    /// cheap staleness signal so compaction can be skipped while the
    /// support is exact.
    stale: usize,
}

impl SupportTracker {
    /// A tracker over `cells` cells that holds none of them.
    fn empty(cells: usize) -> Self {
        SupportTracker {
            cells: Vec::new(),
            member: vec![false; cells],
            stale: 0,
        }
    }
}

/// An `n × n` matrix of demanded bytes from each input to each output.
///
/// Equality and the golden-trace surface consider only the port count
/// and cell values; the optional support tracker is bookkeeping.
#[derive(Debug, Clone)]
pub struct DemandMatrix {
    n: usize,
    bytes: Vec<u64>,
    support: Option<Box<SupportTracker>>,
}

impl PartialEq for DemandMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.bytes == other.bytes
    }
}

impl Eq for DemandMatrix {}

impl DemandMatrix {
    /// The zero matrix over `n` ports.
    pub fn zero(n: usize) -> Self {
        assert!(n > 0, "demand matrix needs at least one port");
        DemandMatrix {
            n,
            bytes: vec![0; n * n],
            support: None,
        }
    }

    /// The zero matrix with support tracking enabled (see
    /// [`track_support`](Self::track_support)). Its tracker starts empty:
    /// no cell is scanned, so the `n²` zeroed pages are not touched until
    /// a write lands on them.
    pub fn zero_tracked(n: usize) -> Self {
        let mut m = Self::zero(n);
        m.support = Some(Box::new(SupportTracker::empty(n * n)));
        m
    }

    /// Builds from a row-major byte vector.
    pub fn from_vec(n: usize, bytes: Vec<u64>) -> Self {
        assert_eq!(bytes.len(), n * n, "need n² entries");
        DemandMatrix {
            n,
            bytes,
            support: None,
        }
    }

    /// Enables support tracking: from now on the matrix maintains the
    /// (superset) list of non-zero cells alongside the values, so epoch
    /// consumers can iterate and clear by worklist instead of walking
    /// `n²` cells. Existing non-zeros are scanned in once. Idempotent.
    pub fn track_support(&mut self) {
        if self.support.is_some() {
            return;
        }
        let mut t = SupportTracker::empty(self.bytes.len());
        for (idx, &v) in self.bytes.iter().enumerate() {
            if v > 0 {
                t.member[idx] = true;
                t.cells.push(idx as u32);
            }
        }
        self.support = Some(Box::new(t));
    }

    /// Whether support tracking is enabled.
    pub fn is_tracked(&self) -> bool {
        self.support.is_some()
    }

    /// The tracked support: flat indices of every possibly-non-zero cell,
    /// in insertion order. A **superset** — callers must skip cells whose
    /// value reads zero. `None` when tracking is off (callers fall back
    /// to the dense walk).
    pub fn support(&self) -> Option<&[u32]> {
        self.support.as_ref().map(|t| t.cells.as_slice())
    }

    /// Drops zero-valued cells from the tracked support, making it exact
    /// (insertion order preserved). No-op when untracked or when no
    /// member cell was zeroed since the last compaction.
    pub fn compact_support(&mut self) {
        let Some(t) = &mut self.support else { return };
        if t.stale == 0 {
            return;
        }
        let bytes = &self.bytes;
        let member = &mut t.member;
        t.cells.retain(|&idx| {
            let live = bytes[idx as usize] > 0;
            if !live {
                member[idx as usize] = false;
            }
            live
        });
        t.stale = 0;
    }

    /// Zeroes the matrix by its tracked worklist — O(support) instead of
    /// O(n²) — and empties the support. Falls back to the dense
    /// [`clear`](Self::clear) when tracking is off.
    pub fn clear_sparse(&mut self) {
        match &mut self.support {
            Some(t) => {
                for &idx in &t.cells {
                    self.bytes[idx as usize] = 0;
                    t.member[idx as usize] = false;
                }
                t.cells.clear();
                t.stale = 0;
            }
            None => self.bytes.fill(0),
        }
    }

    /// Records a write of `v` to flat index `idx` in the tracker.
    #[inline]
    fn note_write(&mut self, idx: usize, v: u64) {
        if let Some(t) = &mut self.support {
            if v > 0 {
                if !t.member[idx] {
                    t.member[idx] = true;
                    t.cells.push(idx as u32);
                }
            } else if t.member[idx] {
                t.stale += 1;
            }
        }
    }

    /// Rebuilds the tracker after a dense overwrite (the slow path —
    /// tracked matrices should prefer sparse writes). Reuses the
    /// tracker's allocations: the rescan is unavoidably O(n²), but it
    /// must not also reallocate the n²-entry bitmap each time.
    fn rebuild_support(&mut self) {
        let Some(t) = &mut self.support else { return };
        t.member.fill(false);
        t.cells.clear();
        t.stale = 0;
        for (idx, &v) in self.bytes.iter().enumerate() {
            if v > 0 {
                t.member[idx] = true;
                t.cells.push(idx as u32);
            }
        }
    }

    /// Port count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The demand from `src` to `dst` in bytes.
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.n + dst]
    }

    /// Sets the demand for a pair.
    pub fn set(&mut self, src: usize, dst: usize, bytes: u64) {
        let idx = src * self.n + dst;
        self.bytes[idx] = bytes;
        self.note_write(idx, bytes);
    }

    /// Adds demand to a pair (saturating).
    pub fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        let idx = src * self.n + dst;
        let e = &mut self.bytes[idx];
        *e = e.saturating_add(bytes);
        let v = *e;
        self.note_write(idx, v);
    }

    /// Subtracts served bytes from a pair (saturating).
    pub fn sub(&mut self, src: usize, dst: usize, bytes: u64) {
        let idx = src * self.n + dst;
        let e = &mut self.bytes[idx];
        *e = e.saturating_sub(bytes);
        let v = *e;
        self.note_write(idx, v);
    }

    /// Zeroes every entry in place (scratch-buffer reuse: the hot path
    /// rebuilds demand and occupancy every epoch and must not reallocate
    /// the `n²` backing store each time). Tracked matrices should prefer
    /// [`clear_sparse`](Self::clear_sparse).
    pub fn clear(&mut self) {
        self.bytes.fill(0);
        if let Some(t) = &mut self.support {
            for &idx in &t.cells {
                t.member[idx as usize] = false;
            }
            t.cells.clear();
            t.stale = 0;
        }
    }

    /// Overwrites `self` with `other`'s entries, reusing the allocation.
    ///
    /// # Panics
    /// Panics if the port counts differ.
    pub fn copy_from(&mut self, other: &DemandMatrix) {
        assert_eq!(self.n, other.n, "matrix sizes differ");
        self.bytes.copy_from_slice(&other.bytes);
        self.rebuild_support();
    }

    /// Overwrites every entry from a row-major slice (the incremental-
    /// occupancy fast path).
    ///
    /// # Panics
    /// Panics if the slice is not exactly `n²` long.
    pub fn copy_from_slice(&mut self, src: &[u64]) {
        assert_eq!(src.len(), self.n * self.n, "need n² entries");
        self.bytes.copy_from_slice(src);
        self.rebuild_support();
    }

    /// The row-major backing store (read-only view for flat iteration).
    pub fn as_slice(&self) -> &[u64] {
        &self.bytes
    }

    /// Writes one cell by row-major flat index (sparse-update fast path).
    pub fn set_cell(&mut self, idx: usize, bytes: u64) {
        self.bytes[idx] = bytes;
        self.note_write(idx, bytes);
    }

    /// Zeroes one cell by row-major flat index.
    pub fn clear_cell(&mut self, idx: usize) {
        self.bytes[idx] = 0;
        self.note_write(idx, 0);
    }

    /// Total demanded bytes.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// True when all entries are zero.
    pub fn is_zero(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }

    /// The largest entry and its pair, or `None` when zero.
    pub fn max_entry(&self) -> Option<(usize, usize, u64)> {
        let (idx, &v) = self
            .bytes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .expect("non-empty");
        if v == 0 {
            None
        } else {
            Some((idx / self.n, idx % self.n, v))
        }
    }

    /// Row sums (per-source demanded bytes).
    pub fn row_sums(&self) -> Vec<u64> {
        (0..self.n)
            .map(|s| (0..self.n).map(|d| self.get(s, d)).sum())
            .collect()
    }

    /// Column sums (per-destination demanded bytes).
    pub fn col_sums(&self) -> Vec<u64> {
        (0..self.n)
            .map(|d| (0..self.n).map(|s| self.get(s, d)).sum())
            .collect()
    }

    /// Iterates non-zero entries as `(src, dst, bytes)`.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.bytes
            .iter()
            .enumerate()
            .filter_map(move |(i, &b)| (b > 0).then_some((i / self.n, i % self.n, b)))
    }

    /// Sum of absolute differences against another matrix (estimation
    /// error metric for E6).
    pub fn l1_distance(&self, other: &DemandMatrix) -> u64 {
        assert_eq!(self.n, other.n, "matrix sizes differ");
        self.bytes
            .iter()
            .zip(other.bytes.iter())
            .map(|(&a, &b)| a.abs_diff(b))
            .sum()
    }

    /// `(l1_distance(truth), truth.total())` in one pass — the epoch
    /// loop's demand-error sample, fused so the truth matrix is walked
    /// once instead of twice.
    pub fn error_vs(&self, truth: &DemandMatrix) -> (u64, u64) {
        assert_eq!(self.n, truth.n, "matrix sizes differ");
        let mut l1 = 0u64;
        let mut total = 0u64;
        for (&a, &b) in self.bytes.iter().zip(truth.bytes.iter()) {
            l1 += a.abs_diff(b);
            total += b;
        }
        (l1, total)
    }
}

/// A scheduling request: the VOQ-status report the processing logic sends
/// when a VOQ changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedRequest {
    /// Input port.
    pub src: usize,
    /// Output port.
    pub dst: usize,
    /// Bytes currently queued in the VOQ.
    pub queued_bytes: u64,
    /// Cumulative bytes ever enqueued to the VOQ (lets rate estimators see
    /// arrivals even when the queue drains).
    pub arrived_bytes_total: u64,
    /// When the report was generated.
    pub at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_matrix_is_zero() {
        let m = DemandMatrix::zero(4);
        assert!(m.is_zero());
        assert_eq!(m.total(), 0);
        assert_eq!(m.max_entry(), None);
    }

    #[test]
    fn get_set_add_sub() {
        let mut m = DemandMatrix::zero(3);
        m.set(0, 1, 100);
        m.add(0, 1, 50);
        m.sub(0, 1, 30);
        assert_eq!(m.get(0, 1), 120);
        m.sub(0, 1, 1000);
        assert_eq!(m.get(0, 1), 0, "sub saturates");
        m.add(2, 0, u64::MAX);
        m.add(2, 0, 1);
        assert_eq!(m.get(2, 0), u64::MAX, "add saturates");
    }

    #[test]
    fn sums_and_max() {
        let m = DemandMatrix::from_vec(2, vec![0, 10, 20, 0]);
        assert_eq!(m.row_sums(), vec![10, 20]);
        assert_eq!(m.col_sums(), vec![20, 10]);
        assert_eq!(m.max_entry(), Some((1, 0, 20)));
        assert_eq!(m.total(), 30);
    }

    #[test]
    fn iter_nonzero_skips_zeros() {
        let m = DemandMatrix::from_vec(2, vec![0, 5, 0, 0]);
        let nz: Vec<_> = m.iter_nonzero().collect();
        assert_eq!(nz, vec![(0, 1, 5)]);
    }

    #[test]
    fn l1_distance_is_symmetric() {
        let a = DemandMatrix::from_vec(2, vec![0, 10, 5, 0]);
        let b = DemandMatrix::from_vec(2, vec![0, 4, 9, 0]);
        assert_eq!(a.l1_distance(&b), 10);
        assert_eq!(b.l1_distance(&a), 10);
        assert_eq!(a.l1_distance(&a), 0);
    }

    #[test]
    #[should_panic(expected = "need n² entries")]
    fn wrong_size_rejected() {
        DemandMatrix::from_vec(3, vec![0; 8]);
    }

    /// The tracked support must hold every non-zero cell (superset
    /// invariant) under every sparse write path.
    fn assert_support_covers(m: &DemandMatrix) {
        // BTreeSet: a failure message that walks the set prints cells
        // in index order on every run, and the determinism contract
        // bans random-state hash collections in core outright.
        let support: std::collections::BTreeSet<u32> =
            m.support().expect("tracked").iter().copied().collect();
        for (idx, &v) in m.as_slice().iter().enumerate() {
            if v > 0 {
                assert!(support.contains(&(idx as u32)), "cell {idx} untracked");
            }
        }
    }

    #[test]
    fn tracked_support_covers_nonzeros_and_compacts_exactly() {
        let mut m = DemandMatrix::zero_tracked(4);
        m.set(0, 1, 100);
        m.add(2, 3, 50);
        m.set_cell(5, 7); // (1, 1)
        m.sub(2, 3, 50); // back to zero: stays in the superset
        assert_support_covers(&m);
        assert_eq!(
            m.support().unwrap().len(),
            3,
            "superset keeps the stale cell"
        );
        m.compact_support();
        let mut exact: Vec<u32> = m.support().unwrap().to_vec();
        exact.sort_unstable();
        assert_eq!(exact, vec![1, 5], "compaction drops the zeroed cell");
        // Re-adding a compacted-away cell re-tracks it.
        m.add(2, 3, 7);
        assert_support_covers(&m);
    }

    #[test]
    fn clear_sparse_equals_dense_clear() {
        let mut m = DemandMatrix::zero_tracked(3);
        m.set(0, 1, 10);
        m.set(2, 2, 20);
        m.clear_sparse();
        assert!(m.is_zero());
        assert!(m.support().unwrap().is_empty());
        // Writes after the sparse clear re-track.
        m.set(1, 0, 5);
        assert_support_covers(&m);
        assert_eq!(m.support().unwrap(), &[3]);
    }

    #[test]
    fn tracking_is_invisible_to_equality() {
        let mut a = DemandMatrix::zero_tracked(2);
        let mut b = DemandMatrix::zero(2);
        a.set(0, 1, 9);
        b.set(0, 1, 9);
        assert_eq!(a, b);
        a.track_support(); // idempotent
        assert_eq!(a, b);
    }

    #[test]
    fn dense_overwrites_rebuild_the_tracker() {
        let mut m = DemandMatrix::zero_tracked(2);
        m.set(0, 0, 1);
        m.copy_from_slice(&[0, 4, 0, 8]);
        assert_support_covers(&m);
        let mut cells: Vec<u32> = m.support().unwrap().to_vec();
        cells.sort_unstable();
        assert_eq!(cells, vec![1, 3]);
        let other = DemandMatrix::from_vec(2, vec![0, 0, 3, 0]);
        m.copy_from(&other);
        assert_support_covers(&m);
        assert_eq!(m.support().unwrap(), &[2]);
        // Dense clear resets the tracker too.
        m.clear();
        assert!(m.support().unwrap().is_empty());
        assert_support_covers(&m);
    }

    #[test]
    fn untracked_matrices_report_no_support() {
        let mut m = DemandMatrix::zero(2);
        m.set(0, 1, 3);
        assert!(m.support().is_none());
        m.compact_support(); // no-ops, no panic
        m.clear_sparse(); // falls back to dense clear
        assert!(m.is_zero());
    }
}
