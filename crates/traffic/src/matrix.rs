//! Traffic matrices: who talks to whom, and how much.
//!
//! A matrix entry `m[s][d]` is the fraction of offered load from source
//! port `s` to destination `d` (diagonal forced to zero — a host does not
//! transit the switch to reach itself). The patterns are the standard ones
//! hybrid-switch schedulers are evaluated on:
//!
//! * `uniform` — all-to-all, the friendliest case for packet switching;
//! * `permutation` — one hot destination per source, the best case for
//!   circuit switching;
//! * `hotspot` — a few rack pairs carry most of the load over a uniform
//!   background (the c-Through/Helios motivating case);
//! * `zipf` — skewed per-pair popularity;
//! * `incast` — many sources converge on one destination (the worst case
//!   for any scheduler: the destination port is the bottleneck);
//! * `rings` — a union of cyclic shifts, the decomposition-budget stress
//!   case;
//! * `shuffle_stages` — the `n−1` permutations of a staged all-to-all.
//!
//! A matrix costs memory in proportion to its support, not `n²`: a
//! background fraction plus a list of cells (see [`TrafficMatrix`]), so
//! a 2048-port permutation is 2048 cells and the whole shuffle at 2048
//! ports about 50 MB.

use std::sync::OnceLock;

use xds_sim::SimRng;

/// An `n × n` matrix of load fractions summing to 1 with a zero diagonal,
/// stored by its support rather than as `n²` cells: a *background*
/// fraction that every off-diagonal cell takes unless it is listed, plus
/// the listed cells (row-major index `src·n + dst` and fraction, in
/// ascending index order, never on the diagonal). Permutations, incast,
/// rings and shuffle stages list their `n·k` cells over a zero background,
/// uniform lists none, a hotspot lists only its hot pairs over a non-zero
/// background, and Zipf and [`from_weights`](Self::from_weights) list
/// every non-zero cell.
///
/// [`for_each_cell`](Self::for_each_cell) is the one way cells are
/// visited, in row-major order; it skips only cells that are zero. Adding
/// `+0.0` never changes a float sum, so every sum taken over it (the
/// normalization total, row and column sums, the sampler's cumulative
/// fractions) is bitwise the sum a dense row-major walk of the `n²`
/// cells gives.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    /// The fraction of every off-diagonal cell `cell` does not list.
    background: f64,
    /// Listed cells' row-major indices `src·n + dst`, ascending. A `u32`
    /// index covers up to 65,536 ports; ports are 16-bit.
    cell: Vec<u32>,
    /// Listed cells' fractions, parallel to `cell`.
    frac: Vec<f64>,
    /// The pair sampler, built lazily on first use: only flow sampling
    /// needs it, and consumers that never sample (the estimate tier,
    /// matrix analysis) would otherwise pay a full extra pass per matrix.
    sampler: OnceLock<Sampler>,
}

/// The cumulative distribution over the matrix's non-zero cells, in
/// row-major order. Zero cells have zero width, so leaving them out
/// moves only the draws a dense table resolved to a zero cell (a draw
/// equal to a cumulative value, or past the float sum), and the table is
/// the size of the matrix's support: `n·k` entries for a permutation-like
/// pattern, `n(n−1)` for one with a non-zero background.
#[derive(Debug, Clone)]
struct Sampler {
    /// Cumulative fraction up to and including each non-zero cell. Adding
    /// a zero never changes a float sum, so each value is bitwise the
    /// dense row-major running sum at that cell.
    cum: Vec<f64>,
    /// Each non-zero cell's row-major index `src·n + dst`.
    cell: Vec<u32>,
}

impl PartialEq for TrafficMatrix {
    /// Two matrices are equal when every cell's fraction is, however each
    /// stores them (a listed cell may equal the other's background).
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.agrees_with(other) && other.agrees_with(self)
    }
}

/// The row-major index of cell `(s, d)`.
fn index(n: usize, s: usize, d: usize) -> u32 {
    u32::try_from(s * n + d).expect("cell index fits in u32: at most 65,536 ports")
}

impl TrafficMatrix {
    /// Builds from raw weights (any non-negative values; normalized
    /// internally). Diagonal entries are ignored, and every non-zero
    /// off-diagonal weight becomes a listed cell.
    pub fn from_weights(n: usize, weights: Vec<f64>) -> Result<Self, String> {
        if n < 2 {
            return Err("traffic matrix needs at least 2 ports".into());
        }
        if weights.len() != n * n {
            return Err(format!(
                "expected {} weights for n={n}, got {}",
                n * n,
                weights.len()
            ));
        }
        let (mut cell, mut frac) = (Vec::new(), Vec::new());
        for (s, row) in weights.chunks_exact(n).enumerate() {
            for (d, &w) in row.iter().enumerate() {
                if d == s {
                    continue;
                }
                if !w.is_finite() || w < 0.0 {
                    return Err(format!("weight {w} is not a finite non-negative number"));
                }
                if w > 0.0 {
                    cell.push(index(n, s, d));
                    frac.push(w);
                }
            }
        }
        Self::normalized(n, 0.0, cell, frac)
    }

    /// Normalizes raw weights: `background` for each unlisted off-diagonal
    /// cell, `weight[i]` for listed cell `cell[i]` (ascending, off the
    /// diagonal). The total is the sequential row-major sum of every
    /// off-diagonal cell's weight, background cells included, so each
    /// fraction is bitwise the dense construction's (`dense_reference`
    /// holds it there); a closed form over the background rounds
    /// differently.
    fn normalized(
        n: usize,
        background: f64,
        cell: Vec<u32>,
        weight: Vec<f64>,
    ) -> Result<Self, String> {
        assert!(n >= 2, "traffic matrix needs at least 2 ports");
        debug_assert!(cell.windows(2).all(|w| w[0] < w[1]), "cells ascend");
        debug_assert!(
            cell.iter().all(|&c| !(c as usize).is_multiple_of(n + 1)),
            "a listed cell on the diagonal"
        );
        let mut m = TrafficMatrix {
            n,
            background,
            cell,
            frac: weight,
            sampler: OnceLock::new(),
        };
        let mut total = 0.0;
        m.for_each_cell(|_, _, w| total += w);
        if total <= 0.0 {
            return Err("matrix has no off-diagonal load".into());
        }
        m.background /= total;
        for w in &mut m.frac {
            *w /= total;
        }
        Ok(m)
    }

    /// Uniform all-to-all: no listed cells, all background.
    pub fn uniform(n: usize) -> Self {
        Self::normalized(n, 1.0, Vec::new(), Vec::new()).expect("uniform matrix is valid")
    }

    /// A (cyclic-shift) permutation: source `s` sends only to `(s+k) % n`.
    pub fn permutation(n: usize, k: usize) -> Self {
        assert!(
            !k.is_multiple_of(n),
            "shift 0 would put all load on the diagonal"
        );
        let cell = (0..n).map(|s| index(n, s, (s + k) % n)).collect();
        Self::normalized(n, 0.0, cell, vec![1.0; n]).expect("permutation matrix is valid")
    }

    /// The union of the cyclic shifts `src → src + k` for each `k` in
    /// `shifts`, each taken mod `n` and floored at 1: demand that needs
    /// exactly as many OCS configurations as there are distinct shifts. A
    /// cell several shifts land on is listed once, at the same weight as
    /// every other.
    pub fn rings(n: usize, shifts: &[usize]) -> Self {
        let mut ks: Vec<usize> = shifts.iter().map(|&k| (k % n).max(1)).collect();
        ks.sort_unstable();
        ks.dedup();
        let mut cell = Vec::with_capacity(n * ks.len());
        for s in 0..n {
            // Shifts that wrap past port n − 1 land left of `s`: they
            // come first in the row.
            let wrap = ks.partition_point(|&k| s + k < n);
            cell.extend(ks[wrap..].iter().map(|&k| index(n, s, s + k - n)));
            cell.extend(ks[..wrap].iter().map(|&k| index(n, s, s + k)));
        }
        let weight = vec![1.0; cell.len()];
        Self::normalized(n, 0.0, cell, weight).expect("ring union is valid")
    }

    /// `num_hot` hot pairs carrying `hot_fraction` of the load over a
    /// uniform background. Hot pairs are `(i, (i + 1 + offset) % n)` for
    /// `i < num_hot` — deterministic so experiments can rotate them.
    /// Only the hot pairs are listed.
    pub fn hotspot(n: usize, num_hot: usize, hot_fraction: f64, offset: usize) -> Self {
        assert!(num_hot > 0 && num_hot <= n, "need 1..=n hot pairs");
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot fraction must be in [0,1]"
        );
        // Background weight total (excluding diagonal): n*(n-1) entries of
        // weight 1, including the hot cells' own background share. Solve
        //   num_hot*(1 + x) / (bg_total + num_hot*x) = hot_fraction
        // for the extra weight x per hot cell.
        let bg_total: f64 = (n * (n - 1)) as f64;
        let (background, hot_weight) = if hot_fraction < 1.0 {
            let f = hot_fraction;
            let k = num_hot as f64;
            (1.0, ((f * bg_total - k) / (k * (1.0 - f))).max(0.0))
        } else {
            (0.0, 1.0)
        };
        let cell = (0..num_hot)
            .map(|i| {
                let dst = (i + 1 + offset) % n;
                index(n, i, if dst != i { dst } else { (dst + 1) % n })
            })
            .collect();
        let weight = vec![background + hot_weight; num_hot];
        Self::normalized(n, background, cell, weight).expect("hotspot matrix is valid")
    }

    /// Zipf-skewed pair popularity with exponent `s`, pair order shuffled
    /// by `rng`. Every off-diagonal cell with a non-zero weight is listed.
    pub fn zipf(n: usize, s: f64, rng: &mut SimRng) -> Self {
        // Pair `p` is the p-th off-diagonal cell in row-major order. The
        // shuffle's draws depend only on the slice length, so `u32` pair
        // indices get the same order as any wider index type.
        let pairs = n * n.saturating_sub(1);
        let mut order: Vec<u32> = (0..pairs)
            .map(|p| u32::try_from(p).expect("pair index fits in u32"))
            .collect();
        rng.shuffle(&mut order);
        let mut rank = vec![0u32; pairs];
        for (r, &p) in order.iter().enumerate() {
            rank[p as usize] = r as u32;
        }
        drop(order);
        let (mut cell, mut weight) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
        let mut p = 0;
        for a in 0..n {
            for b in (0..n).filter(|&b| b != a) {
                let w = 1.0 / ((rank[p] as usize + 1) as f64).powf(s);
                p += 1;
                if w > 0.0 {
                    cell.push(index(n, a, b));
                    weight.push(w);
                }
            }
        }
        Self::normalized(n, 0.0, cell, weight).expect("zipf matrix is valid")
    }

    /// `m` sources (ports `0..m`, excluding the target) all sending to one
    /// `target` port, no background.
    pub fn incast(n: usize, m: usize, target: usize) -> Self {
        assert!(target < n, "target out of range");
        assert!(m >= 1 && m < n, "need 1..n-1 senders");
        let cell: Vec<u32> = (0..n)
            .filter(|&s| s != target)
            .take(m)
            .map(|s| index(n, s, target))
            .collect();
        Self::normalized(n, 0.0, cell, vec![1.0; m]).expect("incast matrix is valid")
    }

    /// The `n−1` stages of an all-to-all shuffle (map-reduce style): stage
    /// *k* is the cyclic permutation `src → src+k+1`. Drive them with
    /// [`xds-core`'s matrix rotation] to emulate a staged shuffle whose
    /// communication pattern changes every period — a classic OCS stress
    /// test (each stage is circuit-friendly; the *transitions* cost
    /// reconfigurations). Each stage lists its `n` cells, so the whole
    /// shuffle costs `(n−1)·n` cells, not `(n−1)·n²`.
    pub fn shuffle_stages(n: usize) -> Vec<TrafficMatrix> {
        (1..n).map(|k| TrafficMatrix::permutation(n, k)).collect()
    }

    /// Port count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The load fraction from `s` to `d`: a listed cell's, else the
    /// background (zero on the diagonal).
    pub fn fraction(&self, s: usize, d: usize) -> f64 {
        assert!(s < self.n && d < self.n, "cell ({s}, {d}) out of range");
        if s == d {
            return 0.0;
        }
        match self.cell.binary_search(&index(self.n, s, d)) {
            Ok(i) => self.frac[i],
            Err(_) => self.background,
        }
    }

    /// Calls `f(src, dst, fraction)` for every cell that may carry load,
    /// in row-major order: every off-diagonal cell when the background is
    /// non-zero, else only the listed cells. Every cell it skips is zero.
    /// Rows and columns are nested loops with a cursor into the listed
    /// cells, so no visit divides an index back into `(src, dst)`.
    pub fn for_each_cell(&self, mut f: impl FnMut(usize, usize, f64)) {
        let n = self.n;
        if self.background == 0.0 {
            let (mut s, mut row) = (0, 0);
            for (&c, &w) in self.cell.iter().zip(&self.frac) {
                let c = c as usize;
                while c >= row + n {
                    s += 1;
                    row += n;
                }
                f(s, c - row, w);
            }
            return;
        }
        let mut next = 0;
        let mut next_cell = self.cell.first().map_or(usize::MAX, |&c| c as usize);
        for s in 0..n {
            let row = s * n;
            for d in 0..n {
                if d == s {
                    continue;
                }
                if row + d == next_cell {
                    f(s, d, self.frac[next]);
                    next += 1;
                    next_cell = self.cell.get(next).map_or(usize::MAX, |&c| c as usize);
                } else {
                    f(s, d, self.background);
                }
            }
        }
    }

    /// Whether every cell `self` visits has the same fraction in `other`.
    fn agrees_with(&self, other: &Self) -> bool {
        let mut same = true;
        self.for_each_cell(|s, d, f| same &= other.fraction(s, d) == f);
        same
    }

    /// Samples a `(src, dst)` pair proportionally to the matrix.
    pub fn sample_pair(&self, rng: &mut SimRng) -> (usize, usize) {
        self.pick_pair(rng.f64())
    }

    /// The pair a uniform draw `u` in `[0, 1)` picks: the first non-zero
    /// cell whose cumulative fraction exceeds `u` (each cell owns the
    /// half-open interval up to its cumulative value). The fractions'
    /// float sum can end just below 1.0, so a draw beyond it clamps to
    /// the last non-zero cell: a zero-weight cell is never picked.
    pub(crate) fn pick_pair(&self, u: f64) -> (usize, usize) {
        let s = self.sampler.get_or_init(|| {
            let n = self.n;
            let support = if self.background > 0.0 {
                n * (n - 1)
            } else {
                self.cell.len()
            };
            let (mut cum, mut cell) = (Vec::with_capacity(support), Vec::with_capacity(support));
            let mut acc = 0.0;
            self.for_each_cell(|s, d, w| {
                if w > 0.0 {
                    acc += w;
                    cum.push(acc);
                    cell.push(index(n, s, d));
                }
            });
            Sampler { cum, cell }
        });
        let i = s.cum.partition_point(|&c| c <= u).min(s.cum.len() - 1);
        let idx = s.cell[i] as usize;
        (idx / self.n, idx % self.n)
    }

    /// Row sums (per-source offered fraction).
    pub fn row_sums(&self) -> Vec<f64> {
        self.row_col_sums().0
    }

    /// Column sums (per-destination offered fraction).
    pub fn col_sums(&self) -> Vec<f64> {
        self.row_col_sums().1
    }

    /// Row and column sums in one row-major walk. Per-destination
    /// addition order (ascending source) is the naive loops', so the sums
    /// are bit-identical to them.
    pub fn row_col_sums(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rows = vec![0.0; self.n];
        let mut cols = vec![0.0; self.n];
        self.for_each_cell(|s, d, f| {
            rows[s] += f;
            cols[d] += f;
        });
        (rows, cols)
    }

    /// The largest row or column sum, as a multiple of the uniform share
    /// `1/n`. A value of 1.0 means perfectly balanced; the offered load on
    /// the busiest port is `load × imbalance`. Experiments use this to keep
    /// swept loads admissible.
    pub fn imbalance(&self) -> f64 {
        let (rows, cols) = self.row_col_sums();
        let max_row = rows.into_iter().fold(0.0, f64::max);
        let max_col = cols.into_iter().fold(0.0, f64::max);
        max_row.max(max_col) * self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid(m: &TrafficMatrix) {
        let total: f64 = (0..m.n())
            .flat_map(|s| (0..m.n()).map(move |d| m.fraction(s, d)))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
        for i in 0..m.n() {
            assert_eq!(m.fraction(i, i), 0.0, "diagonal must be zero");
        }
    }

    #[test]
    fn uniform_is_balanced() {
        let m = TrafficMatrix::uniform(8);
        assert_valid(&m);
        assert!((m.imbalance() - 1.0).abs() < 1e-9);
        // Every off-diagonal pair equal.
        let f = m.fraction(0, 1);
        assert!((m.fraction(3, 7) - f).abs() < 1e-12);
    }

    #[test]
    fn permutation_concentrates_rows() {
        let m = TrafficMatrix::permutation(8, 3);
        assert_valid(&m);
        for s in 0..8 {
            assert!((m.fraction(s, (s + 3) % 8) - 1.0 / 8.0).abs() < 1e-9);
        }
        assert!(
            (m.imbalance() - 1.0).abs() < 1e-9,
            "permutations are balanced"
        );
    }

    #[test]
    fn hotspot_carries_requested_fraction() {
        let m = TrafficMatrix::hotspot(16, 4, 0.7, 0);
        assert_valid(&m);
        let hot: f64 = (0..4).map(|i| m.fraction(i, i + 1)).sum();
        assert!((hot - 0.7).abs() < 1e-9, "hot fraction {hot}");
        assert!(m.imbalance() > 1.5, "hotspots are imbalanced");
    }

    #[test]
    fn hotspot_rotation_moves_the_hot_pairs() {
        let a = TrafficMatrix::hotspot(8, 2, 0.8, 0);
        let b = TrafficMatrix::hotspot(8, 2, 0.8, 3);
        assert!(a.fraction(0, 1) > 0.1);
        assert!(b.fraction(0, 1) < 0.1);
        assert!(b.fraction(0, 4) > 0.1);
    }

    #[test]
    fn full_hotspot_fraction_one() {
        let m = TrafficMatrix::hotspot(4, 2, 1.0, 0);
        assert_valid(&m);
        let hot: f64 = (0..2).map(|i| m.fraction(i, i + 1)).sum();
        assert!((hot - 1.0).abs() < 1e-9);
    }

    #[test]
    fn incast_targets_one_port() {
        let m = TrafficMatrix::incast(8, 5, 3);
        assert_valid(&m);
        let col = m.col_sums();
        assert!((col[3] - 1.0).abs() < 1e-9);
        assert!(
            (m.imbalance() - 8.0).abs() < 1e-9,
            "incast is maximally imbalanced"
        );
    }

    #[test]
    fn zipf_is_skewed() {
        let mut rng = SimRng::new(11);
        let m = TrafficMatrix::zipf(8, 1.5, &mut rng);
        assert_valid(&m);
        let mut fracs: Vec<f64> = (0..8)
            .flat_map(|s| (0..8).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| m.fraction(s, d))
            .collect();
        fracs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!(fracs[0] > 10.0 * fracs[20], "zipf head should dominate");
    }

    #[test]
    fn sampling_tracks_fractions() {
        let m = TrafficMatrix::hotspot(4, 1, 0.9, 0);
        let mut rng = SimRng::new(12);
        let mut hot_hits = 0;
        let n = 100_000;
        for _ in 0..n {
            let (s, d) = m.sample_pair(&mut rng);
            assert_ne!(s, d, "never sample the diagonal");
            if (s, d) == (0, 1) {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.01, "hot pair sampled {frac}");
    }

    #[test]
    fn a_draw_past_the_float_sum_picks_a_non_zero_cell() {
        // The 240 fractions of uniform(16) sum to just below 1.0, so the
        // largest draw `SimRng::f64` makes lies past the last cumulative
        // value. Clamping to the last dense cell picked (15, 15).
        let m = TrafficMatrix::uniform(16);
        let u = 1.0 - f64::EPSILON / 2.0;
        let (s, d) = m.pick_pair(u);
        assert_ne!(s, d, "picked the zero-weight diagonal cell ({s}, {d})");
        assert!(m.fraction(s, d) > 0.0);
        assert_eq!((s, d), (15, 14), "the last non-zero cell");
    }

    #[test]
    fn a_draw_on_a_cumulative_value_picks_the_next_non_zero_cell() {
        // permutation(4, 1): (0,1), (1,2), (2,3), (3,0) at 0.25 each, with
        // zero cells between them. A draw of exactly 0.25 ends (0, 1)'s
        // interval and starts (1, 2)'s; a binary search over the dense
        // cumulative sums could return any of the zero cells between.
        let m = TrafficMatrix::permutation(4, 1);
        assert_eq!(m.pick_pair(0.0), (0, 1));
        assert_eq!(m.pick_pair(0.25), (1, 2));
        assert_eq!(m.pick_pair(0.5), (2, 3));
        assert_eq!(m.pick_pair(0.75), (3, 0));
        assert_eq!(m.pick_pair(0.7499999), (2, 3));
    }

    #[test]
    fn shuffle_stages_cover_every_pair_exactly_once() {
        let n = 6;
        let stages = TrafficMatrix::shuffle_stages(n);
        assert_eq!(stages.len(), n - 1);
        let mut hits = vec![0u32; n * n];
        for st in &stages {
            assert_valid(st);
            for s in 0..n {
                for d in 0..n {
                    if st.fraction(s, d) > 0.0 {
                        hits[s * n + d] += 1;
                    }
                }
            }
        }
        for s in 0..n {
            for d in 0..n {
                let expect = if s == d { 0 } else { 1 };
                assert_eq!(hits[s * n + d], expect, "pair ({s},{d})");
            }
        }
    }

    #[test]
    fn equality_compares_cells_not_storage() {
        // All background, every cell listed, and one listed hot cell per
        // row at the background's weight: the same matrix.
        let u = TrafficMatrix::uniform(6);
        assert_eq!(u, TrafficMatrix::from_weights(6, vec![1.0; 36]).unwrap());
        assert_eq!(u, TrafficMatrix::hotspot(6, 6, 0.0, 2));
        assert_ne!(u, TrafficMatrix::hotspot(6, 2, 0.5, 0));
        assert_ne!(
            TrafficMatrix::permutation(6, 1),
            TrafficMatrix::permutation(6, 2)
        );
        assert_ne!(TrafficMatrix::uniform(5), TrafficMatrix::uniform(6));
    }

    #[test]
    fn the_walk_visits_the_support_in_row_major_order() {
        let walk = |m: &TrafficMatrix| {
            let mut cells = Vec::new();
            m.for_each_cell(|s, d, f| cells.push((s, d, f)));
            cells
        };
        // A zero background visits only the listed cells.
        let p = walk(&TrafficMatrix::permutation(5, 2));
        let want: Vec<_> = (0..5).map(|s| (s, (s + 2) % 5, 0.2)).collect();
        assert_eq!(p, want);
        // A non-zero background visits every off-diagonal cell once.
        let h = TrafficMatrix::hotspot(5, 2, 0.5, 0);
        let cells = walk(&h);
        assert_eq!(cells.len(), 20);
        assert!(cells
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert!(cells
            .iter()
            .all(|&(s, d, f)| s != d && f == h.fraction(s, d)));
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(TrafficMatrix::from_weights(1, vec![1.0]).is_err());
        assert!(TrafficMatrix::from_weights(2, vec![1.0; 3]).is_err());
        // Only diagonal weight → no load.
        assert!(TrafficMatrix::from_weights(2, vec![1.0, 0.0, 0.0, 1.0]).is_err());
        assert!(TrafficMatrix::from_weights(2, vec![0.0, f64::NAN, 0.0, 0.0]).is_err());
        assert!(TrafficMatrix::from_weights(2, vec![0.0, -1.0, 1.0, 0.0]).is_err());
    }
}

#[cfg(test)]
mod dense_reference;
