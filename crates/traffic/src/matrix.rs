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
//!   for any scheduler: the destination port is the bottleneck).

use std::sync::OnceLock;

use xds_sim::SimRng;

/// An `n × n` matrix of load fractions summing to 1 with a zero diagonal.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    frac: Vec<f64>,
    /// The pair sampler, built lazily on first use: only flow sampling
    /// needs it, and consumers that never sample (the estimate tier,
    /// matrix analysis) would otherwise pay a full extra pass per matrix.
    sampler: OnceLock<Sampler>,
}

/// The cumulative distribution over the matrix's non-zero cells, in
/// row-major order. Zero cells have zero width, so leaving them out
/// moves only the draws a dense table resolved to a zero cell (a draw
/// equal to a cumulative value, or past the float sum), and a sparse
/// matrix samples from a table the size of its support rather than `n²`.
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
    fn eq(&self, other: &Self) -> bool {
        // The sampler is a pure derivation of `frac`; comparing it would
        // only re-compare the same information.
        self.n == other.n && self.frac == other.frac
    }
}

impl TrafficMatrix {
    /// Builds from raw weights (any non-negative values; normalized
    /// internally). Diagonal entries are zeroed.
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
        let mut frac = weights;
        for s in 0..n {
            frac[s * n + s] = 0.0;
        }
        let mut total = 0.0;
        for &w in &frac {
            if !w.is_finite() || w < 0.0 {
                return Err(format!("weight {w} is not a finite non-negative number"));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err("matrix has no off-diagonal load".into());
        }
        for w in &mut frac {
            *w /= total;
        }
        Ok(TrafficMatrix {
            n,
            frac,
            sampler: OnceLock::new(),
        })
    }

    /// Uniform all-to-all.
    pub fn uniform(n: usize) -> Self {
        Self::from_weights(n, vec![1.0; n * n]).expect("uniform matrix is valid")
    }

    /// A (cyclic-shift) permutation: source `s` sends only to `(s+k) % n`.
    pub fn permutation(n: usize, k: usize) -> Self {
        assert!(
            !k.is_multiple_of(n),
            "shift 0 would put all load on the diagonal"
        );
        let mut w = vec![0.0; n * n];
        for s in 0..n {
            w[s * n + (s + k) % n] = 1.0;
        }
        Self::from_weights(n, w).expect("permutation matrix is valid")
    }

    /// `num_hot` hot pairs carrying `hot_fraction` of the load over a
    /// uniform background. Hot pairs are `(i, (i + 1 + offset) % n)` for
    /// `i < num_hot` — deterministic so experiments can rotate them.
    pub fn hotspot(n: usize, num_hot: usize, hot_fraction: f64, offset: usize) -> Self {
        assert!(num_hot > 0 && num_hot <= n, "need 1..=n hot pairs");
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot fraction must be in [0,1]"
        );
        let mut w = vec![if hot_fraction < 1.0 { 1.0 } else { 0.0 }; n * n];
        // Background weight total (excluding diagonal): n*(n-1) entries of
        // weight 1, including the hot cells' own background share. Solve
        //   num_hot*(1 + x) / (bg_total + num_hot*x) = hot_fraction
        // for the extra weight x per hot cell.
        let bg_total: f64 = (n * (n - 1)) as f64;
        let hot_weight = if hot_fraction < 1.0 {
            let f = hot_fraction;
            let k = num_hot as f64;
            ((f * bg_total - k) / (k * (1.0 - f))).max(0.0)
        } else {
            1.0
        };
        for i in 0..num_hot {
            let dst = (i + 1 + offset) % n;
            if dst != i {
                w[i * n + dst] += hot_weight;
            } else {
                w[i * n + (dst + 1) % n] += hot_weight;
            }
        }
        Self::from_weights(n, w).expect("hotspot matrix is valid")
    }

    /// Zipf-skewed pair popularity with exponent `s`, pair order shuffled
    /// by `rng`.
    pub fn zipf(n: usize, s: f64, rng: &mut SimRng) -> Self {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        rng.shuffle(&mut order);
        let mut w = vec![0.0; n * n];
        for (rank, &pi) in order.iter().enumerate() {
            let (a, b) = pairs[pi];
            w[a * n + b] = 1.0 / ((rank + 1) as f64).powf(s);
        }
        Self::from_weights(n, w).expect("zipf matrix is valid")
    }

    /// `m` sources (ports `0..m`, excluding the target) all sending to one
    /// `target` port, no background.
    pub fn incast(n: usize, m: usize, target: usize) -> Self {
        assert!(target < n, "target out of range");
        assert!(m >= 1 && m < n, "need 1..n-1 senders");
        let mut w = vec![0.0; n * n];
        let mut senders = 0;
        for s in 0..n {
            if s == target {
                continue;
            }
            if senders == m {
                break;
            }
            w[s * n + target] = 1.0;
            senders += 1;
        }
        Self::from_weights(n, w).expect("incast matrix is valid")
    }

    /// The `n−1` stages of an all-to-all shuffle (map-reduce style): stage
    /// *k* is the cyclic permutation `src → src+k+1`. Drive them with
    /// [`xds-core`'s matrix rotation] to emulate a staged shuffle whose
    /// communication pattern changes every period — a classic OCS stress
    /// test (each stage is circuit-friendly; the *transitions* cost
    /// reconfigurations).
    pub fn shuffle_stages(n: usize) -> Vec<TrafficMatrix> {
        (1..n).map(|k| TrafficMatrix::permutation(n, k)).collect()
    }

    /// Port count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The load fraction from `s` to `d`.
    pub fn fraction(&self, s: usize, d: usize) -> f64 {
        self.frac[s * self.n + d]
    }

    /// Iterates the matrix row by row (source-major `n`-length slices).
    /// Sequential consumers should prefer this over per-element
    /// [`Self::fraction`] calls — one bounds check per row, hardware
    /// prefetch across the whole walk.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.frac.chunks_exact(self.n)
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
            let cells = self.frac.iter().filter(|&&w| w > 0.0).count();
            let (mut cum, mut cell) = (Vec::with_capacity(cells), Vec::with_capacity(cells));
            let mut acc = 0.0;
            for (i, &w) in self.frac.iter().enumerate() {
                if w > 0.0 {
                    acc += w;
                    cum.push(acc);
                    cell.push(u32::try_from(i).expect("cell index fits in u32"));
                }
            }
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

    /// Row and column sums in one row-major pass. A column-major sweep
    /// strides `8n` bytes per element — every access a cache miss at
    /// kilofabric sizes — so both sums accumulate over the same
    /// sequential walk. Per-destination addition order (ascending source)
    /// is unchanged, so the sums are bit-identical to the naive loops.
    pub fn row_col_sums(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let mut rows = vec![0.0; n];
        let mut cols = vec![0.0; n];
        for (row, row_sum) in self.frac.chunks_exact(n).zip(rows.iter_mut()) {
            let mut sum = 0.0;
            for (d, &f) in row.iter().enumerate() {
                sum += f;
                cols[d] += f;
            }
            *row_sum = sum;
        }
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
    fn degenerate_inputs_rejected() {
        assert!(TrafficMatrix::from_weights(1, vec![1.0]).is_err());
        assert!(TrafficMatrix::from_weights(2, vec![1.0; 3]).is_err());
        // Only diagonal weight → no load.
        assert!(TrafficMatrix::from_weights(2, vec![1.0, 0.0, 0.0, 1.0]).is_err());
        assert!(TrafficMatrix::from_weights(2, vec![0.0, f64::NAN, 0.0, 0.0]).is_err());
        assert!(TrafficMatrix::from_weights(2, vec![0.0, -1.0, 1.0, 0.0]).is_err());
    }
}
