//! The dense `n²` construction the support-sized [`TrafficMatrix`]
//! replaced, kept as the reference it must agree with bit for bit:
//! every cell's fraction, the row and column sums, the imbalance, the
//! pair a draw picks, and each named builder against the dense weights
//! it used to normalize.

use proptest::prelude::*;
use xds_sim::SimRng;

use super::TrafficMatrix;

/// The dense matrix: every cell's fraction in one row-major array.
struct Dense {
    n: usize,
    frac: Vec<f64>,
}

impl Dense {
    fn from_weights(n: usize, weights: Vec<f64>) -> Result<Self, String> {
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
        Ok(Dense { n, frac })
    }

    fn row_col_sums(&self) -> (Vec<f64>, Vec<f64>) {
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

    fn imbalance(&self) -> f64 {
        let (rows, cols) = self.row_col_sums();
        let max_row = rows.into_iter().fold(0.0, f64::max);
        let max_col = cols.into_iter().fold(0.0, f64::max);
        max_row.max(max_col) * self.n as f64
    }

    /// The running sum at each non-zero cell, with that cell.
    fn cumulative(&self) -> Vec<(f64, usize)> {
        let mut acc = 0.0;
        let mut cum = Vec::new();
        for (i, &w) in self.frac.iter().enumerate() {
            if w > 0.0 {
                acc += w;
                cum.push((acc, i));
            }
        }
        cum
    }

    fn pick(&self, u: f64) -> (usize, usize) {
        let cum = self.cumulative();
        let i = cum.partition_point(|&(c, _)| c <= u).min(cum.len() - 1);
        (cum[i].1 / self.n, cum[i].1 % self.n)
    }
}

fn permutation_weights(n: usize, k: usize) -> Vec<f64> {
    let mut w = vec![0.0; n * n];
    for s in 0..n {
        w[s * n + (s + k) % n] = 1.0;
    }
    w
}

fn hotspot_weights(n: usize, num_hot: usize, hot_fraction: f64, offset: usize) -> Vec<f64> {
    let mut w = vec![if hot_fraction < 1.0 { 1.0 } else { 0.0 }; n * n];
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
    w
}

fn zipf_weights(n: usize, s: f64, rng: &mut SimRng) -> Vec<f64> {
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
    w
}

fn incast_weights(n: usize, m: usize, target: usize) -> Vec<f64> {
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
    w
}

fn ring_weights(n: usize, shifts: &[usize]) -> Vec<f64> {
    let mut w = vec![0.0; n * n];
    for &k in shifts {
        let k = (k % n).max(1);
        for s in 0..n {
            w[s * n + (s + k) % n] = 1.0;
        }
    }
    w
}

/// Raw weights for an `n`-port matrix: zeros, repeated values and
/// arbitrary ones, on and off the diagonal, with the rows whose bit is
/// set in `zero_rows` all zero.
fn weights(n: usize, raw: &[u32], zero_rows: u16) -> Vec<f64> {
    (0..n * n)
        .map(|i| match raw[i] % 8 {
            _ if zero_rows >> (i / n) & 1 == 1 => 0.0,
            0 | 1 => 0.0,
            2 => 1.0,
            3 => 0.25,
            _ => f64::from(raw[i] >> 3) / 1024.0,
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether `m` and `d` agree bitwise on every cell, on their sums and
/// imbalance, and on the pair each of the draws that bound a sampler
/// interval picks.
fn agree(m: &TrafficMatrix, d: &Dense) -> Result<(), String> {
    let n = d.n;
    prop_assert_eq!(m.n(), n);
    for s in 0..n {
        for t in 0..n {
            prop_assert_eq!(
                m.fraction(s, t).to_bits(),
                d.frac[s * n + t].to_bits(),
                "cell ({}, {})",
                s,
                t
            );
        }
    }
    let (rows, cols) = d.row_col_sums();
    prop_assert_eq!(bits(&m.row_sums()), bits(&rows));
    prop_assert_eq!(bits(&m.col_sums()), bits(&cols));
    let (m_rows, m_cols) = m.row_col_sums();
    prop_assert_eq!(bits(&m_rows), bits(&rows));
    prop_assert_eq!(bits(&m_cols), bits(&cols));
    prop_assert_eq!(m.imbalance().to_bits(), d.imbalance().to_bits());
    let mut draws = vec![0.0, 1.0 - f64::EPSILON / 2.0];
    for (c, _) in d.cumulative() {
        draws.push(c);
        draws.push(f64::from_bits(c.to_bits() - 1));
    }
    for u in draws {
        prop_assert_eq!(m.pick_pair(u), d.pick(u), "draw {}", u);
    }
    Ok(())
}

/// `built` agrees with the dense matrix of `w`, and equals
/// `from_weights(w)` whatever either stores.
fn matches_weights(built: &TrafficMatrix, w: Vec<f64>) -> Result<(), String> {
    let n = built.n();
    prop_assert!(*built == TrafficMatrix::from_weights(n, w.clone()).unwrap());
    agree(built, &Dense::from_weights(n, w).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_weights_matches_the_dense_reference(
        n in 2usize..=12,
        raw in proptest::collection::vec(any::<u32>(), 144),
        zero_rows in any::<u16>(),
    ) {
        let w = weights(n, &raw, zero_rows);
        match (TrafficMatrix::from_weights(n, w.clone()), Dense::from_weights(n, w)) {
            (Ok(m), Ok(d)) => agree(&m, &d)?,
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "{:?} against {:?}", a.err(), b.err()),
        }
    }

    #[test]
    fn invalid_weights_give_the_dense_errors(
        n in 2usize..=12,
        raw in proptest::collection::vec(any::<u32>(), 144),
        kind in 0u8..4,
        at in 0usize..144,
    ) {
        let mut w = weights(n, &raw, 0);
        let at = at % (n * n);
        match kind {
            0 => w[at] = f64::NAN,
            1 => w[at] = -1.0 - w[at],
            2 => w.iter_mut().for_each(|x| *x = 0.0),
            _ => {
                for (i, x) in w.iter_mut().enumerate() {
                    *x = if i % (n + 1) == 0 { 1.0 } else { 0.0 };
                }
            }
        }
        let new = TrafficMatrix::from_weights(n, w.clone()).err();
        let old = Dense::from_weights(n, w).err();
        // A bad weight on the diagonal is ignored by both.
        prop_assert!(old.is_some() || at % (n + 1) == 0, "{:?}", old);
        prop_assert_eq!(new, old);
    }

    #[test]
    fn builders_match_their_dense_weights(
        n in 2usize..=12,
        k in 1usize..40,
        hotspot in (1usize..=12, 0usize..40),
        shifts in proptest::collection::vec(0usize..40, 1..6),
        incast_zipf in (1usize..12, 0usize..12, 0usize..5, any::<u64>()),
    ) {
        let (hot, offset) = hotspot;
        let (senders, target, exponent, seed) = incast_zipf;
        matches_weights(&TrafficMatrix::uniform(n), vec![1.0; n * n])?;
        if k % n != 0 {
            matches_weights(&TrafficMatrix::permutation(n, k), permutation_weights(n, k))?;
        }
        let hot = hot.min(n);
        for f in [0.0, 0.7, 1.0] {
            matches_weights(
                &TrafficMatrix::hotspot(n, hot, f, offset),
                hotspot_weights(n, hot, f, offset),
            )?;
        }
        let (senders, target) = (senders.min(n - 1), target % n);
        matches_weights(
            &TrafficMatrix::incast(n, senders, target),
            incast_weights(n, senders, target),
        )?;
        matches_weights(&TrafficMatrix::rings(n, &shifts), ring_weights(n, &shifts))?;
        let s = [0.5, 1.0, 1.2, 1.5, 3.0][exponent];
        let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
        matches_weights(&TrafficMatrix::zipf(n, s, &mut a), zipf_weights(n, s, &mut b))?;
        prop_assert_eq!(a.next_u64(), b.next_u64(), "zipf's draws moved");
        for (stage, m) in TrafficMatrix::shuffle_stages(n).iter().enumerate() {
            matches_weights(m, permutation_weights(n, stage + 1))?;
        }
    }
}
