//! Order statistics and the small parsers the benchmark reports with.
//! Free of simulator types, so they are tested on plain numbers.

/// Samples a tail percentile must leave above it to be reported as such.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile reported when the samples support it.
const TAIL_Q: f64 = 0.95;

/// Median with linear interpolation between the middle pair (the
/// convention of Python's `statistics.median`). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank quantile: the smallest sample with at least a `q` share
/// of the samples at or below it. `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[rank(v.len(), q) - 1])
}

/// A reported tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported: 0.95 when at least [`MIN_BEYOND`] samples
    /// lie beyond it, else the highest percentile that has them.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

impl Tail {
    /// Whether the percentile has the [`MIN_BEYOND`] samples the rule asks
    /// for (false only below `2 * MIN_BEYOND` samples, where the median
    /// is reported).
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The tail by the reporting rule: p95 when at least [`MIN_BEYOND`]
/// samples rank above it, otherwise the highest percentile that leaves
/// [`MIN_BEYOND`] above it, and never below the median.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let q = if n - rank(n, TAIL_Q) >= MIN_BEYOND {
        TAIL_Q
    } else {
        (1.0 - MIN_BEYOND as f64 / n as f64).max(0.5)
    };
    Some(Tail {
        q,
        value: quantile(values, q)?,
        samples: n,
        beyond: n - rank(n, q),
    })
}

/// 1-based nearest rank of quantile `q` among `n > 0` samples. The
/// epsilon keeps e.g. `0.95 * 200` at rank 190 despite float rounding.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Symmetric relative error of an estimate against an exact value,
/// `|est − exact| / max(|exact|, |est|, 1)`. `None` when either side is
/// absent: a metric one tier did not measure is skipped, never scored as
/// zero. A non-finite side scores the worst error, 1.
pub fn sym_rel_err(est: Option<f64>, exact: Option<f64>) -> Option<f64> {
    let (e, x) = (est?, exact?);
    if !e.is_finite() || !x.is_finite() {
        return Some(1.0);
    }
    Some((e - x).abs() / x.abs().max(e.abs()).max(1.0))
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (its `VmHWM:  <n> kB` line).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then(|| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_an_even_count() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&v[..200]).unwrap();
        assert_eq!((t.q, t.value, t.samples, t.beyond), (0.95, 190.0, 200, 10));
        assert!(t.supported());
        let t = tail(&v).unwrap();
        assert_eq!((t.q, t.value, t.samples, t.beyond), (0.95, 380.0, 400, 20));
        // One sample short: p95 would leave 9 above it, so the highest
        // percentile that leaves 10 is reported instead.
        let t = tail(&v[..199]).unwrap();
        assert!(t.q < 0.95 && t.q > 0.94, "{t:?}");
        assert_eq!((t.samples, t.beyond), (199, 10));
        assert!(t.supported());
        // 24 samples: p58, still ten above it.
        let t = tail(&v[..24]).unwrap();
        assert_eq!((t.value, t.beyond), (14.0, 10));
        // 12 samples cannot support any tail: the median, flagged.
        let t = tail(&v[..12]).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (0.5, 6.0, 6));
        assert!(!t.supported());
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn symmetric_error_handles_zero_and_absent_values() {
        assert_eq!(sym_rel_err(Some(5.0), Some(5.0)), Some(0.0));
        assert_eq!(sym_rel_err(Some(0.0), Some(0.0)), Some(0.0));
        // One side zero: bounded at 1, not infinite.
        assert_eq!(sym_rel_err(Some(0.0), Some(400.0)), Some(1.0));
        assert_eq!(sym_rel_err(Some(400.0), Some(0.0)), Some(1.0));
        // Symmetric in its arguments.
        assert_eq!(sym_rel_err(Some(50.0), Some(100.0)), Some(0.5));
        assert_eq!(sym_rel_err(Some(100.0), Some(50.0)), Some(0.5));
        // Below magnitude 1 the floor of 1 applies.
        assert_eq!(sym_rel_err(Some(0.25), Some(0.75)), Some(0.5));
        // Absent on either side: skipped, never scored as zero.
        assert_eq!(sym_rel_err(None, Some(3.0)), None);
        assert_eq!(sym_rel_err(Some(3.0), None), None);
        assert_eq!(sym_rel_err(None, None), None);
        assert_eq!(sym_rel_err(Some(f64::NAN), Some(3.0)), Some(1.0));
    }

    #[test]
    fn rss_parser_reads_vm_hwm_in_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  400000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t1024 MB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\n"), None);
    }
}
