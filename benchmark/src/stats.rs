//! Order statistics and the content digest the benchmark reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver and the
//! README's steadiness rule are stated in.

/// Median of `v` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    Some(if s.len() % 2 == 1 { s[mid] } else { (s[mid - 1] + s[mid]) / 2.0 })
}

/// `(q1, q2, q3)` as `statistics.quantiles(v, n=4)` gives them. Needs at
/// least two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median — the steadiness
/// measure every bound in `BENCHMARK.json` is judged against.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(v)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 · n)`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of an `n`-sample has at least ten samples
/// beyond it — the rule for the highest percentile a report may quote.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// A latency sample reduced to what the report quotes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Samples taken.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile; `None` when fewer than ten samples lie beyond it.
    pub p99: Option<f64>,
}

/// Reduces raw latency samples (any order). With `strict`, a p99 with
/// fewer than ten samples beyond it is withheld; smoke-test runs, whose
/// results are not comparable anyway, pass `false`.
pub fn latency(samples: &[f64], strict: bool) -> Option<Latency> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Latency {
        n: s.len(),
        p50: percentile(&s, 50.0)?,
        p99: (!strict || supported(s.len(), 99.0)).then(|| percentile(&s, 99.0)).flatten(),
    })
}

/// Incremental FNV-1a (64-bit) — the `commit_digest` hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in, length-prefixed so adjacent fields cannot alias.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_by_hand() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(5.5 / 5.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, ten beyond. 999: rank 990, nine beyond.
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        let few: Vec<f64> = (0..500).map(f64::from).collect();
        let l = latency(&few, true).expect("non-empty");
        assert_eq!((l.n, l.p50, l.p99), (500, 249.0, None));
        assert_eq!(latency(&few, false).expect("non-empty").p99, Some(494.0));
        let many: Vec<f64> = (0..3000).map(f64::from).collect();
        assert_eq!(latency(&many, true).expect("non-empty").p99, Some(2969.0));
    }

    #[test]
    fn fnv_is_length_prefixed() {
        let mut a = Fnv::default();
        a.update(b"ab");
        a.update(b"c");
        let mut b = Fnv::default();
        b.update(b"a");
        b.update(b"bc");
        assert_ne!(a, b);
        let mut c = Fnv::default();
        c.update(b"ab");
        c.update(b"c");
        assert_eq!(a, c);
    }
}
