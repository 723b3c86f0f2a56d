//! Order statistics and the trajectory fingerprint.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice or a NaN: callers check both first.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The 1-based nearest rank of the `q`-quantile (0 < q < 1) among `n`
/// samples: the smallest rank with at least `q·n` samples at or below it.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile by the nearest-rank rule.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v[nearest_rank(v.len(), q) - 1]
}

/// How many of `n` samples lie beyond the `q`-quantile's rank. A percentile
/// is reported only with enough samples beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance driver uses for the run-to-run spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped to the sample range.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(400, 0.95), 20);
        assert_eq!(percentile(&[5.0], 0.95), 5.0);
        assert_eq!(samples_beyond(1, 0.95), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf29ce484222325);
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
