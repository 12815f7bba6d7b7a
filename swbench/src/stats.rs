//! Order statistics used by every workload.

/// Nearest-rank percentile (`q` in `[0, 1]`), the rule the repository's
/// perf baseline gate uses. Returns 0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so numbers in result files match what a
/// Python reader of the same values computes. A single value is its
/// own quartiles; an empty sample is all zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return [0.0; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let n = 4usize;
    let ld = d.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    out
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median as the middle quartile (see [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    /// Reference values from CPython 3.11 `statistics.quantiles(x, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        // Python extrapolates past the ends of very small samples.
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(quartiles(&[]), [0.0; 3]);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
