//! Order statistics over per-iteration samples.

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a timing distribution: the highest sample rank that still
/// has at least ten samples beyond it. Returns `(value, percentile,
/// samples)`, or `None` with fewer than eleven samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 11;
    Some((v[k], 100.0 * (k + 1) as f64 / n as f64, n))
}

/// `a / b`, or 0 when `b` is 0 (ratios of counts a workload may not have).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert!(tail(&[1.0; 10]).is_none());
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let (value, pct, n) = tail(&v).unwrap();
        assert_eq!(value, 10.0);
        assert_eq!(pct, 50.0);
        assert_eq!(n, 20);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }
}
