//! Order statistics for timings.

/// The minimum number of samples that must lie strictly beyond a
/// reported tail percentile, so a single outlier cannot set it.
pub const MIN_TAIL: usize = 10;

/// The median of `xs` (mean of the two middle values for even counts),
/// or `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of `xs` (`0 < q < 1`), reported only when
/// at least [`MIN_TAIL`] samples lie strictly beyond its rank.
///
/// # Errors
///
/// Returns a message naming the sample count needed when `xs` is too
/// small for `q`.
pub fn tail_percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    let s = sorted(xs);
    let n = s.len();
    // Nearest rank: the smallest k with k/n >= q, 1-based.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || rank > n || n - rank < MIN_TAIL {
        let needed = (MIN_TAIL as f64 / (1.0 - q)).ceil() as usize;
        return Err(format!(
            "p{} of {n} samples leaves fewer than {MIN_TAIL} beyond it; needs at least {needed}",
            q * 100.0
        ));
    }
    Ok(s[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank 190 of 200: exactly ten samples (191..=200) lie beyond it.
        assert_eq!(tail_percentile(&xs, 0.95), Ok(190.0));
        let err = tail_percentile(&xs[..199], 0.95).unwrap_err();
        assert!(err.contains("needs at least 200"), "{err}");
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..240).map(|i| f64::from((i * 37) % 240)).collect();
        let a = tail_percentile(&xs, 0.95).unwrap();
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 0.95).unwrap(), a);
        // 240 samples: rank 228 (value 227), twelve beyond it.
        assert_eq!(a, 227.0);
    }

    #[test]
    fn p50_of_small_samples_is_refused_but_median_is_not() {
        let xs = [5.0; 15];
        assert!(tail_percentile(&xs, 0.5).is_err());
        assert_eq!(median(&xs), Some(5.0));
        assert!(tail_percentile(&[5.0; 20], 0.5).is_ok());
    }

    #[test]
    fn empty_sample_is_refused() {
        assert!(tail_percentile(&[], 0.95).is_err());
    }
}
