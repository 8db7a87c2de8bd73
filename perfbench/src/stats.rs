//! Order statistics over op samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly beyond `value` in rank order.
    pub beyond: usize,
    pub samples: usize,
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// With fewer than `TAIL_BEYOND + 1` samples no percentile qualifies, and
/// the maximum is reported with the count of samples beyond it (zero).
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    let idx = if n > TAIL_BEYOND { n - TAIL_BEYOND - 1 } else { n - 1 };
    Tail {
        value: s[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
        samples: n,
    }
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 75.0);
    }

    #[test]
    fn short_samples_report_the_maximum() {
        let t = tail(&[2.0, 9.0, 4.0]);
        assert_eq!((t.value, t.beyond, t.percentile), (9.0, 0, 100.0));
    }
}
