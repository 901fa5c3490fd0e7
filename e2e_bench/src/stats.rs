//! Order statistics for the reported timings.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile `p` of sorted `xs`, with the number of
/// samples strictly beyond its rank.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    // The epsilon keeps a product such as 99.9 × 10 000 from rounding up
    // past an exact rank.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    (sorted[rank - 1], sorted.len() - rank)
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it, as `(percentile, value)`; `None` when even the median has fewer.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(&sorted, p);
        (beyond >= 10).then_some((p, value))
    })
}

/// Nearest-rank percentile `p` of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    nearest_rank(&sorted, p).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 240 DES replications: p95 leaves 12 beyond it, p99 only 2.
        assert_eq!(tail_percentile(&ramp(240)), Some((95.0, 228.0)));
        // 10 000 samples: p99.9 leaves exactly 10.
        assert_eq!(tail_percentile(&ramp(10_000)), Some((99.9, 9_990.0)));
        // 1 000 samples: p99 leaves 10, p99.9 only 1.
        assert_eq!(tail_percentile(&ramp(1_000)), Some((99.0, 990.0)));
        // 100 samples: p90 leaves 10, p95 only 5.
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
        // 20 samples: only the median leaves 10 beyond it.
        assert_eq!(tail_percentile(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&ramp(19)), None);
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = ramp(240);
        assert_eq!(percentile(&xs, 50.0), 120.0);
        assert_eq!(percentile(&xs, 95.0), 228.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
