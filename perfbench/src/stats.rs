//! Order statistics for the repeated measurements of one run.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`, in any order;
/// `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied()
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice:
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn beyond_percentile(sorted: &[u64], p: f64) -> usize {
    match percentile_sorted(sorted, p) {
        Some(cut) => sorted.len() - sorted.partition_point(|&x| x <= cut),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile_of_unsorted_floats() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 10.0), Some(4.0));
        assert_eq!(percentile(&v, 90.0), Some(36.0));
        assert_eq!(percentile(&[2.5], 10.0), Some(2.5));
        assert_eq!(percentile(&[], 10.0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(500));
        assert_eq!(percentile_sorted(&v, 99.0), Some(990));
        assert_eq!(beyond_percentile(&v, 99.0), 10);
        assert_eq!(percentile_sorted(&[7], 99.0), Some(7));
        assert_eq!(beyond_percentile(&[], 99.0), 0);
    }
}
