//! Order statistics for latency samples.

/// Fewest samples a percentile must have beyond it before it is reported.
pub const MIN_TAIL: usize = 10;

/// Smallest sample count for which percentile `p` has [`MIN_TAIL`]
/// samples beyond it.
pub fn min_samples(p: f64) -> usize {
    // The small offset keeps float error from adding a sample: 10/0.1
    // evaluates to 100.00000000000001.
    (MIN_TAIL as f64 / (1.0 - p) - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `p ∈ (0, 1]` of `v` (sorted in place).
/// Returns 0 for an empty slice.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        // p90 of 100 samples leaves exactly ten beyond it.
        assert_eq!(min_samples(0.9), 100);
    }
}
