//! Percentiles computed from raw samples, never from bucketed histograms.

/// Percentile ladder a tail figure is picked from: the decade ladder,
/// and p75 for runs of under 100 samples. There is no p95 rung: on the
/// serving workloads about one request in twenty waits for a journal
/// snapshot, so a p95 tail sat on the edge of that group and swung
/// between its two levels from run to run.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0..=100) of `samples` by linear interpolation
/// between closest ranks. `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The highest percentile on the ladder with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it; the median when there
/// are too few samples for any rung.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64)
        .unwrap_or(50.0)
}

/// The smallest value, `None` when there is none.
pub fn lowest(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_raw_samples() {
        let s: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&s), Some(51.0));
        assert_eq!(percentile(&s, 90.0), Some(91.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), 90.0);
        assert_eq!(tail_percentile(60), 75.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(20), 50.0);
    }

    #[test]
    fn lowest_of_none_is_none() {
        assert_eq!(lowest(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(lowest(&[]), None);
    }
}
