//! Order statistics for latency samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted` samples, linearly
/// interpolated between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A tail latency: the highest percentile that still has enough samples
/// beyond it to be more than one unlucky sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    pub samples: usize,
}

/// Percentiles [`tail`] considers, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of [`TAIL_PERCENTILES`] with at least [`TAIL_MIN_BEYOND`]
/// samples ranked above it (nearest-rank definition), or the median of
/// too few samples to have any such tail. `None` for no samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |p: f64| {
        // Nearest rank: the smallest sample with at least p% of the
        // samples at or below it.
        let rank = (p * n as f64 / 100.0).ceil().max(1.0) as usize;
        Tail {
            percentile: p,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        }
    };
    Some(
        TAIL_PERCENTILES
            .iter()
            .map(|&p| at(p))
            .find(|t| t.beyond >= TAIL_MIN_BEYOND)
            .unwrap_or_else(|| at(50.0)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!((quantile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples).expect("non-empty");
        // p99.9 leaves 1 beyond, p99 leaves exactly 10.
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!((t.beyond, t.samples), (10, 1000));
    }

    #[test]
    fn tail_falls_back_as_samples_shrink() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: p99's rank is 990, leaving 9 beyond; p95 leaves 49.
        let t = tail(&samples).expect("non-empty");
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 950.0);
        assert_eq!(t.beyond, 49);

        let t = tail(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 2.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = tail(&samples).expect("non-empty");
        samples.sort_by(f64::total_cmp);
        assert_eq!(tail(&samples), Some(a));
        // 200 samples: p99 leaves 2 beyond, p95 exactly 10.
        assert_eq!(a.percentile, 95.0);
        assert_eq!((a.value, a.beyond), (189.0, 10));
    }
}
