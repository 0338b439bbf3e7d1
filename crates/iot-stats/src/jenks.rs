//! Jenks natural-breaks classification (Section V-A, "Type unification").
//!
//! The preprocessor discretises *ambient numeric* device states (e.g.
//! brightness readings) into Low/High binary states using Jenks natural
//! breaks — the 1-D dynamic-programming optimisation (Fisher–Jenks) that
//! minimises within-class variance.

use serde::{Deserialize, Serialize};

/// Computes the optimal Jenks natural breaks for `num_classes` classes.
///
/// Returns the `num_classes − 1` interior break values: class `c` contains
/// the values `v` with `breaks[c-1] < v <= breaks[c]` (with virtual
/// sentinels at ±∞). Values need not be sorted or unique.
///
/// Runs the exact Fisher–Jenks dynamic programme after an `O(n log n)`
/// sort, in `O((num_classes − 1) · n²)` time: each class but the last
/// fills a DP row in at most `O(n²)`, and the last fills only the cell the
/// walk-back reads, in `O(n)`, so a two-class split is one linear pass.
/// Callers with very large inputs and more than two classes should
/// subsample first (see [`JenksBinarizer::fit`]).
///
/// # Panics
///
/// Panics if `num_classes == 0`, if `values` has fewer elements than
/// `num_classes`, or if any value is not finite.
///
/// # Example
///
/// ```
/// let values = [1.0, 1.2, 0.9, 10.0, 10.5, 9.8];
/// let breaks = iot_stats::jenks::jenks_breaks(&values, 2);
/// assert_eq!(breaks.len(), 1);
/// assert!(breaks[0] >= 1.2 && breaks[0] < 9.8);
/// ```
pub fn jenks_breaks(values: &[f64], num_classes: usize) -> Vec<f64> {
    assert!(num_classes > 0, "need at least one class");
    assert!(
        values.len() >= num_classes,
        "need at least as many values as classes"
    );
    assert!(
        values.iter().all(|v| v.is_finite()),
        "values must be finite"
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();

    // Prefix sums for O(1) within-class SSE.
    let mut prefix = vec![0.0f64; n + 1];
    let mut prefix_sq = vec![0.0f64; n + 1];
    for (i, &v) in sorted.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v;
        prefix_sq[i + 1] = prefix_sq[i] + v * v;
    }
    // SSE of sorted[i..j] (half-open).
    let sse = |i: usize, j: usize| -> f64 {
        let len = (j - i) as f64;
        if len <= 1.0 {
            return 0.0;
        }
        let sum = prefix[j] - prefix[i];
        let sum_sq = prefix_sq[j] - prefix_sq[i];
        (sum_sq - sum * sum / len).max(0.0)
    };

    // dp[j] = best cost covering sorted[0..j] with the current class count.
    let mut dp: Vec<f64> = (0..=n).map(|j| sse(0, j)).collect();
    let mut splits = vec![vec![0usize; n + 1]; num_classes];
    // The DP recurrence indexes three tables by (c, i, j) at once; plain
    // index loops state it more directly than chained iterators would.
    #[allow(clippy::needless_range_loop)]
    for c in 1..num_classes {
        let mut next = vec![f64::INFINITY; n + 1];
        // A valid partition needs at least one element per class. The
        // walk-back reads only `splits[num_classes - 1][n]`, so the last
        // class fills that one cell.
        let first_j = if c == num_classes - 1 { n } else { c + 1 };
        for j in first_j..=n {
            for i in c..j {
                let cost = dp[i] + sse(i, j);
                if cost < next[j] {
                    next[j] = cost;
                    splits[c][j] = i;
                }
            }
        }
        dp = next;
    }

    // Walk the split table back to recover break positions.
    let mut breaks_idx = Vec::with_capacity(num_classes - 1);
    let mut j = n;
    for c in (1..num_classes).rev() {
        let i = splits[c][j];
        breaks_idx.push(i);
        j = i;
    }
    breaks_idx.reverse();
    breaks_idx.iter().map(|&i| sorted[i - 1]).collect()
}

/// A fitted two-class (Low/High) Jenks discretiser for one ambient-numeric
/// device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JenksBinarizer {
    threshold: f64,
}

impl JenksBinarizer {
    /// Cap on the number of samples fed into the exact DP; larger inputs
    /// are deterministically strided down to this size.
    pub const MAX_FIT_SAMPLES: usize = 2048;

    /// Fits a Low/High threshold on training readings.
    ///
    /// Degenerate inputs (fewer than two distinct values) get a threshold
    /// at the single value, `values[0]`, classifying everything as Low.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite readings.
    pub fn fit(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot fit on an empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "values must be finite"
        );
        let first = values[0];
        if values.iter().all(|&v| v == first) {
            return JenksBinarizer { threshold: first };
        }
        let sample: Vec<f64> = if values.len() > Self::MAX_FIT_SAMPLES {
            let stride = values.len() as f64 / Self::MAX_FIT_SAMPLES as f64;
            (0..Self::MAX_FIT_SAMPLES)
                .map(|i| values[(i as f64 * stride) as usize])
                .collect()
        } else {
            values.to_vec()
        };
        let breaks = jenks_breaks(&sample, 2);
        // `breaks[0]` is the largest value of the Low class; place the
        // decision boundary in the middle of the gap to the High class so
        // unseen readings between the clusters classify sensibly.
        let lower_max = breaks[0];
        let upper_min = sample
            .iter()
            .copied()
            .filter(|&v| v > lower_max)
            .fold(f64::INFINITY, f64::min);
        let threshold = if upper_min.is_finite() {
            (lower_max + upper_min) / 2.0
        } else {
            lower_max
        };
        JenksBinarizer { threshold }
    }

    /// Creates a binarizer with an explicit threshold.
    pub fn with_threshold(threshold: f64) -> Self {
        JenksBinarizer { threshold }
    }

    /// The fitted Low/High boundary (values `> threshold` are High).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Classifies a reading: `true` = High, `false` = Low.
    pub fn is_high(&self, value: f64) -> bool {
        value > self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Fisher–Jenks DP that fills every class's whole row, the last
    /// class's included: the reference the fast path must match bit for
    /// bit.
    fn reference_breaks(values: &[f64], num_classes: usize) -> Vec<f64> {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let n = sorted.len();
        let mut prefix = vec![0.0f64; n + 1];
        let mut prefix_sq = vec![0.0f64; n + 1];
        for (i, &v) in sorted.iter().enumerate() {
            prefix[i + 1] = prefix[i] + v;
            prefix_sq[i + 1] = prefix_sq[i] + v * v;
        }
        let sse = |i: usize, j: usize| -> f64 {
            let len = (j - i) as f64;
            if len <= 1.0 {
                return 0.0;
            }
            let sum = prefix[j] - prefix[i];
            let sum_sq = prefix_sq[j] - prefix_sq[i];
            (sum_sq - sum * sum / len).max(0.0)
        };
        let mut dp: Vec<f64> = (0..=n).map(|j| sse(0, j)).collect();
        let mut splits = vec![vec![0usize; n + 1]; num_classes];
        #[allow(clippy::needless_range_loop)]
        for c in 1..num_classes {
            let mut next = vec![f64::INFINITY; n + 1];
            for j in (c + 1)..=n {
                for i in c..j {
                    let cost = dp[i] + sse(i, j);
                    if cost < next[j] {
                        next[j] = cost;
                        splits[c][j] = i;
                    }
                }
            }
            dp = next;
        }
        let mut breaks_idx = Vec::with_capacity(num_classes - 1);
        let mut j = n;
        for c in (1..num_classes).rev() {
            let i = splits[c][j];
            breaks_idx.push(i);
            j = i;
        }
        breaks_idx.reverse();
        breaks_idx.iter().map(|&i| sorted[i - 1]).collect()
    }

    /// `JenksBinarizer::fit` with its degenerate-input check done by
    /// sorting and deduplicating the whole column, over
    /// [`reference_breaks`]: the reference for the linear-scan version.
    fn reference_threshold(values: &[f64]) -> f64 {
        let mut distinct = values.to_vec();
        distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        distinct.dedup();
        if distinct.len() < 2 {
            return distinct[0];
        }
        let cap = JenksBinarizer::MAX_FIT_SAMPLES;
        let sample: Vec<f64> = if values.len() > cap {
            let stride = values.len() as f64 / cap as f64;
            (0..cap)
                .map(|i| values[(i as f64 * stride) as usize])
                .collect()
        } else {
            values.to_vec()
        };
        let lower_max = reference_breaks(&sample, 2)[0];
        let upper_min = sample
            .iter()
            .copied()
            .filter(|&v| v > lower_max)
            .fold(f64::INFINITY, f64::min);
        if upper_min.is_finite() {
            (lower_max + upper_min) / 2.0
        } else {
            lower_max
        }
    }

    /// A seeded input of 4 to 80 values: integer ties, tight clusters,
    /// values spread over many magnitudes, a few distinct values (±0.0
    /// among them), or one repeated value.
    fn seeded_input(rng: &mut StdRng) -> Vec<f64> {
        let n = rng.gen_range(4..=80usize);
        match rng.gen_range(0..5u32) {
            0 => (0..n).map(|_| rng.gen_range(-20..=20i64) as f64).collect(),
            1 => {
                let centres: Vec<f64> = (0..rng.gen_range(1..=4usize))
                    .map(|_| rng.gen_range(-1000.0..1000.0))
                    .collect();
                (0..n)
                    .map(|_| centres[rng.gen_range(0..centres.len())] + rng.gen_range(-0.01..0.01))
                    .collect()
            }
            2 => (0..n)
                .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3..=6i32)))
                .collect(),
            3 => {
                let pool = [0.0, -0.0, -7.5, 3.25, 1e-9, -1e6];
                (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
            }
            _ => vec![rng.gen_range(-50.0..50.0); n],
        }
    }

    #[test]
    fn breaks_match_the_full_row_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x0004_e4c5);
        for case in 0..2400 {
            let values = seeded_input(&mut rng);
            let k = 1 + case % 4;
            let bits = |breaks: Vec<f64>| breaks.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(jenks_breaks(&values, k)),
                bits(reference_breaks(&values, k)),
                "case {case}: k = {k}, values = {values:?}"
            );
        }
    }

    #[test]
    fn two_class_break_is_the_best_of_every_split_point() {
        let direct_sse = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
        };
        let mut rng = StdRng::seed_from_u64(0x0002_c1a5);
        for case in 0..600 {
            let mut values = seeded_input(&mut rng);
            let b = jenks_breaks(&values, 2)[0];
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            let cost = |s: usize| direct_sse(&values[..s]) + direct_sse(&values[s..]);
            let best = (1..values.len()).map(cost).fold(f64::INFINITY, f64::min);
            // The break's own classification: Low is every value <= b.
            let low = values.partition_point(|&v| v <= b);
            let scale = 1.0 + values.iter().map(|v| v * v).sum::<f64>();
            assert!(
                cost(low) <= best + 1e-9 * scale,
                "case {case}: break {b} costs {} > best {best}",
                cost(low)
            );
        }
    }

    #[test]
    fn degenerate_fit_keeps_the_first_value_bit_for_bit() {
        for values in [
            vec![42.0; 3],
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![-0.0, 0.0, 0.0, -0.0],
            vec![7.0; JenksBinarizer::MAX_FIT_SAMPLES + 5],
        ] {
            let threshold = JenksBinarizer::fit(&values).threshold();
            assert_eq!(threshold.to_bits(), values[0].to_bits(), "{values:?}");
            assert_eq!(threshold.to_bits(), reference_threshold(&values).to_bits());
        }
    }

    #[test]
    fn fit_matches_the_sorting_reference_past_the_sample_cap() {
        let mut rng = StdRng::seed_from_u64(0x00b1_a5e5);
        for _ in 0..3 {
            let n = JenksBinarizer::MAX_FIT_SAMPLES + rng.gen_range(1..3000usize);
            let values: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(0..40i64) as f64 * 0.5,
                    1 => 300.0 + rng.gen_range(-20.0..20.0),
                    _ => -0.0,
                })
                .collect();
            assert_eq!(
                JenksBinarizer::fit(&values).threshold().to_bits(),
                reference_threshold(&values).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn fit_rejects_non_finite_input_even_when_constant() {
        JenksBinarizer::fit(&[f64::INFINITY, f64::INFINITY]);
    }

    #[test]
    fn two_obvious_clusters() {
        let values = [0.5, 1.0, 1.5, 100.0, 101.0, 99.0];
        let b = jenks_breaks(&values, 2);
        assert_eq!(b.len(), 1);
        assert!(b[0] >= 1.5 && b[0] < 99.0, "break = {}", b[0]);
    }

    #[test]
    fn three_clusters() {
        let values = [1.0, 2.0, 1.5, 50.0, 51.0, 49.5, 100.0, 101.0];
        let b = jenks_breaks(&values, 3);
        assert_eq!(b.len(), 2);
        assert!(b[0] >= 2.0 && b[0] < 49.5);
        assert!(b[1] >= 51.0 && b[1] < 100.0);
    }

    #[test]
    fn single_class_has_no_breaks() {
        assert!(jenks_breaks(&[1.0, 2.0, 3.0], 1).is_empty());
    }

    #[test]
    fn breaks_minimise_within_class_variance() {
        // The optimal 2-class split of {0,1,2, 10,11,12} separates the
        // halves; any other split has strictly higher SSE.
        let values = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0];
        let b = jenks_breaks(&values, 2);
        assert!(b[0] >= 2.0 && b[0] < 10.0);
    }

    #[test]
    fn binarizer_classifies_brightness() {
        // Night readings near 5 lux, day readings near 300 lux.
        let mut readings = Vec::new();
        for i in 0..50 {
            readings.push(4.0 + (i % 5) as f64 * 0.5);
            readings.push(290.0 + (i % 7) as f64 * 3.0);
        }
        let bin = JenksBinarizer::fit(&readings);
        assert!(!bin.is_high(6.0));
        assert!(bin.is_high(280.0));
        assert!(bin.threshold() > 6.0 && bin.threshold() < 290.0);
    }

    #[test]
    fn binarizer_handles_constant_input() {
        let bin = JenksBinarizer::fit(&[42.0, 42.0, 42.0]);
        assert!(!bin.is_high(42.0));
        assert!(bin.is_high(43.0));
    }

    #[test]
    fn binarizer_subsamples_large_inputs() {
        let readings: Vec<f64> = (0..10_000)
            .map(|i| {
                if i % 2 == 0 {
                    1.0 + (i % 10) as f64 * 0.01
                } else {
                    200.0 + (i % 10) as f64
                }
            })
            .collect();
        let bin = JenksBinarizer::fit(&readings);
        assert!(!bin.is_high(2.0));
        assert!(bin.is_high(199.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        jenks_breaks(&[1.0, f64::NAN], 2);
    }
}
