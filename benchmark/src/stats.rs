//! Order statistics over wall-clock samples.
//!
//! Every quantile is **nearest-rank**: the `p`-th percentile is the value
//! at 1-based rank `ceil(p·n/100)` of the sorted samples, computed in
//! integers. It always returns a measured sample, never an interpolation,
//! so a reported tail is a run that really happened and exactly
//! `n − ceil(p·n/100)` samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`1 ≤ p ≤ 100`) of `samples`, or
/// `None` when there are none.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[(p as usize * sorted.len()).div_ceil(100) - 1])
}

/// The nearest-rank median (the lower middle sample for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// The nearest-rank first and third quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    Some((percentile(samples, 25)?, percentile(samples, 75)?))
}

/// The highest whole percentile, at most 90, that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond its nearest-rank sample; `None`
/// when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=90u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= TAIL_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_median_is_the_middle_sample() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn even_count_median_is_the_lower_middle_sample() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ties_return_the_tied_value() {
        let xs = [2.0, 2.0, 2.0, 9.0, 1.0];
        assert_eq!(median(&xs), Some(2.0));
        assert_eq!(quartiles(&xs), Some((2.0, 2.0)));
        assert_eq!(percentile(&[3.0; 10], 90), Some(3.0));
    }

    #[test]
    fn quartiles_pick_ranks_ceil_quarter_and_three_quarters() {
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.0, 6.0)));
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((3.0, 7.0)));
    }

    #[test]
    fn p90_of_100_samples_leaves_exactly_10_beyond_it() {
        assert_eq!(tail_percentile(100), Some(90));
        // Shuffled 1..=100, so sorting is exercised.
        let xs: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
        let p = percentile(&xs, 90).expect("non-empty");
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > p).count(), 10);
    }

    #[test]
    fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(48), Some(79));
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(7_000), Some(90));
        for n in 11..400 {
            let p = tail_percentile(n).expect("n > 10");
            let xs: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let beyond = |p: u32| {
                let at = percentile(&xs, p).expect("non-empty");
                xs.iter().filter(|&&x| x > at).count()
            };
            assert!(beyond(p) >= TAIL_BEYOND, "n {n}: p{p}");
            assert!(
                p == 90 || beyond(p + 1) < TAIL_BEYOND,
                "n {n}: p{p} not highest"
            );
        }
    }

    #[test]
    fn extreme_percentiles_are_the_sample_range() {
        let xs = [4.0, 8.0, 6.0];
        assert_eq!(percentile(&xs, 100), Some(8.0));
        assert_eq!(percentile(&xs, 1), Some(4.0));
    }
}
