//! Order statistics over small samples of stopwatch readings.

/// Ascending copy of `values` (stopwatch readings are never NaN).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// reading with at least `pct` percent of the sample at or below it.
/// `0.0` for an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of an unsorted sample.
#[must_use]
pub fn p50(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The three quartile cut points of an unsorted sample, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (exclusive method),
/// so `report` sees the spread the acceptance rule is stated in. `None`
/// below two readings.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let mut cuts = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        cuts[slot] = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(p50(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(p50(&[4.0, 3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
