//! Column statistics and normalization.
//!
//! The entropy scoring function of the paper (§4.3) needs attribute values
//! normalized into the open unit interval `(0, 1)`. "Relational systems
//! usually keep statistics on tables, so it should be possible to do this
//! without accessing the data" — here the statistics are min/max per
//! column, computed once per relation (or supplied externally).

use crate::record::RecordLayout;

/// Min/max/count summary of one numeric column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Number of observed (non-null) values.
    pub count: u64,
}

impl ColumnStats {
    /// Stats of an empty column.
    pub fn empty() -> Self {
        ColumnStats {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Stats of `values` — what observing each in turn gives (min and
    /// max do not depend on the order), folded in eight independent
    /// lanes: one running minimum is a chain of dependent operations,
    /// 3 ns a value; eight are not.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let (mut lo, mut hi) = ([f64::INFINITY; 8], [f64::NEG_INFINITY; 8]);
        let mut chunks = values.chunks_exact(8);
        for chunk in &mut chunks {
            for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
        }
        let mut all = ColumnStats::empty();
        for &v in chunks.remainder() {
            all.observe(v);
        }
        for (lo, hi) in lo.iter().zip(&hi) {
            all.min = all.min.min(*lo);
            all.max = all.max.max(*hi);
        }
        all.count = values.len() as u64;
        all
    }

    /// Fold one value in.
    #[inline]
    pub fn observe(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.count += 1;
    }

    /// Merge another column's stats in (for partitioned scans).
    pub fn merge(&mut self, other: &ColumnStats) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// Stats of the same column with every value negated — a `MIN`
    /// criterion in the all-max orientation. Exact: negation reverses the
    /// order and rounds nothing, so this equals observing each `-v`.
    #[must_use]
    pub fn negated(&self) -> Self {
        ColumnStats {
            min: -self.max,
            max: -self.min,
            count: self.count,
        }
    }

    /// Normalize a value into the **open** interval `(0, 1)`.
    ///
    /// For a domain of width `w = max − min` we map
    /// `v ↦ (v − min + ½) / (w + 1)`, which stays strictly inside `(0,1)`
    /// for any `v ∈ [min, max]` — exactly what the paper's entropy function
    /// `Σ ln(v̄ᵢ + 1)` assumes. A degenerate column maps to ½: a constant
    /// one, an empty one, and one whose width overflows f64 (`∞ / ∞` would
    /// otherwise hand the presort a NaN score; a constant keeps the score
    /// monotone, which is all the presort needs).
    #[inline]
    pub fn normalize(&self, v: f64) -> f64 {
        let w = self.max - self.min;
        if !(w > 0.0 && w.is_finite()) {
            return 0.5;
        }
        (v - self.min + 0.5) / (w + 1.0)
    }
}

impl Default for ColumnStats {
    fn default() -> Self {
        ColumnStats::empty()
    }
}

/// Per-dimension statistics for a record relation.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute stats over the first `d` attributes of encoded records.
    ///
    /// # Panics
    /// When `d` exceeds the layout's dimensions.
    pub fn from_records<'a, I>(layout: RecordLayout, d: usize, records: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        assert!(d <= layout.dims);
        let mut columns = vec![ColumnStats::empty(); d];
        for r in records {
            for (i, c) in columns.iter_mut().enumerate() {
                c.observe(f64::from(layout.attr(r, i)));
            }
        }
        TableStats { columns }
    }

    /// Compute stats over a flat row-major `n × d` key matrix.
    ///
    /// # Panics
    /// When `d` is zero or does not divide `keys.len()`.
    pub fn from_keys(keys: &[f64], d: usize) -> Self {
        assert!(d > 0 && keys.len().is_multiple_of(d));
        let mut columns = vec![ColumnStats::empty(); d];
        for row in keys.chunks_exact(d) {
            for (c, &v) in columns.iter_mut().zip(row) {
                c.observe(v);
            }
        }
        TableStats { columns }
    }

    /// Build directly from known per-column stats (e.g. catalog metadata).
    pub fn from_columns(columns: Vec<ColumnStats>) -> Self {
        TableStats { columns }
    }

    /// Per-column stats.
    pub fn columns(&self) -> &[ColumnStats] {
        &self.columns
    }

    /// Stats for dimension `i`.
    pub fn column(&self, i: usize) -> &ColumnStats {
        &self.columns[i]
    }

    /// Number of dimensions covered.
    pub fn dims(&self) -> usize {
        self.columns.len()
    }

    /// Normalize one key row in place.
    pub fn normalize_row(&self, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.columns.len());
        for (v, c) in row.iter_mut().zip(&self.columns) {
            *v = c.normalize(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_and_normalize_open_interval() {
        let mut c = ColumnStats::empty();
        for v in [0.0, 10.0, 5.0] {
            c.observe(v);
        }
        assert_eq!(c.count, 3);
        let lo = c.normalize(0.0);
        let hi = c.normalize(10.0);
        assert!(lo > 0.0 && lo < 1.0);
        assert!(hi > 0.0 && hi < 1.0);
        assert!(lo < hi);
    }

    #[test]
    fn degenerate_column_maps_to_half() {
        let mut c = ColumnStats::empty();
        c.observe(4.0);
        c.observe(4.0);
        assert_eq!(c.normalize(4.0), 0.5);
        assert_eq!(ColumnStats::empty().normalize(1.0), 0.5);
        // a width beyond f64: ½, not ∞ / ∞
        let mut wide = ColumnStats::empty();
        wide.observe(-1.5e308);
        wide.observe(1.5e308);
        assert_eq!(wide.normalize(1.5e308), 0.5);
    }

    #[test]
    fn of_equals_observing_in_order() {
        let pool = [
            3.5,
            -2.0,
            0.0,
            1e300,
            -7.25,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            42.0,
        ];
        for len in 0..40 {
            for start in 0..pool.len() {
                let values: Vec<f64> = (0..len)
                    .map(|i| pool[(start + i * 7) % pool.len()])
                    .collect();
                let mut one_by_one = ColumnStats::empty();
                for &v in &values {
                    one_by_one.observe(v);
                }
                assert_eq!(ColumnStats::of(&values), one_by_one, "{values:?}");
            }
        }
        // a lane that meets nothing but NaN contributes nothing
        let mut holed = vec![1.0; 24];
        holed.iter_mut().step_by(8).for_each(|v| *v = f64::NAN);
        let s = ColumnStats::of(&holed);
        assert_eq!((s.min, s.max, s.count), (1.0, 1.0, 24));
    }

    #[test]
    fn negated_equals_observing_the_negated_values() {
        let values = [3.5, -2.0, 0.0, 1e300, -7.25];
        let (mut plain, mut flipped) = (ColumnStats::empty(), ColumnStats::empty());
        for v in values {
            plain.observe(v);
            flipped.observe(-v);
        }
        assert_eq!(plain.negated(), flipped);
        assert_eq!(ColumnStats::empty().negated(), ColumnStats::empty());
    }

    #[test]
    fn merge_combines() {
        let mut a = ColumnStats::empty();
        a.observe(1.0);
        let mut b = ColumnStats::empty();
        b.observe(9.0);
        a.merge(&b);
        assert_eq!((a.min, a.max, a.count), (1.0, 9.0, 2));
    }

    #[test]
    fn from_records_and_keys_agree() {
        let layout = RecordLayout::new(3, 0);
        let recs: Vec<Vec<u8>> = vec![
            layout.encode(&[1, -5, 7], b""),
            layout.encode(&[3, 0, -2], b""),
        ];
        let s1 = TableStats::from_records(layout, 3, recs.iter().map(Vec::as_slice));
        let keys = vec![1.0, -5.0, 7.0, 3.0, 0.0, -2.0];
        let s2 = TableStats::from_keys(&keys, 3);
        assert_eq!(s1, s2);
        assert_eq!(s1.column(1).min, -5.0);
        assert_eq!(s1.column(2).max, 7.0);
    }

    #[test]
    fn normalize_row_applies_per_column() {
        let s = TableStats::from_keys(&[0.0, 100.0, 10.0, 200.0], 2);
        let mut row = vec![10.0, 100.0];
        s.normalize_row(&mut row);
        assert!(row[0] > 0.9 && row[0] < 1.0); // 10 is max of col 0
        assert!(row[1] > 0.0 && row[1] < 0.1); // 100 is min of col 1
    }

    #[test]
    fn normalization_preserves_order() {
        let s = TableStats::from_keys(&[-1e9, 0.0, 1e9, 0.0], 2);
        let c = s.column(0);
        assert!(c.normalize(-1e9) < c.normalize(0.0));
        assert!(c.normalize(0.0) < c.normalize(1e9));
    }
}
