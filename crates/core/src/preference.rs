//! Answering preference queries *from the skyline* (paper §3).
//!
//! "Since the best tuples with respect to any (monotone) scoring are in
//! the skyline, one only needs effectively to query the skyline with
//! one's preference queries, and not the original table itself. The
//! skyline is (usually) significantly smaller … so this would be much
//! more efficient if one had many preference queries to try over the
//! same dataset."
//!
//! [`PreferenceIndex`] is that precomputation: the skyline (and, for
//! top-k queries, the k-skyband) computed once, then any number of
//! monotone preference queries answered against it. Correctness comes
//! straight from Lemma 2 / Theorem 5 (and their top-k extension via the
//! k-skyband).

use crate::keys::KeyMatrix;
use crate::lowdim::skyline_auto;
use crate::score::MonotoneScore;
use crate::skyband::skyband;

/// The skyline (plus optional k-skyband) of a relation, prepared for
/// answering many monotone preference queries cheaply.
pub struct PreferenceIndex {
    /// Row indices of the skyline, ascending.
    skyline: Vec<usize>,
    /// Rows of the `k_max`-skyband, ascending (superset of `skyline`).
    band: Vec<usize>,
    /// Largest `k` answerable from the band.
    k_max: u64,
    /// The (oriented) keys of all rows, kept for scoring band members.
    keys: KeyMatrix,
}

impl PreferenceIndex {
    /// Precompute from oriented keys, supporting top-`k_max` queries.
    ///
    /// # Panics
    /// Panics if `k_max == 0`.
    pub fn build(keys: KeyMatrix, k_max: u64) -> Self {
        assert!(k_max > 0);
        let mut skyline = skyline_auto(&keys).indices;
        skyline.sort_unstable();
        let band = if k_max == 1 {
            skyline.clone()
        } else {
            skyband(&keys, k_max)
        };
        PreferenceIndex {
            skyline,
            band,
            k_max,
            keys,
        }
    }

    /// The skyline row indices (ascending).
    pub fn skyline(&self) -> &[usize] {
        &self.skyline
    }

    /// Rows retained for top-k answering.
    pub fn band_len(&self) -> usize {
        self.band.len()
    }

    /// The best row under a monotone scoring — found by scanning only the
    /// skyline (Lemma 2 guarantees the answer is there). Ties broken by
    /// lower row index. `None` on an empty relation.
    ///
    /// # Panics
    /// When `score` returns NaN.
    pub fn best<S: MonotoneScore + ?Sized>(&self, score: &S) -> Option<usize> {
        self.skyline.iter().copied().max_by(|&a, &b| {
            score
                .score(self.keys.row(a))
                .partial_cmp(&score.score(self.keys.row(b)))
                .expect("scores are never NaN")
                .then(b.cmp(&a)) // prefer the lower index on ties
        })
    }

    /// The top-`k` rows under a monotone scoring, best first — scanning
    /// only the k-skyband. Ties broken by lower row index.
    ///
    /// # Panics
    /// Panics if `k` exceeds the `k_max` the index was built for (the
    /// band would not be guaranteed to contain the answer).
    pub fn top_k<S: MonotoneScore + ?Sized>(&self, score: &S, k: usize) -> Vec<usize> {
        assert!(
            k as u64 <= self.k_max,
            "index built for top-{} but top-{k} requested",
            self.k_max
        );
        let mut band: Vec<usize> = self.band.clone();
        band.sort_by(|&a, &b| {
            score
                .score(self.keys.row(b))
                .partial_cmp(&score.score(self.keys.row(a)))
                .expect("scores are never NaN")
                .then(a.cmp(&b))
        });
        band.truncate(k);
        band
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{EntropyScore, LinearScore};
    use skyline_relation::gen::WorkloadSpec;

    fn uniform(n: usize, d: usize, seed: u64) -> KeyMatrix {
        KeyMatrix::new(d, WorkloadSpec::paper(n, seed).generate_keys(d))
    }

    fn brute_top_k<S: MonotoneScore>(keys: &KeyMatrix, score: &S, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..keys.n()).collect();
        all.sort_by(|&a, &b| {
            score
                .score(keys.row(b))
                .partial_cmp(&score.score(keys.row(a)))
                .unwrap()
                .then(a.cmp(&b))
        });
        all.truncate(k);
        all
    }

    #[test]
    fn best_matches_full_table_scan_for_many_weightings() {
        let km = uniform(3_000, 4, 5);
        let idx = PreferenceIndex::build(km.clone(), 1);
        assert!(idx.skyline().len() < km.n() / 10, "skyline is small");
        for w in [
            vec![1.0, 1.0, 1.0, 1.0],
            vec![10.0, 1.0, 1.0, 0.1],
            vec![0.2, 5.0, 0.7, 2.0],
        ] {
            let s = LinearScore::new(w);
            assert_eq!(
                idx.best(&s),
                brute_top_k(&km, &s, 1).first().copied(),
                "skyline answer must equal the table answer"
            );
        }
        // non-linear monotone scorings too
        let e = EntropyScore::from_keys(km.data(), 4);
        assert_eq!(idx.best(&e), brute_top_k(&km, &e, 1).first().copied());
    }

    #[test]
    fn top_k_matches_full_table_scan() {
        let km = uniform(2_000, 3, 9);
        let idx = PreferenceIndex::build(km.clone(), 10);
        assert!(idx.band_len() >= idx.skyline().len());
        for w in [vec![1.0, 2.0, 3.0], vec![5.0, 0.5, 1.0]] {
            let s = LinearScore::new(w);
            for k in [1usize, 3, 10] {
                assert_eq!(
                    idx.top_k(&s, k),
                    brute_top_k(&km, &s, k),
                    "top-{k} from the band must equal top-{k} from the table"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "top-3 requested")]
    fn k_beyond_band_rejected() {
        let km = uniform(100, 2, 1);
        let idx = PreferenceIndex::build(km, 2);
        let s = LinearScore::new(vec![1.0, 1.0]);
        let _ = idx.top_k(&s, 3);
    }

    #[test]
    fn empty_relation() {
        let idx = PreferenceIndex::build(KeyMatrix::new(2, vec![]), 3);
        let s = LinearScore::new(vec![1.0, 1.0]);
        assert_eq!(idx.best(&s), None);
        assert!(idx.top_k(&s, 2).is_empty());
    }

    #[test]
    fn duplicates_handled() {
        let km = KeyMatrix::from_rows(&[vec![5.0, 5.0], vec![5.0, 5.0], vec![1.0, 1.0]]);
        let idx = PreferenceIndex::build(km, 2);
        let s = LinearScore::new(vec![1.0, 1.0]);
        assert_eq!(idx.best(&s), Some(0), "lower index wins ties");
        assert_eq!(idx.top_k(&s, 2), vec![0, 1]);
    }
}
