//! In-memory skyline algorithms over [`KeyMatrix`] rows.
//!
//! These are the algorithmic cores, free of paging: the external operators
//! in [`crate::external`] wrap the same logic with windows measured in
//! pages and temp heap files. Keeping pure versions (a) gives library
//! users a zero-setup API and (b) lets property tests validate the
//! algorithms against the naive oracle cheaply.
//!
//! All functions assume **oriented** keys (larger = better in every
//! dimension; apply [`crate::dominance::SkylineSpec::orient_row`] or the
//! builder API first). Ties: tuples with *equal* keys do not dominate each
//! other, so duplicates are all reported as skyline — the relational
//! semantics of the paper's Figure 5 `EXCEPT` query.

use crate::dominance::dominates;
use crate::dominance_block::{BlockVerdict, BlockWindow, ReplaceWindow};
use crate::keys::KeyMatrix;
use crate::score::{nested_desc, EntropyScore, MonotoneScore};

/// Result of an in-memory run: the skyline row indices plus the number of
/// dominance comparisons spent finding them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgoResult {
    /// Indices of skyline rows. Order is algorithm-specific; sort before
    /// comparing across algorithms.
    pub indices: Vec<usize>,
    /// Dominance comparisons performed.
    pub comparisons: u64,
}

impl AlgoResult {
    /// Indices sorted ascending (canonical form for equality tests).
    pub fn sorted(mut self) -> Self {
        self.indices.sort_unstable();
        self
    }
}

/// Naive O(n²) nested-loop skyline — the paper's Figure 5 `EXCEPT`
/// self-join, used as the correctness oracle. Output in input order.
pub fn naive(keys: &KeyMatrix) -> AlgoResult {
    let n = keys.n();
    let mut indices = Vec::new();
    let mut comparisons = 0u64;
    for i in 0..n {
        let mut dominated = false;
        for j in 0..n {
            if i == j {
                continue;
            }
            comparisons += 1;
            if dominates(keys.row(j), keys.row(i)) {
                dominated = true;
                break;
            }
        }
        if !dominated {
            indices.push(i);
        }
    }
    AlgoResult {
        indices,
        comparisons,
    }
}

/// Presort order for [`sfs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSortOrder {
    /// Nested lexicographic descending (paper Fig. 6).
    Nested,
    /// Entropy score descending with nested tie-break (paper §4.3).
    Entropy,
}

/// Sort row indices into a monotone (topological-wrt-dominance) order.
///
/// # Panics
/// When an entropy score is NaN, which finite keys never produce.
pub fn presort_indices(keys: &KeyMatrix, order: MemSortOrder) -> Vec<usize> {
    let n = keys.n();
    let mut idx: Vec<usize> = (0..n).collect();
    match order {
        MemSortOrder::Nested => {
            idx.sort_unstable_by(|&a, &b| nested_desc(keys.row(a), keys.row(b)));
        }
        MemSortOrder::Entropy => {
            let e = EntropyScore::from_keys(keys.data(), keys.d());
            let scores: Vec<f64> = (0..n).map(|i| e.score(keys.row(i))).collect();
            idx.sort_unstable_by(|&a, &b| {
                scores[b]
                    .partial_cmp(&scores[a])
                    .expect("scores are never NaN")
                    .then_with(|| nested_desc(keys.row(a), keys.row(b)))
            });
        }
    }
    idx
}

/// In-memory Sort-Filter-Skyline: presort into a monotone order, then a
/// single filter pass against the growing skyline window. Emission order
/// is the sort order (pipelined in the external version).
pub fn sfs(keys: &KeyMatrix, order: MemSortOrder) -> AlgoResult {
    let idx = presort_indices(keys, order);
    sfs_presorted(keys, &idx)
}

/// The filter phase alone, over rows already arranged in a monotone order.
/// (Exposed so tests can feed arbitrary topological orders — Theorem 6
/// says any monotone-score order works.)
pub fn sfs_presorted(keys: &KeyMatrix, order: &[usize]) -> AlgoResult {
    #[cfg(feature = "check-invariants")]
    crate::audit::assert_topological(keys, order, "algo::sfs_presorted/input");
    // Unbounded columnar window (the batched dominance kernel); the
    // survivor indices mirror its entries position-for-position.
    let mut window = BlockWindow::new(keys.d().max(1), usize::MAX);
    let mut survivors: Vec<usize> = Vec::new();
    let mut comparisons = 0u64;
    for &i in order {
        let (verdict, cost) = window.probe(keys.row(i));
        comparisons += cost.comparisons;
        if !matches!(verdict, BlockVerdict::Dominated) {
            // Equal keys join the window too (they are all skyline and the
            // scalar reference keeps them), preserving window contents.
            window.insert(keys.row(i));
            survivors.push(i);
        }
    }
    #[cfg(feature = "check-invariants")]
    crate::audit::assert_pairwise_incomparable(keys, &survivors, "algo::sfs_presorted/emitted");
    AlgoResult {
        indices: survivors,
        comparisons,
    }
}

/// In-memory block-nested-loops (Börzsönyi et al.) with an unbounded
/// window: one pass, window replacement on domination. Input order is the
/// scan order — BNL's performance (unlike its result) depends on it.
pub fn bnl(keys: &KeyMatrix) -> AlgoResult {
    let n = keys.n();
    let mut window = ReplaceWindow::new(keys.d().max(1));
    let mut indices: Vec<usize> = Vec::new();
    let mut removed: Vec<usize> = Vec::new();
    let mut comparisons = 0u64;
    for i in 0..n {
        let (dominated, cost) = window.probe_replace(keys.row(i), &mut removed);
        comparisons += cost.comparisons;
        // `remove_at` has swap-remove semantics; mirroring in the reported
        // order keeps the index vector aligned with the columnar store.
        for &p in &removed {
            indices.swap_remove(p);
        }
        if !dominated {
            window.push(keys.row(i));
            indices.push(i);
        }
    }
    AlgoResult {
        indices,
        comparisons,
    }
}

/// Divide-and-conquer skyline (the other algorithm of Börzsönyi et al.):
/// split on the median of the first dimension, solve halves recursively,
/// then drop the low half's tuples dominated by the high half's skyline.
/// Uses the basic (pairwise) merge; the paper only retains BNL as the
/// relational-setting competitor, and D&C here serves as a second oracle
/// and an in-memory baseline.
pub fn divide_and_conquer(keys: &KeyMatrix) -> AlgoResult {
    let mut comparisons = 0u64;
    let all: Vec<usize> = (0..keys.n()).collect();
    let indices = dnc_rec(keys, all, &mut comparisons);
    AlgoResult {
        indices,
        comparisons,
    }
}

const DNC_BASE: usize = 32;

fn dnc_rec(keys: &KeyMatrix, mut rows: Vec<usize>, comparisons: &mut u64) -> Vec<usize> {
    if rows.len() <= DNC_BASE {
        return naive_over(keys, &rows, comparisons);
    }
    // median split on dimension 0 (oriented: larger is better)
    let mid = rows.len() / 2;
    rows.select_nth_unstable_by(mid, |&a, &b| {
        keys.row(b)[0]
            .partial_cmp(&keys.row(a)[0])
            .expect("keys are never NaN")
    });
    let pivot = keys.row(rows[mid])[0];
    let (high, low): (Vec<usize>, Vec<usize>) =
        rows.into_iter().partition(|&i| keys.row(i)[0] > pivot);
    if high.is_empty() || low.is_empty() {
        // Degenerate split: every row ties the median on dim 0, so no
        // split on this dimension can make progress, and an arbitrary
        // split would be unsound (tied rows can dominate one another
        // through the other dimensions). Solve directly.
        let rows = if high.is_empty() { low } else { high };
        return naive_over(keys, &rows, comparisons);
    }
    let sky_high = dnc_rec(keys, high, comparisons);
    let sky_low = dnc_rec(keys, low, comparisons);
    // keep low-side skyline tuples not dominated by the high-side skyline
    let mut out = sky_high.clone();
    'low: for &b in &sky_low {
        for &a in &sky_high {
            *comparisons += 1;
            if dominates(keys.row(a), keys.row(b)) {
                continue 'low;
            }
        }
        out.push(b);
    }
    out
}

fn naive_over(keys: &KeyMatrix, rows: &[usize], comparisons: &mut u64) -> Vec<usize> {
    let mut out = Vec::new();
    'outer: for &i in rows {
        for &j in rows {
            if i == j {
                continue;
            }
            *comparisons += 1;
            if dominates(keys.row(j), keys.row(i)) {
                continue 'outer;
            }
        }
        out.push(i);
    }
    out
}

/// In-memory skyline strata (paper §4.4): stratum 0 is the skyline,
/// stratum `i` is the skyline after removing strata `0..i`. Runs one
/// presorted pass with `k` windows; tuples dominated in every window fall
/// off the end (they belong to strata ≥ `k`).
///
/// # Panics
/// When `k` is zero.
pub fn strata(keys: &KeyMatrix, k: usize, order: MemSortOrder) -> (Vec<Vec<usize>>, u64) {
    assert!(k > 0, "need at least one stratum");
    let idx = presort_indices(keys, order);
    let d = keys.d().max(1);
    let mut windows: Vec<(BlockWindow, Vec<usize>)> = (0..k)
        .map(|_| (BlockWindow::new(d, usize::MAX), Vec::new()))
        .collect();
    let mut comparisons = 0u64;
    'input: for &i in &idx {
        for (window, members) in windows.iter_mut() {
            let (verdict, cost) = window.probe(keys.row(i));
            comparisons += cost.comparisons;
            if !matches!(verdict, BlockVerdict::Dominated) {
                window.insert(keys.row(i));
                members.push(i);
                continue 'input;
            }
        }
        // dominated in all k windows: stratum ≥ k, dropped
    }
    (windows.into_iter().map(|(_, m)| m).collect(), comparisons)
}

/// Label every row with its stratum number (0-based). Needs as many
/// windows as there are strata; `None` never occurs in the result.
pub fn stratum_labels(keys: &KeyMatrix, order: MemSortOrder) -> Vec<usize> {
    let idx = presort_indices(keys, order);
    let d = keys.d().max(1);
    let mut windows: Vec<BlockWindow> = Vec::new();
    let mut labels = vec![0usize; keys.n()];
    'input: for &i in &idx {
        for (s, window) in windows.iter_mut().enumerate() {
            if !matches!(window.probe(keys.row(i)).0, BlockVerdict::Dominated) {
                window.insert(keys.row(i));
                labels[i] = s;
                continue 'input;
            }
        }
        labels[i] = windows.len();
        let mut fresh = BlockWindow::new(d, usize::MAX);
        fresh.insert(keys.row(i));
        windows.push(fresh);
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn km(rows: &[[f64; 2]]) -> KeyMatrix {
        KeyMatrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    fn set(r: AlgoResult) -> Vec<usize> {
        r.sorted().indices
    }

    #[test]
    fn theorem4_points_all_skyline() {
        let m = km(&[[4.0, 1.0], [2.0, 2.0], [1.0, 4.0]]);
        assert_eq!(set(naive(&m)), vec![0, 1, 2]);
        assert_eq!(set(sfs(&m, MemSortOrder::Entropy)), vec![0, 1, 2]);
        assert_eq!(set(bnl(&m)), vec![0, 1, 2]);
        assert_eq!(set(divide_and_conquer(&m)), vec![0, 1, 2]);
    }

    #[test]
    fn dominated_rows_drop() {
        let m = km(&[[1.0, 1.0], [2.0, 2.0], [0.5, 3.0], [0.4, 2.9]]);
        // (1,1) ≺ (2,2); (0.4,2.9) ≺ (0.5,3)
        let expect = vec![1, 2];
        assert_eq!(set(naive(&m)), expect);
        assert_eq!(set(sfs(&m, MemSortOrder::Nested)), expect);
        assert_eq!(set(sfs(&m, MemSortOrder::Entropy)), expect);
        assert_eq!(set(bnl(&m)), expect);
        assert_eq!(set(divide_and_conquer(&m)), expect);
    }

    #[test]
    fn duplicates_all_survive() {
        let m = km(&[[1.0, 1.0], [1.0, 1.0], [0.0, 0.5]]);
        let expect = vec![0, 1];
        assert_eq!(set(naive(&m)), expect);
        assert_eq!(set(sfs(&m, MemSortOrder::Entropy)), expect);
        assert_eq!(set(bnl(&m)), expect);
        assert_eq!(set(divide_and_conquer(&m)), expect);
    }

    #[test]
    fn single_row_and_empty() {
        let empty = KeyMatrix::new(2, vec![]);
        assert!(set(naive(&empty)).is_empty());
        assert!(set(sfs(&empty, MemSortOrder::Entropy)).is_empty());
        assert!(set(bnl(&empty)).is_empty());
        assert!(set(divide_and_conquer(&empty)).is_empty());
        let one = km(&[[5.0, 5.0]]);
        assert_eq!(set(naive(&one)), vec![0]);
        assert_eq!(set(sfs(&one, MemSortOrder::Nested)), vec![0]);
    }

    #[test]
    fn one_dimension_max_only() {
        let m = KeyMatrix::new(1, vec![3.0, 9.0, 9.0, 1.0]);
        let expect = vec![1, 2];
        assert_eq!(set(naive(&m)), expect);
        assert_eq!(set(sfs(&m, MemSortOrder::Entropy)), expect);
        assert_eq!(set(bnl(&m)), expect);
        assert_eq!(set(divide_and_conquer(&m)), expect);
    }

    #[test]
    fn sfs_emits_in_sorted_order() {
        let m = km(&[[1.0, 4.0], [4.0, 1.0], [3.0, 3.0]]);
        let r = sfs(&m, MemSortOrder::Entropy);
        // entropy of (3,3) is the largest (most balanced)
        assert_eq!(r.indices[0], 2);
    }

    #[test]
    fn anticorrelated_line_everything_skyline() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![f64::from(i), f64::from(19 - i)])
            .collect();
        let m = KeyMatrix::from_rows(&rows);
        let all: Vec<usize> = (0..20).collect();
        assert_eq!(set(naive(&m)), all);
        assert_eq!(set(sfs(&m, MemSortOrder::Entropy)), all);
        assert_eq!(set(bnl(&m)), all);
        assert_eq!(set(divide_and_conquer(&m)), all);
    }

    #[test]
    fn correlated_chain_single_winner() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i), f64::from(i)]).collect();
        let m = KeyMatrix::from_rows(&rows);
        assert_eq!(set(naive(&m)), vec![19]);
        assert_eq!(set(sfs(&m, MemSortOrder::Nested)), vec![19]);
        assert_eq!(set(bnl(&m)), vec![19]);
        assert_eq!(set(divide_and_conquer(&m)), vec![19]);
    }

    #[test]
    fn sfs_presorted_accepts_any_topological_order() {
        // Theorem 6: any monotone-score order works. Use a linear score.
        let m = km(&[[4.0, 1.0], [2.0, 2.0], [1.0, 4.0], [1.0, 1.0]]);
        let s = crate::score::LinearScore::new(vec![1.0, 2.0]);
        let mut order: Vec<usize> = (0..m.n()).collect();
        order.sort_by(|&a, &b| {
            s.score(m.row(b))
                .partial_cmp(&s.score(m.row(a)))
                .unwrap()
                .then_with(|| nested_desc(m.row(a), m.row(b)))
        });
        let r = sfs_presorted(&m, &order);
        assert_eq!(set(r), vec![0, 1, 2]);
    }

    #[test]
    fn strata_partition_matches_iterated_definition() {
        let m = km(&[[3.0, 3.0], [2.0, 2.0], [1.0, 1.0], [0.0, 4.0], [0.0, 3.5]]);
        let (strata_out, _) = strata(&m, 3, MemSortOrder::Entropy);
        let mut s0 = strata_out[0].clone();
        s0.sort_unstable();
        assert_eq!(s0, vec![0, 3]);
        let mut s1 = strata_out[1].clone();
        s1.sort_unstable();
        assert_eq!(s1, vec![1, 4]);
        assert_eq!(strata_out[2], vec![2]);
    }

    #[test]
    fn stratum_labels_consistent_with_strata() {
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![f64::from(i % 7), f64::from((i * 3) % 11)])
            .collect();
        let m = KeyMatrix::from_rows(&rows);
        let labels = stratum_labels(&m, MemSortOrder::Entropy);
        let max_label = *labels.iter().max().unwrap();
        let (strata_out, _) = strata(&m, max_label + 1, MemSortOrder::Entropy);
        for (s, stratum_rows) in strata_out.iter().enumerate() {
            for &i in stratum_rows {
                assert_eq!(labels[i], s, "row {i}");
            }
        }
    }

    #[test]
    fn bnl_counts_fewer_comparisons_than_naive_on_correlated() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![f64::from(i), f64::from(i)]).collect();
        let m = KeyMatrix::from_rows(&rows);
        let n = naive(&m);
        let b = bnl(&m);
        assert!(b.comparisons < n.comparisons);
    }
}
