//! Special-case skyline algorithms for two and three dimensions.
//!
//! The paper's §6: "Special cases of skyline are known to have good
//! solutions, as for two- and three-dimensional skylines. Perhaps these
//! special cases could be exploited to benefit general skyline
//! computation." These are those solutions (Kung/Luccio/Preparata 1975):
//!
//! * 2-D: sort descending, one scan keeping the running maximum of the
//!   second coordinate — `O(n log n)` total, `O(1)` extra space.
//! * 3-D: sort descending on the first coordinate, maintain a *staircase*
//!   of maximal `(y, z)` pairs — `O(n log n)` expected with the staircase
//!   kept sorted.
//!
//! [`skyline_auto`] dispatches: 1-D max scan, the 2-D/3-D specials, and
//! entropy-presorted SFS for higher dimensions.

use crate::algo::{sfs, AlgoResult, MemSortOrder};
use crate::keys::KeyMatrix;

/// 1-D skyline: every row equal to the maximum.
///
/// # Panics
/// When `keys` is not one column wide.
pub fn skyline_1d(keys: &KeyMatrix) -> AlgoResult {
    assert_eq!(keys.d(), 1, "skyline_1d needs a 1-column matrix");
    let mut best = f64::NEG_INFINITY;
    for i in 0..keys.n() {
        best = best.max(keys.row(i)[0]);
    }
    let indices = (0..keys.n()).filter(|&i| keys.row(i)[0] == best).collect();
    AlgoResult {
        indices,
        comparisons: keys.n() as u64,
    }
}

/// 2-D skyline in `O(n log n)`: sort by `(x desc, y desc)`; within each
/// equal-`x` group only the group's maximal `y` can survive, and it does
/// iff it beats the best `y` seen among strictly larger `x`.
///
/// # Panics
/// When `keys` is not two columns wide, or a key is NaN.
pub fn skyline_2d(keys: &KeyMatrix) -> AlgoResult {
    assert_eq!(keys.d(), 2, "skyline_2d needs a 2-column matrix");
    let n = keys.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        let (ra, rb) = (keys.row(a), keys.row(b));
        rb[0]
            .partial_cmp(&ra[0])
            .unwrap()
            .then(rb[1].partial_cmp(&ra[1]).unwrap())
    });
    let mut indices = Vec::new();
    let mut comparisons = 0u64;
    let mut best_y = f64::NEG_INFINITY;
    let mut g = 0;
    while g < n {
        let x = keys.row(order[g])[0];
        let group_max_y = keys.row(order[g])[1]; // first of group: max y
        let mut h = g;
        while h < n && keys.row(order[h])[0] == x {
            comparisons += 1;
            let y = keys.row(order[h])[1];
            if y == group_max_y && group_max_y > best_y {
                indices.push(order[h]);
            }
            h += 1;
        }
        best_y = best_y.max(group_max_y);
        g = h;
    }
    AlgoResult {
        indices,
        comparisons,
    }
}

/// The 3-D staircase: maximal `(y, z)` pairs kept sorted by `y`
/// ascending, which forces `z` strictly descending. Querying "is `(y, z)`
/// weakly dominated?" is a binary search; insertion prunes dominated
/// entries in place.
#[derive(Debug, Default)]
struct Staircase {
    /// `(y, z)` pairs: `y` ascending, `z` strictly descending.
    steps: Vec<(f64, f64)>,
}

impl Staircase {
    /// Does some step `(y', z')` have `y' ≥ y` and `z' ≥ z`?
    fn dominates(&self, y: f64, z: f64) -> bool {
        // first step with y' ≥ y; among all such steps the one with the
        // smallest y' has the largest z', so checking it suffices
        let i = self.steps.partition_point(|&(sy, _)| sy < y);
        i < self.steps.len() && self.steps[i].1 >= z
    }

    /// Insert a pair, removing any steps it weakly dominates.
    fn insert(&mut self, y: f64, z: f64) {
        if self.dominates(y, z) {
            return; // already covered
        }
        let i = self.steps.partition_point(|&(sy, _)| sy < y);
        // steps before i have y' < y; those with z' ≤ z are now dominated
        let start = self.steps[..i].partition_point(|&(_, sz)| sz > z);
        self.steps.splice(start..i, [(y, z)]);
    }
}

/// 3-D skyline: process equal-`x` groups in descending `x`; each group's
/// survivors are its own 2-D `(y, z)` skyline minus anything the
/// staircase (strictly larger `x`) covers.
///
/// # Panics
/// When `keys` is not three columns wide, or a key is NaN.
pub fn skyline_3d(keys: &KeyMatrix) -> AlgoResult {
    assert_eq!(keys.d(), 3, "skyline_3d needs a 3-column matrix");
    let n = keys.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        let (ra, rb) = (keys.row(a), keys.row(b));
        rb[0]
            .partial_cmp(&ra[0])
            .unwrap()
            .then(rb[1].partial_cmp(&ra[1]).unwrap())
            .then(rb[2].partial_cmp(&ra[2]).unwrap())
    });
    let mut indices = Vec::new();
    let mut comparisons = 0u64;
    let mut stair = Staircase::default();
    let mut g = 0;
    while g < n {
        let x = keys.row(order[g])[0];
        let mut h = g;
        while h < n && keys.row(order[h])[0] == x {
            h += 1;
        }
        let group = &order[g..h];
        // 2-D skyline of the group over (y, z): group is sorted by
        // (y desc, z desc) already
        let mut best_z = f64::NEG_INFINITY;
        let mut survivors: Vec<usize> = Vec::new();
        let mut j = 0;
        while j < group.len() {
            let y = keys.row(group[j])[1];
            let group_max_z = keys.row(group[j])[2];
            let mut k = j;
            while k < group.len() && keys.row(group[k])[1] == y {
                comparisons += 1;
                let z = keys.row(group[k])[2];
                if z == group_max_z && group_max_z > best_z {
                    survivors.push(group[k]);
                }
                k += 1;
            }
            best_z = best_z.max(group_max_z);
            j = k;
        }
        // filter against strictly-larger-x staircase, then extend it
        for &i in &survivors {
            let (y, z) = (keys.row(i)[1], keys.row(i)[2]);
            comparisons += 1;
            if !stair.dominates(y, z) {
                indices.push(i);
            }
        }
        for &i in &survivors {
            stair.insert(keys.row(i)[1], keys.row(i)[2]);
        }
        g = h;
    }
    AlgoResult {
        indices,
        comparisons,
    }
}

/// Dimension-dispatching skyline: 1-D/2-D/3-D specials, SFS otherwise.
pub fn skyline_auto(keys: &KeyMatrix) -> AlgoResult {
    match keys.d() {
        1 => skyline_1d(keys),
        2 => skyline_2d(keys),
        3 => skyline_3d(keys),
        _ => sfs(keys, MemSortOrder::Entropy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::naive;

    fn check(rows: &[Vec<f64>]) {
        let km = KeyMatrix::from_rows(rows);
        let expect = naive(&km).sorted().indices;
        let got = skyline_auto(&km).sorted().indices;
        assert_eq!(got, expect, "rows: {rows:?}");
    }

    #[test]
    fn two_d_basic() {
        check(&[
            vec![4.0, 1.0],
            vec![2.0, 2.0],
            vec![1.0, 4.0],
            vec![1.0, 1.0],
            vec![4.0, 0.5],
        ]);
    }

    #[test]
    fn two_d_duplicates_and_ties() {
        check(&[
            vec![3.0, 3.0],
            vec![3.0, 3.0],
            vec![3.0, 1.0],
            vec![1.0, 3.0],
            vec![3.0, 3.0],
        ]);
    }

    #[test]
    fn two_d_anticorrelated_line() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![f64::from(i), f64::from(49 - i)])
            .collect();
        check(&rows);
    }

    #[test]
    fn three_d_basic() {
        check(&[
            vec![3.0, 1.0, 2.0],
            vec![1.0, 3.0, 2.0],
            vec![2.0, 2.0, 2.0],
            vec![1.0, 1.0, 1.0],
            vec![3.0, 1.0, 1.0],
        ]);
    }

    #[test]
    fn three_d_with_x_ties() {
        check(&[
            vec![2.0, 5.0, 1.0],
            vec![2.0, 1.0, 5.0],
            vec![2.0, 3.0, 3.0],
            vec![2.0, 1.0, 1.0],
            vec![1.0, 9.0, 9.0],
        ]);
    }

    #[test]
    fn pseudo_random_grids_match_naive() {
        for seed in 0..30u64 {
            let mut x = seed * 2_654_435_761 + 1;
            let mut rows2 = Vec::new();
            let mut rows3 = Vec::new();
            for _ in 0..120 {
                let mut next = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    f64::from((x % 7) as u32)
                };
                rows2.push(vec![next(), next()]);
                rows3.push(vec![next(), next(), next()]);
            }
            check(&rows2);
            check(&rows3);
        }
    }

    #[test]
    fn one_d_ties() {
        let km = KeyMatrix::new(1, vec![5.0, 1.0, 5.0, 3.0]);
        assert_eq!(skyline_1d(&km).sorted().indices, vec![0, 2]);
    }

    #[test]
    fn empty_inputs() {
        assert!(skyline_2d(&KeyMatrix::new(2, vec![])).indices.is_empty());
        assert!(skyline_3d(&KeyMatrix::new(3, vec![])).indices.is_empty());
        assert!(skyline_1d(&KeyMatrix::new(1, vec![])).indices.is_empty());
    }

    #[test]
    fn staircase_invariants() {
        let mut s = Staircase::default();
        s.insert(1.0, 5.0);
        s.insert(3.0, 3.0);
        s.insert(5.0, 1.0);
        assert!(s.dominates(0.5, 4.0)); // (1,5) covers
        assert!(s.dominates(3.0, 3.0)); // exact step
        assert!(!s.dominates(4.0, 2.0) || s.dominates(4.0, 2.0) == (1.0 >= 2.0)); // (5,1): z=1 < 2
        assert!(!s.dominates(6.0, 0.5));
        // inserting a dominating pair prunes covered steps
        s.insert(4.0, 4.0); // dominates (3,3)
        assert_eq!(s.steps.len(), 3);
        assert!(s.dominates(3.5, 3.5));
        // y ascending, z strictly descending
        for w in s.steps.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 > w[1].1, "{:?}", s.steps);
        }
    }

    #[test]
    fn lowdim_is_cheaper_than_naive_on_big_input() {
        let rows: Vec<Vec<f64>> = (0..3000)
            .map(|i| vec![f64::from((i * 31) % 997), f64::from((i * 17) % 991)])
            .collect();
        let km = KeyMatrix::from_rows(&rows);
        let fast = skyline_2d(&km);
        let slow = naive(&km);
        assert_eq!(fast.clone().sorted().indices, slow.clone().sorted().indices);
        // the scan is linear beyond the sort; naive's early-exit still
        // pays at least one comparison per row pair probed
        assert!(fast.comparisons <= km.n() as u64);
        assert!(fast.comparisons < slow.comparisons);
    }
}
