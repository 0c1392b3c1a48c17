//! The *winnow* generalization (Chomicki's preference-query operator,
//! the paper's reference \[6\]): keep the tuples not bettered by any other
//! tuple under an **arbitrary strict partial order**, of which skyline
//! dominance is the special case.
//!
//! The paper's §6 lists "extend skyline algorithms to handle more general
//! cases of winnow" as future work; this module does so for the
//! BNL-style evaluation, which is correct for any preference relation
//! that is a strict partial order (irreflexive + transitive — transitivity
//! is what makes discarding against the window sound).

use crate::dominance::dominates;
use crate::keys::KeyMatrix;

/// A preference relation over key rows: `prefers(a, b)` means "a is
/// strictly better than b".
///
/// Implementations **must** be a strict partial order: irreflexive,
/// asymmetric, and transitive. Violating transitivity makes window-based
/// evaluation unsound (a discarded tuple's discarder could later be
/// discarded by a tuple that does not better the original).
pub trait Preference {
    /// Is `a` strictly preferred to `b`?
    fn prefers(&self, a: &[f64], b: &[f64]) -> bool;
}

/// Pareto dominance — winnow with this preference *is* the skyline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SkylinePreference;

impl Preference for SkylinePreference {
    fn prefers(&self, a: &[f64], b: &[f64]) -> bool {
        dominates(a, b)
    }
}

/// Lexicographic preference with a tolerance band on the first
/// dimension: `a` is preferred when it is *decisively* better on dim 0
/// (by more than `band`), or within the band and strictly better on
/// dim 1 onwards lexicographically. A strict partial order for any
/// `band ≥ 0` when used with `band == 0` (pure lexicographic); for
/// `band > 0` the band comparison is intransitive in general, so we
/// implement the transitive *prioritized composition*: better on dim 0,
/// or equal on dim 0 and lexicographically better on the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct LexPreference;

impl Preference for LexPreference {
    fn prefers(&self, a: &[f64], b: &[f64]) -> bool {
        for (x, y) in a.iter().zip(b) {
            if x > y {
                return true;
            }
            if x < y {
                return false;
            }
        }
        false
    }
}

/// Weighted-sum preference: `a` preferred iff its weighted sum is
/// strictly larger (a total preorder's strict part — transitive).
#[derive(Debug, Clone)]
pub struct WeightedSumPreference {
    weights: Vec<f64>,
}

impl WeightedSumPreference {
    /// Build from weights (any signs allowed; it's just a linear functional).
    ///
    /// # Panics
    /// When `weights` is empty.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty());
        WeightedSumPreference { weights }
    }
}

impl Preference for WeightedSumPreference {
    fn prefers(&self, a: &[f64], b: &[f64]) -> bool {
        let sa: f64 = a.iter().zip(&self.weights).map(|(v, w)| v * w).sum();
        let sb: f64 = b.iter().zip(&self.weights).map(|(v, w)| v * w).sum();
        sa > sb
    }
}

/// Winnow by BNL-style evaluation: one pass with an unbounded window and
/// replacement. Returns the indices of unbettered rows (input order
/// within the window's insertion sequence; sort for canonical form) and
/// the number of preference tests.
///
/// ```
/// use skyline_core::winnow::{winnow, LexPreference};
/// use skyline_core::KeyMatrix;
/// let km = KeyMatrix::from_rows(&[vec![2.0, 1.0], vec![2.0, 9.0], vec![1.0, 5.0]]);
/// let (best, _) = winnow(&km, &LexPreference);
/// assert_eq!(best, vec![1]); // the lexicographic maximum
/// ```
pub fn winnow<P: Preference>(keys: &KeyMatrix, pref: &P) -> (Vec<usize>, u64) {
    let n = keys.n();
    let mut window: Vec<usize> = Vec::new();
    let mut tests = 0u64;
    'input: for i in 0..n {
        let mut k = 0;
        while k < window.len() {
            tests += 2;
            if pref.prefers(keys.row(window[k]), keys.row(i)) {
                continue 'input;
            }
            if pref.prefers(keys.row(i), keys.row(window[k])) {
                window.swap_remove(k);
            } else {
                k += 1;
            }
        }
        window.push(i);
    }
    (window, tests)
}

/// Naive winnow oracle: O(n²) direct application of the definition.
pub fn winnow_naive<P: Preference>(keys: &KeyMatrix, pref: &P) -> Vec<usize> {
    (0..keys.n())
        .filter(|&i| !(0..keys.n()).any(|j| j != i && pref.prefers(keys.row(j), keys.row(i))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::naive;

    fn km(rows: &[[f64; 2]]) -> KeyMatrix {
        KeyMatrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn skyline_preference_equals_skyline() {
        let m = km(&[[4.0, 1.0], [2.0, 2.0], [1.0, 4.0], [1.0, 1.0], [2.0, 2.0]]);
        let (mut w, _) = winnow(&m, &SkylinePreference);
        w.sort_unstable();
        assert_eq!(w, naive(&m).sorted().indices);
    }

    #[test]
    fn lex_preference_keeps_only_lex_maxima() {
        let m = km(&[[3.0, 1.0], [3.0, 5.0], [2.0, 9.0], [3.0, 5.0]]);
        let (mut w, _) = winnow(&m, &LexPreference);
        w.sort_unstable();
        assert_eq!(w, vec![1, 3], "both copies of the lex maximum survive");
    }

    #[test]
    fn weighted_sum_keeps_all_maximizers() {
        let m = km(&[[4.0, 0.0], [0.0, 4.0], [2.0, 2.0], [1.0, 1.0]]);
        let pref = WeightedSumPreference::new(vec![1.0, 1.0]);
        let (mut w, _) = winnow(&m, &pref);
        w.sort_unstable();
        assert_eq!(w, vec![0, 1, 2], "all sum-4 rows are unbettered");
    }

    #[test]
    fn winnow_matches_naive_on_pseudorandom_data() {
        let mut x = 42u64;
        let mut rows = Vec::new();
        for _ in 0..300 {
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from((x % 11) as u32)
            };
            rows.push(vec![next(), next(), next()]);
        }
        let m = KeyMatrix::from_rows(&rows);
        for pref in [&SkylinePreference as &dyn Preference, &LexPreference] {
            struct Wrap<'a>(&'a dyn Preference);
            impl Preference for Wrap<'_> {
                fn prefers(&self, a: &[f64], b: &[f64]) -> bool {
                    self.0.prefers(a, b)
                }
            }
            let w = Wrap(pref);
            let (mut got, _) = winnow(&m, &w);
            got.sort_unstable();
            assert_eq!(got, winnow_naive(&m, &w));
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty = KeyMatrix::new(2, vec![]);
        assert!(winnow(&empty, &SkylinePreference).0.is_empty());
        let one = km(&[[1.0, 1.0]]);
        assert_eq!(winnow(&one, &LexPreference).0, vec![0]);
    }
}
