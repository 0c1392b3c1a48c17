//! Skyline cardinality estimation.
//!
//! The paper (footnote 2, citing the authors' companion work) gives the
//! average-case skyline size as `Θ((ln n)^{d−1}/(d−1)!)` under attribute
//! independence and sparse (duplicate-free) values. The exact expectation
//! obeys the classic recurrence
//!
//! ```text
//! m(n, 1) = 1,   m(0, d) = 0,
//! m(n, d) = m(n−1, d) + m(n, d−1) / n
//! ```
//!
//! (condition on the rank of the last tuple in dimension `d`; e.g.
//! Buchta 1989, Godfrey 2002). [`expected_skyline_size`] evaluates it
//! exactly in `O(n·d)` time and `O(d)` space, and
//! [`asymptotic_skyline_size`] gives the closed-form growth the paper
//! quotes. A query optimizer costing a
//! `SKYLINE OF` clause would call exactly these — once per query, which
//! is why the last few `(n, d)` evaluations are remembered: at
//! 100 000 × 7 the recurrence is 0.77 ms, a third of a query whose
//! skyline is three rows.

use std::sync::{Mutex, PoisonError};

/// `(n, d)` evaluations of the recurrence kept, oldest dropped first. A
/// server sees a handful of table sizes and clause widths at a time; an
/// `INSERT` moves `n` and the old pair ages out.
const MEMO_ENTRIES: usize = 32;

/// The function is pure, so the memo is process-wide and holds values,
/// not results: nothing to invalidate.
static MEMO: Mutex<Vec<((usize, usize), f64)>> = Mutex::new(Vec::new());

/// Exact expected skyline size for `n` tuples, `d` independent dimensions
/// with continuous (duplicate-free) values, via the harmonic recurrence.
///
/// `d = 1` gives 1 (the single max); `d = 2` gives the harmonic number
/// `H_n`.
///
/// ```
/// use skyline_core::cardinality::expected_skyline_size;
/// // two dimensions: H_3 = 1 + 1/2 + 1/3
/// assert!((expected_skyline_size(3, 2) - 11.0 / 6.0).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics if `d == 0`.
pub fn expected_skyline_size(n: usize, d: usize) -> f64 {
    assert!(d >= 1, "dimension must be at least 1");
    if n == 0 {
        return 0.0;
    }
    // every update is one push or one remove: a poisoned memo is intact
    let memo = || MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(_, size)) = memo().iter().find(|(key, _)| *key == (n, d)) {
        return size;
    }
    let size = harmonic_recurrence(n, d);
    let mut memo = memo();
    if memo.len() == MEMO_ENTRIES {
        memo.remove(0);
    }
    memo.push(((n, d), size));
    size
}

/// `m(n, d)` by the recurrence, `n ≥ 1`.
fn harmonic_recurrence(n: usize, d: usize) -> f64 {
    // `m[k]` holds m(i, k + 1) once step `i` is done; m(0, ·) = 0. Each
    // step is the recurrence read left to right, so `m[k − 1]` is already
    // this step's value when `m[k]` takes it — the additions a table of
    // `d` rows of `n + 1` made, in the same order per `k`.
    let mut m = vec![0.0f64; d];
    for i in 1..=n {
        m[0] = 1.0;
        for k in 1..d {
            m[k] += m[k - 1] / i as f64;
        }
    }
    m[d - 1]
}

/// The paper's asymptotic form `(ln n)^{d−1} / (d−1)!`.
///
/// # Panics
/// Panics if `d == 0`.
pub fn asymptotic_skyline_size(n: usize, d: usize) -> f64 {
    assert!(d >= 1, "dimension must be at least 1");
    if n == 0 {
        return 0.0;
    }
    let ln_n = (n as f64).ln();
    let mut fact = 1.0;
    for k in 1..d {
        fact *= k as f64;
    }
    ln_n.powi((d - 1) as i32) / fact
}

/// Fraction of the table expected to be skyline — the selectivity a cost
/// model would plug into a plan.
pub fn expected_selectivity(n: usize, d: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    expected_skyline_size(n, d) / n as f64
}

/// Recommend an SFS window budget, in pages, for a table of `n` tuples
/// with `d` independent criteria: enough for the expected skyline with
/// 50% headroom (the skyline size concentrates around its mean), so a
/// single filter pass is the likely outcome. `entry_bytes` is the window
/// entry size — `4·d` with the projection optimization, the record size
/// without.
///
/// This is the optimizer hook the paper's §6 asks for ("a cardinality
/// estimator for skyline queries is necessary if skyline is to be
/// incorporated into relational engines").
///
/// # Panics
/// When `entry_bytes` is zero.
pub fn recommend_window_pages(n: usize, d: usize, entry_bytes: usize) -> usize {
    assert!(entry_bytes > 0);
    let per_page = (skyline_relation::PAGE_SIZE / entry_bytes).max(1);
    let expected = expected_skyline_size(n, d) * 1.5;
    ((expected / per_page as f64).ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_dimension_has_one_max() {
        for n in [1usize, 2, 10, 1000] {
            assert_eq!(expected_skyline_size(n, 1), 1.0);
        }
    }

    #[test]
    fn the_memo_returns_the_recurrence_bit_for_bit() {
        // cold, warm, after the table grew by a row (an INSERT), and
        // after enough other pairs to push the first ones out
        let pairs = || (0..2 * MEMO_ENTRIES).map(|i| (9_000 + i / 3, 2 + i % 6));
        for round in 0..3 {
            for (n, d) in pairs() {
                let want = harmonic_recurrence(n, d).to_bits();
                assert_eq!(
                    expected_skyline_size(n, d).to_bits(),
                    want,
                    "{round}: {n} {d}"
                );
                assert_eq!(
                    expected_skyline_size(n, d).to_bits(),
                    want,
                    "{round}: {n} {d}"
                );
                let grown = harmonic_recurrence(n + 1, d).to_bits();
                assert_eq!(expected_skyline_size(n + 1, d).to_bits(), grown);
                assert_ne!(grown, want, "one more row is a different value");
            }
        }
        assert!(MEMO.lock().unwrap().len() <= MEMO_ENTRIES);
    }

    #[test]
    fn two_dimensions_is_harmonic_number() {
        let h10: f64 = (1..=10).map(|i| 1.0 / i as f64).sum();
        assert!((expected_skyline_size(10, 2) - h10).abs() < 1e-12);
    }

    #[test]
    fn empty_relation() {
        assert_eq!(expected_skyline_size(0, 3), 0.0);
        assert_eq!(asymptotic_skyline_size(0, 3), 0.0);
        assert_eq!(expected_selectivity(0, 5), 0.0);
    }

    #[test]
    fn monotone_in_dimensions() {
        // more criteria → more incomparability → bigger skyline
        let n = 10_000;
        let mut last = 0.0;
        for d in 1..=8 {
            let m = expected_skyline_size(n, d);
            assert!(m > last, "d={d}: {m} !> {last}");
            last = m;
        }
    }

    #[test]
    fn monotone_in_n() {
        for d in 2..=5 {
            assert!(expected_skyline_size(10_000, d) > expected_skyline_size(1_000, d));
        }
    }

    #[test]
    fn asymptotic_tracks_exact_within_factor() {
        // for moderate n the asymptotic is the leading term; check it's
        // within a small constant factor of the exact value
        for d in 2..=6 {
            let exact = expected_skyline_size(100_000, d);
            let asym = asymptotic_skyline_size(100_000, d);
            let ratio = exact / asym;
            assert!(
                (0.5..=4.0).contains(&ratio),
                "d={d}: exact={exact:.1} asym={asym:.1} ratio={ratio:.2}"
            );
        }
    }

    #[test]
    fn paper_scale_magnitudes() {
        // The paper's 1M-tuple uniform dataset had skylines of 1,651 (d=5),
        // 5,357 (d=6) and 14,081 (d=7). The independence model should land
        // in the same ballpark (same order of magnitude).
        let m5 = expected_skyline_size(1_000_000, 5);
        let m6 = expected_skyline_size(1_000_000, 6);
        let m7 = expected_skyline_size(1_000_000, 7);
        assert!((500.0..6000.0).contains(&m5), "m5={m5}");
        assert!((2000.0..20000.0).contains(&m6), "m6={m6}");
        assert!((6000.0..60000.0).contains(&m7), "m7={m7}");
        assert!(m5 < m6 && m6 < m7);
    }

    #[test]
    fn selectivity_is_small_at_scale() {
        assert!(expected_selectivity(1_000_000, 5) < 0.01);
    }

    #[test]
    fn window_recommendation_scales_sensibly() {
        // projected 7-dim entries: 28 bytes → 146/page; ~2.3k expected
        // skyline at 1M/d=5 → a handful of pages
        let w5 = recommend_window_pages(1_000_000, 5, 28);
        let w7 = recommend_window_pages(1_000_000, 7, 28);
        assert!(w5 >= 1 && w5 < w7, "w5={w5} w7={w7}");
        // full 100-byte entries need ~2.5x more pages than projected ones
        let w7_full = recommend_window_pages(1_000_000, 7, 100);
        assert!(w7_full > 2 * w7);
        assert_eq!(recommend_window_pages(1, 1, 100), 1);
    }
}
