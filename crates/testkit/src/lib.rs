#![warn(missing_docs, clippy::missing_errors_doc, clippy::missing_panics_doc)]

//! Deterministic randomized-test harness for the skyline workspace.
//!
//! [`cases`] runs a property closure over `n` independently seeded
//! [`Rng`]s derived from a base seed. Every failure message names the
//! case's derived seed, so a failing case reproduces in isolation with
//! `replay(seed, f)` — no shrinking, no persistence files, no external
//! dependencies, and fully offline.
//!
//! ```
//! skyline_testkit::cases(32, 0xC0FFEE, |rng| {
//!     let x = rng.i32_inclusive(-100, 100);
//!     assert_eq!(x.abs() * x.signum(), x, "seeded case property");
//! });
//! ```

pub mod interleave;

pub use skyline_relation::rng::Rng;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Derive the per-case seed used by [`cases`] for case `i` of `base_seed`.
///
/// Exposed so a failing case (reported as `case i, seed 0x…`) can be
/// replayed directly via [`replay`].
pub fn case_seed(base_seed: u64, i: usize) -> u64 {
    // One splitmix64 step keeps consecutive case seeds decorrelated.
    let mut z = base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `f` once per case with a case-specific deterministic [`Rng`].
///
/// On panic, re-raises the panic after printing which case (index and
/// derived seed) failed.
pub fn cases<F>(n: usize, base_seed: u64, mut f: F)
where
    F: FnMut(&mut Rng),
{
    for i in 0..n {
        let seed = case_seed(base_seed, i);
        let mut rng = Rng::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&mut rng))) {
            eprintln!(
                "testkit: case {i}/{n} failed (derived seed {seed:#018x}); \
                 replay with skyline_testkit::replay({seed:#x}, ..)"
            );
            resume_unwind(payload);
        }
    }
}

/// Re-run a single property case from a derived seed printed by [`cases`].
pub fn replay<F>(seed: u64, mut f: F)
where
    F: FnMut(&mut Rng),
{
    let mut rng = Rng::seed_from_u64(seed);
    f(&mut rng);
}

/// One oriented dominance key of `d` criteria whose columns are hard
/// on anything that quantizes or summarizes them. The column kind cycles
/// with the criterion index: a wide integer range, a constant column
/// (zero range), two distinct values, heavy ties, the `i32` extremes,
/// ±1e300, a sprinkling of ±∞ / NaN lanes, and a fractional range.
pub fn hostile_key(rng: &mut Rng, d: usize) -> Vec<f64> {
    fn pick(rng: &mut Rng, from: &[f64]) -> f64 {
        from[rng.usize_below(from.len())]
    }
    (0..d)
        .map(|c| match c % 8 {
            0 => rng.usize_below(1000) as f64,
            1 => 42.0,
            2 => pick(rng, &[-1.0, 1.0]),
            3 => rng.usize_below(5) as f64,
            4 => pick(
                rng,
                &[f64::from(i32::MIN), f64::from(i32::MAX), -1.0, 0.0, 1.0],
            ),
            5 => pick(rng, &[1e300, -1e300, 0.5, -0.5]),
            6 if rng.usize_below(8) == 0 => {
                pick(rng, &[f64::INFINITY, f64::NEG_INFINITY, f64::NAN])
            }
            6 => rng.usize_below(3) as f64,
            _ => rng.usize_below(1 << 20) as f64 / 1024.0 - 512.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_distinct() {
        let mut first = Vec::new();
        cases(8, 99, |rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        cases(8, 99, |rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
        let mut dedup = first.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), first.len(), "cases use distinct seeds");
    }

    #[test]
    fn replay_matches_case_seed() {
        let mut from_cases = Vec::new();
        cases(3, 7, |rng| from_cases.push(rng.next_u64()));
        for (i, &want) in from_cases.iter().enumerate() {
            replay(case_seed(7, i), |rng| assert_eq!(rng.next_u64(), want));
        }
    }

    #[test]
    fn failing_case_propagates_panic() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            cases(4, 1, |rng| {
                let _ = rng.next_u64();
                panic!("expected failure");
            })
        }));
        assert!(err.is_err());
    }
}
