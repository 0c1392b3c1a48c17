//! Algebraic identities of the skyline operator (paper §2 and §6).
//!
//! Two identities matter to an optimizer:
//!
//! 1. **Sub-skylines come from super-skylines** (§6): the skyline over a
//!    *subset* of the criteria can be computed from the skyline over the
//!    superset — `sky_B(R) = sky_B(sky_A(R))` for `B ⊆ A` — but *not*
//!    vice versa. So a cached wide skyline answers narrower queries.
//! 2. **Unions of sub-criterion skylines under-approximate** (§2):
//!    `sky_{a₁..a_k}(R) ∪ sky_{a_{k+1}..a_n}(R) ⊆ sky_{a₁..a_n}(R)`;
//!    the inclusion is generally strict, which is why per-column indexes
//!    cannot assemble a skyline.
//!
//! (Both identities are stated here for *set* semantics over key values;
//! duplicate rows with equal keys stand or fall together.)

use crate::algo::{naive, sfs, MemSortOrder};
use crate::keys::KeyMatrix;

/// Project a key matrix onto a subset of its dimensions.
///
/// # Panics
/// When `dims` is empty or names a dimension `keys` does not have.
pub fn project_dims(keys: &KeyMatrix, dims: &[usize]) -> KeyMatrix {
    assert!(!dims.is_empty(), "need at least one dimension");
    assert!(dims.iter().all(|&d| d < keys.d()), "dimension out of range");
    let mut data = Vec::with_capacity(keys.n() * dims.len());
    for i in 0..keys.n() {
        let row = keys.row(i);
        for &d in dims {
            data.push(row[d]);
        }
    }
    KeyMatrix::new(dims.len(), data)
}

/// Compute `sky_B(R)` via identity 1: first `sky_A(R)` (all dimensions of
/// `keys`), then the `B`-skyline of that. Returns indices into `keys`,
/// sorted. Checked against the direct computation in tests; exposed for
/// cached-skyline query answering.
pub fn subspace_skyline_via_full(keys: &KeyMatrix, dims: &[usize]) -> Vec<usize> {
    let full = sfs(keys, MemSortOrder::Entropy).indices;
    let projected_full = project_dims(&keys.select(&full), dims);
    let mut out: Vec<usize> = naive(&projected_full)
        .indices
        .into_iter()
        .map(|local| full[local])
        .collect();
    out.sort_unstable();
    out
}

/// Direct `sky_B(R)` for comparison.
pub fn subspace_skyline_direct(keys: &KeyMatrix, dims: &[usize]) -> Vec<usize> {
    let projected = project_dims(keys, dims);
    let mut out = naive(&projected).indices;
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_relation::gen::WorkloadSpec;
    use std::collections::BTreeSet;

    fn uniform(n: usize, d: usize, seed: u64) -> KeyMatrix {
        KeyMatrix::new(d, WorkloadSpec::paper(n, seed).generate_keys(d))
    }

    /// Key-value set of a skyline (set semantics, as the identities are
    /// stated over values).
    fn key_set(keys: &KeyMatrix, idx: &[usize], dims: &[usize]) -> BTreeSet<Vec<i64>> {
        idx.iter()
            .map(|&i| dims.iter().map(|&d| keys.row(i)[d] as i64).collect())
            .collect()
    }

    #[test]
    fn subspace_from_full_matches_direct() {
        for seed in 0..8u64 {
            let km = uniform(2_000, 4, seed);
            for dims in [vec![0], vec![0, 1], vec![2, 3], vec![0, 2, 3]] {
                let via_full = subspace_skyline_via_full(&km, &dims);
                let direct = subspace_skyline_direct(&km, &dims);
                assert_eq!(
                    key_set(&km, &via_full, &dims),
                    key_set(&km, &direct, &dims),
                    "seed={seed}, dims={dims:?}"
                );
            }
        }
    }

    #[test]
    fn union_of_sub_skylines_is_contained_in_full() {
        for seed in 0..8u64 {
            let km = uniform(1_500, 4, seed);
            let all_dims: Vec<usize> = (0..4).collect();
            let full = subspace_skyline_direct(&km, &all_dims);
            let full_set = key_set(&km, &full, &all_dims);
            let left = subspace_skyline_direct(&km, &[0, 1]);
            let right = subspace_skyline_direct(&km, &[2, 3]);
            for &i in left.iter().chain(&right) {
                let key: Vec<i64> = (0..4).map(|d| km.row(i)[d] as i64).collect();
                assert!(
                    full_set.contains(&key),
                    "seed={seed}: sub-skyline tuple {key:?} missing from full skyline"
                );
            }
            // and the containment is typically strict at this scale
            assert!(
                left.len() + right.len() < full.len(),
                "seed={seed}: expected strict containment"
            );
        }
    }

    #[test]
    fn reverse_direction_fails() {
        // sky_A(R) cannot be reconstructed from sky_B(R) for B ⊂ A:
        // exhibit a tuple in the full skyline absent from the sub-skyline.
        let km = KeyMatrix::from_rows(&[
            vec![1.0, 9.0, 5.0],
            vec![2.0, 1.0, 9.0],
            vec![3.0, 2.0, 1.0],
        ]);
        let full = subspace_skyline_direct(&km, &[0, 1, 2]);
        let sub = subspace_skyline_direct(&km, &[0, 1]);
        assert_eq!(full, vec![0, 1, 2]);
        assert!(!sub.contains(&1), "row 1 is skyline only thanks to dim 2");
    }

    #[test]
    fn projection_utility() {
        let km = KeyMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let p = project_dims(&km, &[2, 0]);
        assert_eq!(p.row(0), &[3.0, 1.0]);
        assert_eq!(p.row(1), &[6.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn projection_checks_range() {
        project_dims(&KeyMatrix::new(2, vec![]), &[5]);
    }
}
