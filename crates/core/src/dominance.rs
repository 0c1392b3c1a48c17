//! The dominance partial order and skyline specifications.
//!
//! For tuples `r, t` and skyline criteria `a₁..a_k` (all oriented "max"):
//! `r ⪯ t` iff `r[aᵢ] ≤ t[aᵢ]` for all `i`, and `r ≺ t` (t *dominates* r)
//! iff additionally `r[aᵢ] < t[aᵢ]` for some `i`. A skyline tuple is one no
//! other tuple strictly dominates. `MIN` criteria are folded into this
//! picture by negating the attribute at key-extraction time, and `DIFF`
//! criteria partition the relation into groups whose skylines are computed
//! independently.

use skyline_relation::RecordLayout;
use std::fmt;

/// Orientation of one skyline criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Prefer small values.
    Min,
    /// Prefer large values (the paper's default).
    Max,
}

/// One `attr MIN`/`attr MAX` criterion, by attribute index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Criterion {
    /// Index into the record layout's attributes.
    pub attr: usize,
    /// Preference direction.
    pub direction: Direction,
}

impl Criterion {
    /// `attr MAX`.
    pub fn max(attr: usize) -> Self {
        Criterion {
            attr,
            direction: Direction::Max,
        }
    }

    /// `attr MIN`.
    pub fn min(attr: usize) -> Self {
        Criterion {
            attr,
            direction: Direction::Min,
        }
    }

    /// Orient a raw value so that larger is always better.
    ///
    /// # Ordering contract
    ///
    /// `orient` must be a *strictly order-reversing* (`Min`) or
    /// order-preserving (`Max`) map under IEEE-754 `<`, because every
    /// downstream comparison — [`dom_rel`], [`dominates`], the batched
    /// block kernel, and the Theorem-4 presort key — compares oriented
    /// values with the primitive operators. Concretely:
    ///
    /// * **Finite values.** Negation reverses `<` exactly, so
    ///   `a < b ⟺ orient(b) < orient(a)` under `Min`.
    /// * **Signed zero.** `-0.0` negates to `+0.0` and vice versa, but
    ///   IEEE `==`/`<` treat the two zeros as equal, so both orient to
    ///   a value that compares equal to `0.0` — dominance verdicts and
    ///   sort keys cannot distinguish the zeros, which is the intended
    ///   "same attribute value" semantics.
    /// * **Infinities.** `-∞`/`+∞` swap under `Min` and order correctly
    ///   against all finite values.
    /// * **NaN.** Negation keeps NaN a NaN, and NaN is *unordered*:
    ///   every `<`/`>` against it is false, so [`dom_rel`] reports
    ///   [`DomRel::Equal`] and [`dominates`] reports `false` in both
    ///   directions — a NaN coordinate silently collapses comparisons
    ///   instead of failing. Attribute values therefore must not be NaN;
    ///   the record layout only produces keys via `f64::from(i32)`, so
    ///   in-tree extraction never manufactures one, and callers feeding
    ///   raw `f64` rows (e.g. the in-memory [`crate::algo`] entry
    ///   points) are responsible for upholding this.
    #[inline]
    pub fn orient(&self, v: f64) -> f64 {
        match self.direction {
            Direction::Max => v,
            Direction::Min => -v,
        }
    }
}

/// A full `SKYLINE OF` specification over a fixed-width record layout:
/// MIN/MAX criteria plus DIFF grouping attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkylineSpec {
    /// The MIN/MAX criteria, in clause order.
    pub criteria: Vec<Criterion>,
    /// DIFF attributes: the skyline is computed per distinct combination.
    pub diff: Vec<usize>,
}

impl SkylineSpec {
    /// `a₀ MAX, …, a_{d−1} MAX` — the common all-max spec over the first
    /// `d` attributes.
    pub fn max_all(d: usize) -> Self {
        SkylineSpec {
            criteria: (0..d).map(Criterion::max).collect(),
            diff: Vec::new(),
        }
    }

    /// Build from explicit criteria.
    pub fn new(criteria: Vec<Criterion>) -> Self {
        SkylineSpec {
            criteria,
            diff: Vec::new(),
        }
    }

    /// Add DIFF attributes.
    pub fn with_diff(mut self, diff: Vec<usize>) -> Self {
        self.diff = diff;
        self
    }

    /// Number of MIN/MAX dimensions.
    pub fn dims(&self) -> usize {
        self.criteria.len()
    }

    /// Validate against a layout (every referenced attribute must exist,
    /// and criteria/diff attributes must be distinct).
    ///
    /// # Errors
    /// [`SpecError::Empty`] without criteria, [`SpecError::AttrOutOfRange`] /
    /// [`SpecError::DuplicateAttr`] for an attribute the layout lacks or that is
    /// named twice.
    pub fn validate(&self, layout: &RecordLayout) -> Result<(), SpecError> {
        if self.criteria.is_empty() {
            return Err(SpecError::Empty);
        }
        let mut seen = vec![false; layout.dims];
        for c in &self.criteria {
            if c.attr >= layout.dims {
                return Err(SpecError::AttrOutOfRange(c.attr));
            }
            if seen[c.attr] {
                return Err(SpecError::DuplicateAttr(c.attr));
            }
            seen[c.attr] = true;
        }
        for &a in &self.diff {
            if a >= layout.dims {
                return Err(SpecError::AttrOutOfRange(a));
            }
            if seen[a] {
                return Err(SpecError::DuplicateAttr(a));
            }
            seen[a] = true;
        }
        Ok(())
    }

    /// Extract the oriented (all-max) key of a record into `out`
    /// (cleared first). Hot path: no allocation when `out` has capacity.
    #[inline]
    pub fn key_of(&self, layout: &RecordLayout, record: &[u8], out: &mut Vec<f64>) {
        out.clear();
        for c in &self.criteria {
            out.push(c.orient(f64::from(layout.attr(record, c.attr))));
        }
    }

    /// Extract the DIFF group key of a record into `out` (cleared first).
    #[inline]
    pub fn diff_key_of(&self, layout: &RecordLayout, record: &[u8], out: &mut Vec<i32>) {
        out.clear();
        for &a in &self.diff {
            out.push(layout.attr(record, a));
        }
    }

    /// Orient a full row of raw attribute values (indexed by criterion
    /// order, i.e. `row[i]` is the raw value of `criteria[i].attr`).
    pub fn orient_row(&self, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.criteria.len());
        for (v, c) in row.iter_mut().zip(&self.criteria) {
            *v = c.orient(*v);
        }
    }
}

/// Errors validating a [`SkylineSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// No criteria given.
    Empty,
    /// A referenced attribute index exceeds the layout.
    AttrOutOfRange(usize),
    /// The same attribute appears twice across criteria/diff.
    DuplicateAttr(usize),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "skyline spec has no criteria"),
            SpecError::AttrOutOfRange(a) => write!(f, "attribute {a} out of range"),
            SpecError::DuplicateAttr(a) => write!(f, "attribute {a} referenced twice"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Outcome of comparing two oriented key rows under dominance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomRel {
    /// `a` strictly dominates `b` (`b ≺ a`).
    Dominates,
    /// `b` strictly dominates `a` (`a ≺ b`).
    DominatedBy,
    /// Equal on every criterion (`a ⪯ b` and `b ⪯ a`).
    Equal,
    /// Neither dominates.
    Incomparable,
}

/// Compare two oriented key rows. Short-circuits as soon as both sides
/// have a winning coordinate.
#[inline]
pub fn dom_rel(a: &[f64], b: &[f64]) -> DomRel {
    debug_assert_eq!(a.len(), b.len());
    let mut a_better = false;
    let mut b_better = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            if b_better {
                return DomRel::Incomparable;
            }
            a_better = true;
        } else if y > x {
            if a_better {
                return DomRel::Incomparable;
            }
            b_better = true;
        }
    }
    match (a_better, b_better) {
        (true, false) => DomRel::Dominates,
        (false, true) => DomRel::DominatedBy,
        (false, false) => DomRel::Equal,
        (true, true) => unreachable!("short-circuited above"),
    }
}

/// `true` iff `a` strictly dominates `b` (cheaper than [`dom_rel`] when
/// only one direction matters — the SFS window test).
///
/// ```
/// use skyline_core::dominates;
/// assert!(dominates(&[3.0, 2.0], &[1.0, 2.0]));
/// assert!(!dominates(&[3.0, 1.0], &[1.0, 2.0])); // incomparable
/// assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal is not strict
/// ```
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return false;
        }
        if x > y {
            strict = true;
        }
    }
    strict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom_rel_cases() {
        assert_eq!(dom_rel(&[2.0, 2.0], &[1.0, 1.0]), DomRel::Dominates);
        assert_eq!(dom_rel(&[1.0, 1.0], &[2.0, 2.0]), DomRel::DominatedBy);
        assert_eq!(dom_rel(&[1.0, 2.0], &[2.0, 1.0]), DomRel::Incomparable);
        assert_eq!(dom_rel(&[3.0, 3.0], &[3.0, 3.0]), DomRel::Equal);
        // weak dominance: equal on one coord, better on another
        assert_eq!(dom_rel(&[2.0, 1.0], &[1.0, 1.0]), DomRel::Dominates);
    }

    #[test]
    fn dominates_matches_dom_rel() {
        let rows: Vec<Vec<f64>> = vec![
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![2.0, 2.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
        ];
        for a in &rows {
            for b in &rows {
                assert_eq!(
                    dominates(a, b),
                    dom_rel(a, b) == DomRel::Dominates,
                    "mismatch for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn min_direction_orients() {
        let c = Criterion::min(0);
        assert!(
            c.orient(10.0) < c.orient(5.0),
            "smaller raw must orient larger"
        );
    }

    #[test]
    fn key_extraction_orients_and_orders() {
        let layout = RecordLayout::new(3, 0);
        let rec = layout.encode(&[10, 20, 30], b"");
        let spec = SkylineSpec::new(vec![Criterion::max(2), Criterion::min(0)]);
        let mut key = Vec::new();
        spec.key_of(&layout, &rec, &mut key);
        assert_eq!(key, vec![30.0, -10.0]);
    }

    #[test]
    fn diff_key_extraction() {
        let layout = RecordLayout::new(3, 0);
        let rec = layout.encode(&[1, 2, 3], b"");
        let spec = SkylineSpec::max_all(2).with_diff(vec![2]);
        let mut dk = Vec::new();
        spec.diff_key_of(&layout, &rec, &mut dk);
        assert_eq!(dk, vec![3]);
    }

    #[test]
    fn validation() {
        let layout = RecordLayout::new(3, 0);
        assert!(SkylineSpec::max_all(3).validate(&layout).is_ok());
        assert_eq!(
            SkylineSpec::max_all(4).validate(&layout),
            Err(SpecError::AttrOutOfRange(3))
        );
        assert_eq!(
            SkylineSpec::new(vec![]).validate(&layout),
            Err(SpecError::Empty)
        );
        assert_eq!(
            SkylineSpec::new(vec![Criterion::max(0), Criterion::min(0)]).validate(&layout),
            Err(SpecError::DuplicateAttr(0))
        );
        assert_eq!(
            SkylineSpec::max_all(2).with_diff(vec![1]).validate(&layout),
            Err(SpecError::DuplicateAttr(1))
        );
        assert!(SkylineSpec::max_all(2)
            .with_diff(vec![2])
            .validate(&layout)
            .is_ok());
    }

    #[test]
    fn orient_signed_zero_compares_equal_both_directions() {
        for c in [Criterion::max(0), Criterion::min(0)] {
            let pos = c.orient(0.0);
            let neg = c.orient(-0.0);
            // IEEE == cannot tell the zeros apart, so neither can any
            // dominance verdict built on </>
            assert_eq!(pos, neg, "{:?}", c.direction);
            assert_eq!(dom_rel(&[pos], &[neg]), DomRel::Equal);
            assert!(!dominates(&[pos], &[neg]) && !dominates(&[neg], &[pos]));
        }
        // Min flips the sign bit (−0.0 → +0.0) without changing the
        // compared value
        assert!(Criterion::min(0).orient(-0.0).is_sign_positive());
        assert!(Criterion::min(0).orient(0.0).is_sign_negative());
    }

    #[test]
    fn orient_infinities_reverse_under_min() {
        let c = Criterion::min(0);
        assert_eq!(c.orient(f64::INFINITY), f64::NEG_INFINITY);
        assert_eq!(c.orient(f64::NEG_INFINITY), f64::INFINITY);
        // −∞ raw is the best possible MIN value: it orients above every
        // finite value
        assert!(c.orient(f64::NEG_INFINITY) > c.orient(-1e308));
    }

    #[test]
    fn orient_nan_stays_unordered() {
        for c in [Criterion::max(0), Criterion::min(0)] {
            assert!(c.orient(f64::NAN).is_nan(), "{:?}", c.direction);
        }
        // NaN coordinates are unordered: both strict tests fail, and
        // dom_rel degrades to Equal rather than inventing a winner
        let nan = [f64::NAN, 2.0];
        let num = [1.0, 2.0];
        assert_eq!(dom_rel(&nan, &num), DomRel::Equal);
        assert_eq!(dom_rel(&num, &nan), DomRel::Equal);
        assert!(!dominates(&nan, &num) && !dominates(&num, &nan));
        // even against an otherwise strictly better row the NaN lane
        // contributes no strict win, so dominance still needs another
        // strict coordinate
        assert!(dominates(&[f64::NAN, 3.0], &[f64::NAN, 2.0]));
        assert!(!dominates(&[f64::NAN, 2.0], &[1.0, 2.0]));
    }

    #[test]
    fn dominance_is_transitive_spot_check() {
        let a = [3.0, 3.0];
        let b = [2.0, 2.0];
        let c = [1.0, 2.0];
        assert!(dominates(&a, &b) && dominates(&b, &c) && dominates(&a, &c));
    }
}
