//! Differential property test for the columnar block kernels: on every
//! workload distribution, dimensionality 2..=10, and MIN/MAX orientation
//! mix, the batched [`BlockWindow`]/[`ReplaceWindow`] verdicts must equal
//! the scalar [`dom_rel`] reference — and the model comparison charge of
//! a batched probe must never exceed the scalar charge for the same
//! probe (skipped blocks provably contain no decisive entry).
//!
//! The second half pins the level-code screen (DESIGN.md §12.5) to a
//! [`Model`] of the block windows that has no codes at all — 16-entry
//! blocks, summary skips, an exact test of every lane, the charging rule
//! of §12.4 — and requires verdict **and** [`ProbeCost`] to be equal
//! probe for probe, over the dimensionalities and values that are hard
//! on a quantizer.

use skyline::core::dominance_block::{
    key_score, BlockVerdict, BlockWindow, ProbeCost, ReplaceWindow, BLOCK_LANES,
};
use skyline::core::{dom_rel, Criterion, DomRel, SkylineSpec};
use skyline::relation::gen::{Distribution, WorkloadSpec};
use skyline::relation::RecordLayout;
use skyline_testkit::{hostile_key, Rng};

const DISTS: &[(&str, Distribution)] = &[
    ("uniform", Distribution::UniformIndependent),
    ("correlated", Distribution::Correlated { jitter: 0.05 }),
    (
        "anticorrelated",
        Distribution::AntiCorrelated { jitter: 0.05 },
    ),
    (
        "clustered",
        Distribution::Clustered {
            clusters: 5,
            spread: 0.1,
        },
    ),
    ("skewed", Distribution::Skewed { exponent: 4.0 }),
];

/// Oriented key rows for one grid point: `n` rows of `d` coordinates,
/// oriented by the given MIN/MAX mix (so larger is always better).
fn oriented_rows(dist: Distribution, d: usize, seed: u64, mix: &[Criterion]) -> Vec<Vec<f64>> {
    let spec = WorkloadSpec {
        dist,
        domain: (0, 999), // small domain: plenty of equal coordinates
        layout: RecordLayout::new(d, 0),
        ..WorkloadSpec::paper(200, seed)
    };
    let sky = SkylineSpec::new(mix.to_vec());
    spec.generate_keys(d)
        .chunks_exact(d)
        .map(|chunk| {
            let mut row = chunk.to_vec();
            sky.orient_row(&mut row);
            row
        })
        .collect()
}

/// Every orientation mix exercised per dimensionality: all-max, all-min,
/// and a seed-dependent alternating pattern.
fn mixes(d: usize, seed: u64) -> Vec<Vec<Criterion>> {
    let alternating = (0..d)
        .map(|c| {
            if (c as u64 + seed).is_multiple_of(2) {
                Criterion::max(c)
            } else {
                Criterion::min(c)
            }
        })
        .collect();
    vec![
        (0..d).map(Criterion::max).collect(),
        (0..d).map(Criterion::min).collect(),
        alternating,
    ]
}

/// Run `f` over the full (distribution × d × seed × mix) grid.
fn grid(mut f: impl FnMut(&[Vec<f64>], &str)) {
    for &(dname, dist) in DISTS {
        for d in 2..=10 {
            for seed in [7, 2003] {
                for (mi, mix) in mixes(d, seed).iter().enumerate() {
                    let rows = oriented_rows(dist, d, seed, mix);
                    f(&rows, &format!("{dname} d={d} seed={seed} mix={mi}"));
                }
            }
        }
    }
}

/// Scalar reference for [`BlockWindow::probe`]: first decisive entry in
/// window order decides; the charge is entries scanned up to it.
fn scalar_probe(window: &[&Vec<f64>], key: &[f64]) -> (BlockVerdict, u64) {
    let mut comparisons = 0u64;
    for entry in window {
        comparisons += 1;
        match dom_rel(entry, key) {
            DomRel::Dominates => return (BlockVerdict::Dominated, comparisons),
            DomRel::Equal => return (BlockVerdict::Equal, comparisons),
            _ => {}
        }
    }
    (BlockVerdict::Incomparable, comparisons)
}

/// SFS-shape agreement: insert in score-descending order (the Theorem-4
/// cutoff armed), probing each candidate against the survivors so far.
/// Block verdicts, survivor sets, and per-probe charges must match the
/// scalar reference.
#[test]
fn block_window_matches_scalar_verdicts_presorted() {
    grid(|rows, label| {
        let d = rows[0].len();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| key_score(&rows[b]).total_cmp(&key_score(&rows[a])));

        let mut block = BlockWindow::new(d, usize::MAX);
        let mut scalar: Vec<&Vec<f64>> = Vec::new();
        for &i in &order {
            let key = &rows[i];
            let (verdict, cost) = block.probe(key);
            let (expect, scalar_cost) = scalar_probe(&scalar, key);
            assert_eq!(verdict, expect, "{label}: verdict for row {i}");
            assert!(
                cost.comparisons <= scalar_cost,
                "{label}: block charged {} > scalar {} for row {i}",
                cost.comparisons,
                scalar_cost
            );
            if !matches!(verdict, BlockVerdict::Dominated) {
                block.insert(key);
                scalar.push(key);
            }
        }
        assert!(block.is_monotone(), "{label}: presorted insertions");
        assert_eq!(block.len(), scalar.len(), "{label}: survivor count");
    });
}

/// Same agreement with the cutoff disarmed: insertion in generation
/// order, where scores are not monotone, so only the per-block summary
/// screens prune.
#[test]
fn block_window_matches_scalar_verdicts_unsorted() {
    grid(|rows, label| {
        let d = rows[0].len();
        let mut block = BlockWindow::new(d, usize::MAX);
        let mut scalar: Vec<&Vec<f64>> = Vec::new();
        for (i, key) in rows.iter().enumerate() {
            let (verdict, cost) = block.probe(key);
            let (expect, scalar_cost) = scalar_probe(&scalar, key);
            assert_eq!(verdict, expect, "{label}: verdict for row {i}");
            assert!(
                cost.comparisons <= scalar_cost,
                "{label}: block charged {} > scalar {} for row {i}",
                cost.comparisons,
                scalar_cost
            );
            if !matches!(verdict, BlockVerdict::Dominated) {
                block.insert(key);
                scalar.push(key);
            }
        }
        assert_eq!(block.len(), scalar.len(), "{label}: survivor count");
    });
}

/// BNL-shape agreement: [`ReplaceWindow::probe_replace`] must discard
/// exactly when some scalar window entry dominates, evict exactly the
/// entries the candidate dominates, and leave a window whose contents a
/// swap-remove mirror reproduces key for key.
#[test]
fn replace_window_matches_scalar_bnl() {
    grid(|rows, label| {
        let d = rows[0].len();
        let mut block = ReplaceWindow::new(d);
        let mut mirror: Vec<Vec<f64>> = Vec::new();
        let mut removed = Vec::new();
        for (i, key) in rows.iter().enumerate() {
            let scalar_dominated = mirror.iter().any(|e| dom_rel(e, key) == DomRel::Dominates);
            let scalar_victims: Vec<Vec<f64>> = mirror
                .iter()
                .filter(|e| dom_rel(key, e) == DomRel::Dominates)
                .cloned()
                .collect();

            let (dominated, _cost) = block.probe_replace(key, &mut removed);
            assert_eq!(dominated, scalar_dominated, "{label}: verdict for row {i}");

            let mut evicted: Vec<Vec<f64>> = Vec::new();
            for &p in &removed {
                evicted.push(mirror.swap_remove(p));
            }
            let sort = |v: &mut Vec<Vec<f64>>| {
                v.sort_by(|a, b| a.partial_cmp(b).expect("keys are non-NaN"));
            };
            let (mut evicted_sorted, mut victims_sorted) = (evicted, scalar_victims);
            sort(&mut evicted_sorted);
            sort(&mut victims_sorted);
            assert_eq!(
                evicted_sorted, victims_sorted,
                "{label}: evicted set for row {i}"
            );
            if !dominated {
                block.push(key);
                mirror.push(key.clone());
            }
            assert_eq!(block.len(), mirror.len(), "{label}: window size at {i}");
        }
        // final window must be exactly the pairwise-non-dominated survivors
        for a in &mirror {
            for b in &mirror {
                assert_ne!(
                    dom_rel(a, b),
                    DomRel::Dominates,
                    "{label}: window must stay pairwise non-dominating"
                );
            }
        }
    });
}

/// Prefix probes (the parallel-merge arena shape) agree with a scalar
/// scan over the same prefix: dominators decide, equal keys do not.
#[test]
fn prefix_probe_matches_scalar_prefix_scan() {
    grid(|rows, label| {
        let d = rows[0].len();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| key_score(&rows[b]).total_cmp(&key_score(&rows[a])));
        let sorted: Vec<&Vec<f64>> = order.iter().map(|&i| &rows[i]).collect();

        let mut arena = BlockWindow::new(d, usize::MAX);
        for key in &sorted {
            arena.insert(key);
        }
        // probe a spread of prefixes, not all n² pairs
        for (i, key) in sorted.iter().enumerate().step_by(17) {
            let (dominated, _cost) = arena.probe_prefix(key, i);
            let expect = sorted[..i]
                .iter()
                .any(|e| dom_rel(e, key) == DomRel::Dominates);
            assert_eq!(dominated, expect, "{label}: prefix {i}");
        }
    });
}

// ---- coded windows ≡ the uncoded model, verdict and cost ----

/// Dimensionalities that hit every code field width: 8 bits (d ≤ 8), 7
/// (9), 4 (16), 3 (17), and 2 bits over a 32-criterion subset (33, 65).
const CODE_DIMS: [usize; 10] = [1, 2, 4, 7, 8, 9, 16, 17, 33, 65];

/// A candidate with something to decide: a fresh row, an exact copy
/// of a held one (the `Equal` verdict), or a held row moved down
/// (a dominator exists) or up (victims exist) on some coordinates.
fn candidate(rng: &mut Rng, held: &[Vec<f64>], d: usize) -> Vec<f64> {
    if held.is_empty() || rng.usize_below(4) == 0 {
        return hostile_key(rng, d);
    }
    let mut key = held[rng.usize_below(held.len())].clone();
    let step = match rng.usize_below(3) {
        0 => return key,
        1 => -1.0,
        _ => 1.0,
    };
    for v in &mut key {
        if rng.usize_below(3) == 0 {
            *v += step * (v.abs() * 0.5 + 1.0); // ±∞ and NaN stay put
        }
    }
    key
}

/// Is `e ≥ k` on every criterion / `e > k` on some — the exact lane test
/// of the block kernels. (With a NaN on either side `ge` fails, so the
/// lane decides nothing; without NaNs this is [`dom_rel`].)
fn ge_gt(e: &[f64], k: &[f64]) -> (bool, bool) {
    let ge = e.iter().zip(k).all(|(x, y)| x >= y);
    let gt = e.iter().zip(k).any(|(x, y)| x > y);
    if !e.iter().chain(k).any(|v| v.is_nan()) {
        let rel = dom_rel(e, k);
        assert_eq!(ge && gt, rel == DomRel::Dominates);
        assert_eq!(ge && !gt, rel == DomRel::Equal);
    }
    (ge, gt)
}

/// The block windows without level codes: entries in insertion order,
/// cut into blocks of [`BLOCK_LANES`]; a block is skipped on its
/// max/min-coordinate or strict score bound, otherwise all its lanes
/// are charged to `lanes` and tested exactly in lane order.
#[derive(Default)]
struct Model {
    rows: Vec<Vec<f64>>,
    scores_rose: bool,
}

impl Model {
    fn insert(&mut self, key: &[f64]) {
        if let Some(last) = self.rows.last() {
            self.scores_rose |= key_score(key) > key_score(last);
        }
        self.rows.push(key.to_vec());
    }

    fn clear(&mut self) {
        *self = Model::default();
    }

    /// Largest of `values` by `>` from `-inf`, as the summaries are kept:
    /// a NaN never enters one.
    fn highest(values: impl Iterator<Item = f64>) -> f64 {
        values.fold(f64::NEG_INFINITY, |m, v| if v > m { v } else { m })
    }

    fn lowest(values: impl Iterator<Item = f64>) -> f64 {
        values.fold(f64::INFINITY, |m, v| if v < m { v } else { m })
    }

    fn max_score(block: &[Vec<f64>]) -> f64 {
        Self::highest(block.iter().map(|e| key_score(e)))
    }

    /// Could an entry of `block` be ≥ `key` everywhere? Not if `key`
    /// outscores the block or beats its maximum on some criterion.
    fn may_beat(block: &[Vec<f64>], key: &[f64]) -> bool {
        let outscores = Self::max_score(block) < key_score(key);
        let beats_max = |c: usize| key[c] > Self::highest(block.iter().map(|e| e[c]));
        !outscores && !(0..key.len()).any(beats_max)
    }

    /// The mirror image, for entries `key` could dominate.
    fn may_fall(block: &[Vec<f64>], key: &[f64]) -> bool {
        let underscores = Self::lowest(block.iter().map(|e| key_score(e))) > key_score(key);
        let under_min = |c: usize| key[c] < Self::lowest(block.iter().map(|e| e[c]));
        !underscores && !(0..key.len()).any(under_min)
    }

    fn probe(&self, key: &[f64]) -> (BlockVerdict, ProbeCost) {
        let mut cost = ProbeCost::default();
        let blocks: Vec<&[Vec<f64>]> = self.rows.chunks(BLOCK_LANES).collect();
        for (b, block) in blocks.iter().enumerate() {
            if !self.scores_rose && Self::max_score(block) < key_score(key) {
                cost.blocks_skipped += (blocks.len() - b) as u64;
                break;
            }
            if !Self::may_beat(block, key) {
                cost.blocks_skipped += 1;
                continue;
            }
            cost.lanes += block.len() as u64;
            for e in *block {
                cost.comparisons += 1;
                match ge_gt(e, key) {
                    (true, true) => return (BlockVerdict::Dominated, cost),
                    (true, false) => return (BlockVerdict::Equal, cost),
                    _ => {}
                }
            }
        }
        (BlockVerdict::Incomparable, cost)
    }

    fn probe_prefix(&self, key: &[f64], prefix: usize) -> (bool, ProbeCost) {
        let mut cost = ProbeCost::default();
        for (b, block) in self.rows.chunks(BLOCK_LANES).enumerate() {
            if b * BLOCK_LANES >= prefix {
                break;
            }
            // summaries cover the whole block, lanes only the prefix
            if !Self::may_beat(block, key) {
                cost.blocks_skipped += 1;
                continue;
            }
            let visible = &block[..block.len().min(prefix - b * BLOCK_LANES)];
            cost.lanes += visible.len() as u64;
            for e in visible {
                cost.comparisons += 1;
                if ge_gt(e, key) == (true, true) {
                    return (true, cost);
                }
            }
        }
        (false, cost)
    }

    /// Returns the verdict, the cost, and the evicted positions in the
    /// order a `Vec::swap_remove` mirror must apply them (already
    /// applied here).
    fn probe_replace(&mut self, key: &[f64]) -> (bool, ProbeCost, Vec<usize>) {
        let mut cost = ProbeCost::default();
        let mut victims = Vec::new();
        for (b, block) in self.rows.chunks(BLOCK_LANES).enumerate() {
            let (beat, fall) = (Self::may_beat(block, key), Self::may_fall(block, key));
            if !beat && !fall {
                cost.blocks_skipped += 1;
                continue;
            }
            cost.lanes += block.len() as u64;
            if let Some(l) = block.iter().position(|e| ge_gt(e, key) == (true, true)) {
                cost.comparisons += l as u64 + 1;
                return (true, cost, Vec::new());
            }
            cost.comparisons += block.len() as u64;
            victims.extend(
                (0..block.len())
                    .filter(|&l| ge_gt(key, &block[l]) == (true, true))
                    .map(|l| b * BLOCK_LANES + l),
            );
        }
        victims.reverse();
        for &pos in &victims {
            self.rows.swap_remove(pos);
        }
        (false, cost, victims)
    }
}

/// Append-only shape: every insert length from 1 to 140 — across the
/// recalibrations at 2, 4, …, 128 and the block boundaries at 16, 32, … —
/// in score order (cutoff armed) and in generation order, then `clear`
/// and a second group on another scale (the DIFF-group / pass boundary).
#[test]
fn coded_block_window_equals_the_uncoded_model_in_verdict_and_cost() {
    for d in CODE_DIMS {
        for presorted in [true, false] {
            let mut rng = Rng::seed_from_u64(2003 + d as u64);
            let mut block = BlockWindow::new(d, usize::MAX);
            let mut model = Model::default();
            for group in 0..2 {
                let mut rows: Vec<Vec<f64>> = (0..140).map(|_| hostile_key(&mut rng, d)).collect();
                if group == 1 {
                    rows.iter_mut().flatten().for_each(|v| *v = *v * 1e-3 + 5.0);
                }
                if presorted {
                    rows.sort_by(|a, b| key_score(b).total_cmp(&key_score(a)));
                }
                for row in &rows {
                    block.insert(row);
                    model.insert(row);
                    let len = model.rows.len();
                    let label = format!("d={d} presorted={presorted} group={group} len={len}");
                    assert_eq!(block.is_monotone(), !model.scores_rose, "{label}");
                    for _ in 0..6 {
                        let key = candidate(&mut rng, &model.rows, d);
                        assert_eq!(block.probe(&key), model.probe(&key), "{label}: {key:?}");
                        // prefixes that cut a block, end on one, and cover all
                        for prefix in [len / 2, len - len % BLOCK_LANES, len.saturating_sub(1), len]
                        {
                            assert_eq!(
                                block.probe_prefix(&key, prefix),
                                model.probe_prefix(&key, prefix),
                                "{label}: prefix {prefix} of {key:?}"
                            );
                        }
                    }
                }
                block.clear();
                model.clear();
            }
        }
    }
}

/// Replace shape, under the BNL protocol (so the window stays pairwise
/// non-dominating) plus direct `remove_at` evictions at the ends and in
/// the middle: verdict, cost and the reported removal order must equal
/// the model's, and so must every later probe — which they only can if
/// each moved entry took its code along.
#[test]
fn coded_replace_window_equals_the_uncoded_model_in_verdict_cost_and_evictions() {
    for d in CODE_DIMS {
        let mut rng = Rng::seed_from_u64(7 + d as u64);
        let mut block = ReplaceWindow::new(d);
        let mut model = Model::default();
        let mut removed = Vec::new();
        for step in 0..1500 {
            let label = format!("d={d} step={step}");
            let len = model.rows.len();
            if len > 0 && rng.usize_below(8) == 0 {
                let pos = match rng.usize_below(3) {
                    0 => 0,
                    1 => len - 1,
                    _ => rng.usize_below(len),
                };
                block.remove_at(pos);
                model.rows.swap_remove(pos);
            } else if len > 0 && rng.usize_below(200) == 0 {
                block.clear();
                model.clear();
            } else {
                let key = candidate(&mut rng, &model.rows, d);
                let (dominated, cost) = block.probe_replace(&key, &mut removed);
                let (expect, expect_cost, expect_removed) = model.probe_replace(&key);
                assert_eq!((dominated, cost), (expect, expect_cost), "{label}: {key:?}");
                assert_eq!(removed, expect_removed, "{label}: evictions by {key:?}");
                if !dominated {
                    block.push(&key);
                    model.rows.push(key);
                }
            }
            assert_eq!(block.len(), model.rows.len(), "{label}");
        }
    }
}
