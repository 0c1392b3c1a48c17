//! Differential property test for the columnar block kernels: on every
//! workload distribution, dimensionality 2..=10, and MIN/MAX orientation
//! mix, the batched [`BlockWindow`]/[`ReplaceWindow`] verdicts must equal
//! the scalar [`dom_rel`] reference — and the model comparison charge of
//! a probe never exceeds the window's length, hence never the scalar
//! charge of a probe that finds nothing (unvisited buckets, skipped
//! blocks and screened lanes provably contain no decisive entry). The
//! append-only window is driven both as every caller gets it and with an
//! early first split, so the bucket directory (DESIGN.md §12.6) is
//! re-filed several times under each grid point.
//!
//! The second half pins the level-code screen (DESIGN.md §12.5) to a
//! [`Model`] of the block windows that has no codes at all — 16-entry
//! blocks, summary skips, an exact test of every lane, the charging rule
//! of §12.4 — and requires verdict **and** [`ProbeCost`] to be equal
//! probe for probe, over the dimensionalities and values that are hard
//! on a quantizer.

use skyline::core::dominance_block::{
    key_score, BlockVerdict, BlockWindow, PrefixArena, ProbeCost, ReplaceWindow, BLOCK_LANES,
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
/// window order decides; the charge is entries scanned up to it. Also
/// says whether the window holds *both* a dominator of `key` and an
/// equal key — only a window that is not pairwise non-dominating can,
/// and there which of the two a probe meets first is its visiting order.
fn scalar_probe(window: &[&Vec<f64>], key: &[f64]) -> (BlockVerdict, u64, bool) {
    let (mut first, mut comparisons) = (None, 0u64);
    let (mut dominator, mut equal) = (false, false);
    for entry in window {
        let (ge, gt) = ge_gt(entry, key);
        dominator |= ge && gt;
        equal |= ge && !gt;
        if first.is_none() {
            comparisons += 1;
            if ge {
                first = Some(if gt {
                    BlockVerdict::Dominated
                } else {
                    BlockVerdict::Equal
                });
            }
        }
    }
    (
        first.unwrap_or(BlockVerdict::Incomparable),
        comparisons,
        dominator && equal,
    )
}

/// The two windows every append-only differential drives: the one every
/// caller gets (one arena at these sizes) and one whose directory first
/// splits at 16 entries and re-files at 32, 64, 128, …
fn windows(d: usize) -> [(&'static str, BlockWindow); 2] {
    [
        ("flat", BlockWindow::new(d, usize::MAX)),
        (
            "partitioned",
            BlockWindow::with_first_split(d, usize::MAX, 16),
        ),
    ]
}

/// Probe `rows` in the order given against the survivors so far, on both
/// [`windows`] and the scalar reference. The reference decides what is
/// inserted. Returns each window's per-probe costs.
///
/// What must hold, probe for probe: the verdict is the reference's —
/// except that a window holding both a dominator and an equal key (the
/// insert sequence was no topological sort) may report either; the
/// charge never exceeds the window's length, hence never the scalar
/// charge when nothing decides; and the totals of a stream never exceed
/// the scalar totals when `cheaper_in_total` (a presorted stream, where
/// the strongest entries come first in every bucket).
fn drive(rows: &[&Vec<f64>], label: &str, cheaper_in_total: bool) -> [Vec<ProbeCost>; 2] {
    let d = rows[0].len();
    let mut scalar: Vec<&Vec<f64>> = Vec::new();
    let mut blocks = windows(d);
    let mut costs = [Vec::new(), Vec::new()];
    let mut scalar_total = 0u64;
    for (i, key) in rows.iter().enumerate() {
        let (expect, scalar_cost, either) = scalar_probe(&scalar, key);
        scalar_total += scalar_cost;
        for ((name, block), costs) in blocks.iter_mut().zip(&mut costs) {
            let (verdict, cost) = block.probe(key);
            if either {
                assert_ne!(
                    verdict,
                    BlockVerdict::Incomparable,
                    "{label} {name}: row {i}"
                );
            } else {
                assert_eq!(verdict, expect, "{label} {name}: verdict for row {i}");
            }
            assert!(
                cost.comparisons <= scalar.len() as u64 && cost.lanes <= scalar.len() as u64,
                "{label} {name}: row {i} charged {cost:?} against {} entries",
                scalar.len()
            );
            if verdict == BlockVerdict::Incomparable {
                assert!(cost.comparisons <= scalar_cost, "{label} {name}: row {i}");
            }
            costs.push(cost);
            if expect != BlockVerdict::Dominated {
                block.insert(key);
            }
        }
        if expect != BlockVerdict::Dominated {
            scalar.push(key);
        }
    }
    for ((name, block), costs) in blocks.iter().zip(&costs) {
        assert_eq!(block.len(), scalar.len(), "{label} {name}: survivor count");
        let total: u64 = costs.iter().map(|c| c.comparisons).sum();
        assert!(
            !cheaper_in_total || total <= scalar_total,
            "{label} {name}: stream charged {total} > scalar {scalar_total}"
        );
    }
    let (_, partitioned) = &blocks[1];
    assert!(
        scalar.len() < 32 || partitioned.buckets_in_use() > 1,
        "{label}: {} survivors in one bucket",
        scalar.len()
    );
    costs
}

/// SFS-shape agreement: insert in score-descending order (the Theorem-4
/// cutoff armed), probing each candidate against the survivors so far.
/// Verdicts and survivor sets must match the scalar reference, and the
/// stream must cost no more than the scalar stream.
#[test]
fn block_window_matches_scalar_verdicts_presorted() {
    grid(|rows, label| {
        let mut order: Vec<&Vec<f64>> = rows.iter().collect();
        order.sort_by(|a, b| key_score(b).total_cmp(&key_score(a)));
        drive(&order, label, true);
    });
}

/// Same agreement with the cutoff disarmed: insertion in generation
/// order, where scores are not monotone, so only the coarse codes and
/// the per-block summary screens prune — and where the window is not the
/// pairwise non-dominating set SFS keeps, so a key with both a dominator
/// and an equal in it may meet either first.
#[test]
fn block_window_matches_scalar_verdicts_unsorted() {
    grid(|rows, label| {
        let order: Vec<&Vec<f64>> = rows.iter().collect();
        drive(&order, label, false);
    });
}

/// The partitioned window on keys that are hard on cuts and quantizers —
/// NaN, ±∞, ±1e300, `i32` extremes, constant and two-valued columns,
/// runs of exact duplicates — at the dimensionalities that hit every
/// coarse layout (256, 16, 4, 3 and 2 levels; above 8 criteria only the
/// first 8 are coded), 600 keys each so the directory re-files at 16,
/// 32, …, 512. Presorted and not: verdicts and survivors as the scalar
/// reference has them, and every counter a function of the insert
/// sequence — a second run charges every probe exactly the same.
#[test]
fn partitioned_window_matches_scalar_on_hostile_keys_past_several_splits() {
    for d in [1usize, 2, 4, 5, 7, 9, 12] {
        for presorted in [true, false] {
            let mut rng = Rng::seed_from_u64(24 + d as u64);
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for i in 0..600 {
                let duplicate = i % 7 == 3 && !rows.is_empty();
                let key = if duplicate {
                    rows[rng.usize_below(rows.len())].clone()
                } else {
                    hostile_key(&mut rng, d)
                };
                rows.push(key);
            }
            let mut order: Vec<&Vec<f64>> = rows.iter().collect();
            if presorted {
                order.sort_by(|a, b| key_score(b).total_cmp(&key_score(a)));
            }
            let label = format!("hostile d={d} presorted={presorted}");
            let first = drive(&order, &label, false);
            let second = drive(&order, &label, false);
            assert_eq!(first, second, "{label}: counters must repeat exactly");
        }
    }
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

        let mut arena = PrefixArena::new(d);
        for key in &sorted {
            arena.push(key);
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
        // a NaN score counts as a rise: it advertises no block max
        let last = self
            .rows
            .last()
            .map_or(f64::INFINITY, |last| key_score(last));
        self.scores_rose |= key_score(key) > last || key_score(key).is_nan();
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
                // the prefix arena has no `clear`: one per group
                let mut arena = PrefixArena::new(d);
                let mut rows: Vec<Vec<f64>> = (0..140).map(|_| hostile_key(&mut rng, d)).collect();
                if group == 1 {
                    rows.iter_mut().flatten().for_each(|v| *v = *v * 1e-3 + 5.0);
                }
                if presorted {
                    rows.sort_by(|a, b| key_score(b).total_cmp(&key_score(a)));
                }
                for row in &rows {
                    block.insert(row);
                    arena.push(row);
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
                                arena.probe_prefix(&key, prefix),
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
