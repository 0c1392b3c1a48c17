//! Columnar block windows: a level-coded dominance screen over blocked
//! key columns, with per-block pruning bounds (DESIGN.md §12).
//!
//! Every window user in this crate — external SFS/BNL, the
//! in-memory algorithms, and the parallel filter's prefix merge — spends
//! its inner loop testing one candidate key against many window entries.
//! The scalar path ([`crate::external`]'s `KeyWindow`, kept as the
//! differential reference) walks entries row-at-a-time through
//! [`dom_rel`](crate::dom_rel), a branchy, short-circuiting loop. Here
//! the window is stored struct-of-arrays in fixed blocks of
//! [`BLOCK_LANES`] entries (keys are already *oriented* all-max by
//! [`SkylineSpec::key_of`](crate::SkylineSpec::key_of), so MIN criteria
//! folded away at insert time), and each block carries two
//! summaries that let a probe skip it wholesale:
//!
//! * **Per-criterion maxima.** If the candidate strictly beats a block's
//!   max on any criterion, no entry in the block can dominate *or equal*
//!   the candidate — sound because every entry is ≤ the max coordinate-wise.
//! * **Score bound (Theorem 4).** Every dominator of the candidate has a
//!   strictly greater value under any strictly monotone scoring; we use
//!   the oriented key sum. A block whose max score is strictly below the
//!   candidate's score holds no dominator and no equal key (equal keys
//!   sum equal). When insertion scores have been non-increasing (tracked
//!   per window), block max-scores are non-increasing too, and the first
//!   block falling below the candidate ends the whole scan.
//!
//! Floating-point note: the f64 sum is evaluated left-to-right and
//! rounding is monotone, so `a` dominating `b` still implies
//! `score(a) >= score(b)` after rounding. All score pruning is therefore
//! *strict* (`<`), never `<=`. NaN coordinates are conservatively safe:
//! a NaN never compares greater, so summaries simply fail to advertise
//! the entry and no skip condition can fire against a block it could have
//! decided — and a NaN-keyed entry can neither dominate nor equal
//! anything under [`dom_rel`](crate::dom_rel) anyway.
//!
//! Inside a block that survives the summaries, no f64 is compared until a
//! **level code** says it might matter (§12.5). Every entry carries a
//! packed `u64` of per-criterion quantized levels; the quantizer is
//! monotone non-decreasing, so `entry ≥ key` coordinate-wise implies
//! `code(entry) ≥ code(key)` field-wise. One SWAR subtraction per lane
//! tests all fields at once, and only the lanes that pass get the exact
//! f64 confirm, in lane order. The screen is a necessary condition, so
//! the first decisive lane of an arena — and with it every verdict and
//! every charge — is the one an exact scan of all its lanes finds.
//!
//! Past 2 048 entries the append-only [`BlockWindow`] is a **bucket
//! directory** (§12.6): entries are filed under a coarse version of the
//! same code — per criterion, a level among a few quantile cuts of the
//! window's contents — in up to 256 arenas sharing the one quantizer,
//! and a probe visits only the buckets at or above the key's level on
//! every coarse field, by the same monotonicity argument. A 256-bit set
//! of the non-empty buckets, ANDed with a precomputed set per field and
//! level, names them highest first without a walk over the others.
//! Verdicts cannot change (what is asked is whether *some* entry
//! dominates or equals the key); charges do, and fall. Inside a bucket
//! every block also carries the field-wise maximum of its lanes' codes,
//! and one SWAR test of it rules a block out before the f64 summaries
//! are read — only ever a block they would rule out too.
//!
//! Model *comparisons* are charged entry-at-a-time, up to and including
//! the first decisive entry in visiting order — never more than the
//! window holds, hence never more than the scalar kernel charges a probe
//! that finds nothing (§12.4) — while [`ProbeCost::lanes`] records the
//! lanes screened and [`ProbeCost::blocks_skipped`] the blocks ruled out
//! by a summary or code bound, the score cutoff, or — every one of them,
//! charged when the probe starts — their bucket's code.

// Hot path: typed errors only, nothing discarded (DESIGN.md §8.1).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

/// Entries per block. Sixteen f64 lanes per criterion column = two cache
/// lines, as are the block's sixteen level codes; small enough that
/// per-block summaries prune at fine grain.
pub const BLOCK_LANES: usize = 16;

/// The oriented key sum — Theorem 4's positive linear scoring with unit
/// weights, the strictly monotone score all block-level bounds use.
#[inline]
#[must_use]
pub fn key_score(key: &[f64]) -> f64 {
    key.iter().sum()
}

/// What one block-window operation cost, in both model and machine units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCost {
    /// Model dominance comparisons charged: entries of visited,
    /// non-skipped blocks scanned up to and including the first decisive
    /// entry. Never exceeds the window's length — so never what the
    /// scalar kernel charges a probe that finds nothing.
    pub comparisons: u64,
    /// Window-entry lanes screened: the full (visible) population of
    /// every non-skipped block, each tested once by level code. How many
    /// of them went on to the exact f64 confirm is not part of the model.
    pub lanes: u64,
    /// Blocks pruned whole by a summary, code or score bound, or — a
    /// bucket's worth at a time, for every bucket ruled out whether the
    /// probe would have reached it or not — by a coarse code (§12.6).
    pub blocks_skipped: u64,
}

impl ProbeCost {
    /// Component-wise accumulation.
    #[inline]
    pub fn absorb(&mut self, other: ProbeCost) {
        self.comparisons += other.comparisons;
        self.lanes += other.lanes;
        self.blocks_skipped += other.blocks_skipped;
    }
}

/// Outcome of probing an append-only block window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockVerdict {
    /// Some window entry strictly dominates the candidate.
    Dominated,
    /// Some window entry has exactly the candidate's key. (Sound as an
    /// early verdict because window entries are pairwise non-dominating:
    /// nothing can dominate a key equal to one of them.)
    Equal,
    /// The candidate is incomparable with every entry.
    Incomparable,
}

/// Criteria a level code covers. Beyond this many, the code tests the
/// first `MAX_CODED` only: a necessary condition on a subset of the
/// criteria is still a necessary condition.
const MAX_CODED: usize = 32;

/// Window length at which the quantizer is first calibrated; it is
/// re-calibrated at every doubling from here.
const FIRST_CALIBRATION: usize = 2;

/// The per-criterion level quantizer and the field layout of a code:
/// criterion `c` occupies bits `c·bits .. (c+1)·bits`, the top bit of
/// each field a guard bit that levels never reach.
struct Coder {
    /// Field width, guard bit included: `⌊64 / coded⌋`, at most 8.
    bits: usize,
    /// The highest level, `2^(bits−1) − 1`.
    top: u64,
    /// The guard bit of every field — `H` of the SWAR test.
    guard: u64,
    /// `(lo, scale)` per coded criterion: level = `⌊(v − lo)·scale⌋`
    /// clamped to `0..=top`. `scale` is finite and ≥ 0, which is all
    /// soundness needs: `v ↦ (v − lo)·scale` is then monotone in f64.
    axes: Vec<(f64, f64)>,
    /// Window length at which the quantizer is next re-derived.
    next_calibration: usize,
}

impl Coder {
    fn new(d: usize) -> Self {
        let coded = d.min(MAX_CODED);
        let bits = (64 / coded).min(8);
        Coder {
            bits,
            top: (1 << (bits - 1)) - 1,
            guard: (0..coded).fold(0, |h, c| h | (1 << (c * bits + bits - 1))),
            axes: vec![(0.0, 0.0); coded],
            next_calibration: FIRST_CALIBRATION,
        }
    }

    /// Back to the zero quantizer and the start of the schedule.
    fn reset(&mut self) {
        self.axes.fill((0.0, 0.0));
        self.next_calibration = FIRST_CALIBRATION;
    }

    /// Is a window that has just reached `len` entries due for
    /// calibration? Saying yes schedules the next one at twice `len`.
    #[inline]
    fn due(&mut self, len: usize) -> bool {
        let due = len == self.next_calibration;
        if due {
            self.next_calibration = len * 2;
        }
        due
    }

    /// Re-derive each coded criterion's quantizer from the finite values
    /// `arenas` hold now. Called at doublings of the window, so the work
    /// is amortized O(1) per insert, and a function of the insert
    /// sequence alone.
    fn fit(&mut self, arenas: &[Arena]) {
        let levels = (self.top + 1) as f64;
        for c in 0..self.axes.len() {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for a in arenas {
                for b in 0..a.blocks() {
                    for &v in a.column(b, c).iter().filter(|v| v.is_finite()) {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
            }
            // A constant or empty column, or a range that overflows f64,
            // gets the zero quantizer: every value on level 0.
            let scale = levels / (hi - lo);
            self.axes[c] = if scale.is_finite() && scale > 0.0 {
                (lo, scale)
            } else {
                (0.0, 0.0)
            };
        }
    }

    /// [`Coder::fit`], then every code of `arenas` recomputed under the
    /// new quantizer.
    fn calibrate(&mut self, arenas: &mut [Arena]) {
        self.fit(arenas);
        for a in arenas {
            a.recode(self);
        }
    }

    /// Level of value `v` on coded criterion `c`, already shifted into
    /// its field. The `as` cast saturates: NaN and anything below `lo`
    /// (−∞ included) land on level 0, anything far above on `top`.
    #[inline]
    fn field(&self, c: usize, v: f64) -> u64 {
        let (lo, scale) = self.axes[c];
        let level = (((v - lo) * scale) as u64).min(self.top);
        // A level reaching its guard bit would make the SWAR test pass
        // lanes it should not — only a wider candidate set, but silently.
        debug_assert!(level < 1 << (self.bits - 1), "level overflows its field");
        level << (c * self.bits)
    }

    /// The packed code of a whole key.
    #[inline]
    fn code(&self, key: &[f64]) -> u64 {
        (0..self.axes.len()).fold(0, |code, c| code | self.field(c, key[c]))
    }

    /// The field-wise maximum of two codes. The SWAR test leaves the
    /// guard bit of every field where `a ≥ b`; subtracting that bit's
    /// copy shifted to the bottom of the field turns it into the field's
    /// level bits, which pick `a` there and `b` everywhere else.
    #[inline]
    fn max(&self, a: u64, b: u64) -> u64 {
        let ge = ((a | self.guard) - b) & self.guard;
        let pick_a = ge - (ge >> (self.bits - 1));
        (a & pick_a) | (b & !pick_a)
    }
}

/// Bit `l` set for every lane `l < n`.
#[inline]
fn first_lanes(n: usize) -> u16 {
    debug_assert!(n <= BLOCK_LANES);
    ((1u32 << n) - 1) as u16
}

/// Bit `l` set for every lane of `codes` that `pass`es.
#[inline]
fn lanes_where(codes: &[u64], pass: impl Fn(u64) -> bool) -> u16 {
    codes
        .iter()
        .enumerate()
        .fold(0, |m, (l, &w)| m | (u16::from(pass(w)) << l))
}

/// Blocked storage shared by every window shape: three contiguous arenas
/// (key columns, block summaries, level codes) indexed by block. Entries
/// are dense in position order, so every block but the last is full and
/// a block's population follows from `len`. The quantizer behind the
/// codes belongs to the window, which may file its entries in many
/// arenas under one [`Coder`].
struct Arena {
    d: usize,
    len: usize,
    /// Block `b`, criterion `c`, lane `l` at `(b·d + c)·BLOCK_LANES + l`.
    /// Unused lanes hold `-inf`, which can never dominate, equal, or
    /// raise a max.
    cols: Vec<f64>,
    /// Per block, `2d + 2` values: the per-criterion maxima over the live
    /// lanes, the maximum [`key_score`], then the minima and the minimum
    /// score (the candidate-dominates-entry direction).
    sums: Vec<f64>,
    /// One level code per lane, position-aligned with `cols`; 0 in
    /// unused lanes.
    codes: Vec<u64>,
    /// Per block, the field-wise maximum of its live lanes' codes: a
    /// block whose bound is not ≥ a key's code in every field holds no
    /// lane that can pass the screen (§12.6).
    bounds: Vec<u64>,
}

impl Arena {
    /// An empty arena; nothing is allocated until the first push.
    fn new(d: usize) -> Self {
        debug_assert!(d > 0);
        Arena {
            d,
            len: 0,
            cols: Vec::new(),
            sums: Vec::new(),
            codes: Vec::new(),
            bounds: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.cols.clear();
        self.sums.clear();
        self.codes.clear();
        self.bounds.clear();
    }

    fn blocks(&self) -> usize {
        self.len.div_ceil(BLOCK_LANES)
    }

    /// Live lanes of block `b`.
    #[inline]
    fn block_len(&self, b: usize) -> usize {
        (self.len - b * BLOCK_LANES).min(BLOCK_LANES)
    }

    #[inline]
    fn col_at(&self, pos: usize, c: usize) -> usize {
        (pos / BLOCK_LANES * self.d + c) * BLOCK_LANES + pos % BLOCK_LANES
    }

    /// Value of criterion `c` of the entry at position `pos`.
    #[inline]
    fn value(&self, pos: usize, c: usize) -> f64 {
        self.cols[self.col_at(pos, c)]
    }

    /// Copy the key of the entry at position `pos` into `out`.
    fn key_into(&self, pos: usize, out: &mut Vec<f64>) {
        debug_assert!(pos < self.len);
        out.clear();
        out.extend((0..self.d).map(|c| self.value(pos, c)));
    }

    /// All sixteen lanes of criterion `c` in block `b`, `-inf` padding
    /// included.
    #[inline]
    fn column(&self, b: usize, c: usize) -> &[f64] {
        &self.cols[(b * self.d + c) * BLOCK_LANES..][..BLOCK_LANES]
    }

    #[inline]
    fn block_codes(&self, b: usize) -> &[u64] {
        &self.codes[b * BLOCK_LANES..(b + 1) * BLOCK_LANES]
    }

    /// `(maxs, max_score, mins, min_score)` of block `b`.
    #[inline]
    fn summaries(&self, b: usize) -> (&[f64], f64, &[f64], f64) {
        let d = self.d;
        let s = &self.sums[b * (2 * d + 2)..(b + 1) * (2 * d + 2)];
        (&s[..d], s[d], &s[d + 1..2 * d + 1], s[2 * d + 1])
    }

    /// Fold the entry at `pos` into its block's summaries.
    fn summarize(&mut self, pos: usize) {
        let d = self.d;
        let mut score = 0.0;
        let s = pos / BLOCK_LANES * (2 * d + 2);
        for c in 0..d {
            let v = self.value(pos, c);
            score += v;
            if v > self.sums[s + c] {
                self.sums[s + c] = v;
            }
            if v < self.sums[s + d + 1 + c] {
                self.sums[s + d + 1 + c] = v;
            }
        }
        if score > self.sums[s + d] {
            self.sums[s + d] = score;
        }
        if score < self.sums[s + 2 * d + 1] {
            self.sums[s + 2 * d + 1] = score;
        }
    }

    /// Recompute block `b`'s summaries and code bound from its live
    /// lanes (after a removal).
    fn rebuild_summaries(&mut self, b: usize, coder: &Coder) {
        let d = self.d;
        let s = b * (2 * d + 2);
        self.sums[s..=s + d].fill(f64::NEG_INFINITY);
        self.sums[s + d + 1..s + 2 * d + 2].fill(f64::INFINITY);
        for l in 0..self.block_len(b) {
            self.summarize(b * BLOCK_LANES + l);
        }
        self.rebound(b, coder);
    }

    /// Recompute block `b`'s code bound. Padding lanes hold code 0, which
    /// raises no field.
    fn rebound(&mut self, b: usize, coder: &Coder) {
        self.bounds[b] = self.block_codes(b).iter().fold(0, |m, &w| coder.max(m, w));
    }

    /// Append `key`, coded under the window's quantizer `coder`.
    fn push(&mut self, key: &[f64], coder: &Coder) {
        debug_assert_eq!(key.len(), self.d);
        let (d, pos) = (self.d, self.len);
        if pos.is_multiple_of(BLOCK_LANES) {
            self.cols
                .resize(self.cols.len() + d * BLOCK_LANES, f64::NEG_INFINITY);
            self.sums.resize(self.sums.len() + d + 1, f64::NEG_INFINITY);
            self.sums.resize(self.sums.len() + d + 1, f64::INFINITY);
            self.codes.resize(self.codes.len() + BLOCK_LANES, 0);
            self.bounds.push(0);
        }
        for (c, &v) in key.iter().enumerate() {
            let at = self.col_at(pos, c);
            self.cols[at] = v;
        }
        let code = coder.code(key);
        self.codes[pos] = code;
        let bound = &mut self.bounds[pos / BLOCK_LANES];
        *bound = coder.max(*bound, code);
        self.len += 1;
        self.summarize(pos);
    }

    /// Recompute every code and code bound under `coder` (after a
    /// calibration). Padding lanes hold `-inf`, which every quantizer
    /// sends to level 0.
    fn recode(&mut self, coder: &Coder) {
        self.codes.fill(0);
        for c in 0..coder.axes.len() {
            for b in 0..self.blocks() {
                let codes = &mut self.codes[b * BLOCK_LANES..(b + 1) * BLOCK_LANES];
                let column = &self.cols[(b * self.d + c) * BLOCK_LANES..][..BLOCK_LANES];
                for (code, &v) in codes.iter_mut().zip(column) {
                    *code |= coder.field(c, v);
                }
            }
        }
        for b in 0..self.blocks() {
            self.rebound(b, coder);
        }
    }

    /// Remove the entry at `pos` by moving the last entry into its place
    /// (`Vec::swap_remove` semantics), code included; the summaries and
    /// code bounds of the touched blocks are rebuilt exactly.
    fn swap_remove(&mut self, pos: usize, coder: &Coder) {
        debug_assert!(pos < self.len);
        let last = self.len - 1;
        for c in 0..self.d {
            let (from, to) = (self.col_at(last, c), self.col_at(pos, c));
            self.cols[to] = self.cols[from];
            self.cols[from] = f64::NEG_INFINITY;
        }
        self.codes[pos] = self.codes[last];
        self.codes[last] = 0;
        self.len = last;
        let blocks = self.blocks();
        self.cols.truncate(blocks * self.d * BLOCK_LANES);
        self.sums.truncate(blocks * (2 * self.d + 2));
        self.codes.truncate(blocks * BLOCK_LANES);
        self.bounds.truncate(blocks);
        let (hole, tail) = (pos / BLOCK_LANES, last / BLOCK_LANES);
        if tail < blocks {
            self.rebuild_summaries(tail, coder);
        }
        if hole != tail {
            self.rebuild_summaries(hole, coder);
        }
    }

    // The six per-block steps below are `inline(always)`: left to its
    // own judgement LLVM keeps them as calls inside the probe loops, which
    // measured 20–25 % more filter time on the 100k × 7 probe stream.

    /// Can any entry of block `b` dominate or equal `key`? (Max-coordinate
    /// and strict score screens; both conservative.)
    #[inline(always)]
    fn may_beat(&self, b: usize, key: &[f64], score: f64) -> bool {
        let (maxs, max_score, _, _) = self.summaries(b);
        if max_score < score {
            return false;
        }
        !key.iter().zip(maxs).any(|(&v, &max)| v > max)
    }

    /// Can any entry of block `b` be dominated by `key`? (Min-coordinate
    /// and strict score screens, mirror image of [`Arena::may_beat`].)
    #[inline(always)]
    fn may_fall(&self, b: usize, key: &[f64], score: f64) -> bool {
        let (_, _, mins, min_score) = self.summaries(b);
        if min_score > score {
            return false;
        }
        !key.iter().zip(mins).any(|(&v, &min)| v < min)
    }

    /// Can block `b` hold a lane whose code is ≥ `t` in every field? Its
    /// bound is ≥ `t` wherever some lane's code is — one SWAR test for
    /// the block.
    #[inline(always)]
    fn bound_at_least(&self, b: usize, t: u64, h: u64) -> bool {
        ((self.bounds[b] | h) - t) & h == h
    }

    /// Lanes of block `b` whose code is ≥ `t` in every field: the only
    /// ones that can hold an entry ≥ the key coded `t` coordinate-wise.
    /// With `h` the coder's guard bits, per field `(w | H) − t` keeps its
    /// guard bit exactly when `w ≥ t`, and never borrows from the field
    /// above.
    #[inline(always)]
    fn lanes_at_least(&self, b: usize, t: u64, h: u64) -> u16 {
        lanes_where(self.block_codes(b), |w| ((w | h) - t) & h == h)
    }

    /// Lanes of block `b` whose code is ≤ `t` in every field: the only
    /// ones that can hold an entry ≤ the key coded `t` coordinate-wise.
    #[inline(always)]
    fn lanes_at_most(&self, b: usize, t: u64, h: u64) -> u16 {
        lanes_where(self.block_codes(b), |w| ((t | h) - w) & h == h)
    }

    /// The exact test of one lane: is the entry ≥ `key` on every
    /// criterion, and is it ≤ `key` on every criterion? `(true, true)`
    /// is an equal key, `(true, false)` an entry that dominates `key`,
    /// `(false, true)` one that `key` dominates. A NaN on either side
    /// fails both.
    #[inline(always)]
    fn confirm(&self, b: usize, lane: usize, key: &[f64]) -> (bool, bool) {
        let block = &self.cols[b * self.d * BLOCK_LANES..(b + 1) * self.d * BLOCK_LANES];
        let (mut ge, mut le) = (true, true);
        for (&k, col) in key.iter().zip(block.chunks_exact(BLOCK_LANES)) {
            ge &= col[lane] >= k;
            le &= col[lane] <= k;
            if !(ge | le) {
                break;
            }
        }
        (ge, le)
    }
}

/// Iterate the set bits of a lane mask, lowest lane first.
#[inline]
fn lanes_of(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// Most buckets a window's directory holds (§12.6).
const MAX_BUCKETS: usize = 256;

/// Criteria a coarse code covers: the first eight, like a level code a
/// necessary condition on a subset of the criteria.
const MAX_COARSE: usize = 8;

/// Window length at which the directory first splits: eight entries to
/// the bucket of a full directory. Below it the window is one arena — a
/// split would trade its full blocks for as many nearly empty ones, and
/// at 1 024 the re-filing cost a 1 040-entry window 5 % of its query
/// (EXPERIMENTS.md "The first split"). It is a calibration doubling, and
/// the next ones re-file.
pub(crate) const FIRST_SPLIT: usize = 8 * MAX_BUCKETS;

/// The shape of the *coarse code*: per covered criterion, the entry's
/// level among `levels − 1` quantile cuts of the window's contents; the
/// levels name the bucket `Σ level_c · levels^c`.
#[derive(Clone, Copy)]
struct Coarse {
    /// Criteria covered: `min(d, 8)`.
    fields: usize,
    /// Levels per criterion: the largest `L` with `L^fields ≤ 256`.
    levels: usize,
}

impl Coarse {
    fn new(d: usize) -> Self {
        let fields = d.min(MAX_COARSE);
        let fits = |l: &usize| l.pow(fields as u32) <= MAX_BUCKETS;
        let levels = (2..).take_while(fits).last().unwrap_or(2);
        Coarse { fields, levels }
    }

    /// `at_least[c · levels + l]` for every field `c` and level `l`: the
    /// buckets whose level on `c` is ≥ `l`.
    fn at_least(self) -> Vec<Buckets> {
        let Coarse { fields, levels } = self;
        let buckets = levels.pow(fields as u32);
        (0..fields * levels)
            .map(|i| {
                let (radix, l) = (levels.pow((i / levels) as u32), i % levels);
                (0..buckets)
                    .filter(|b| b / radix % levels >= l)
                    .fold(Buckets::default(), Buckets::with)
            })
            .collect()
    }
}

/// A set of buckets, one bit each: bucket `b` is bit `b % 64` of word
/// `b / 64`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Buckets([u64; MAX_BUCKETS / 64]);

impl Buckets {
    /// The set with bucket `b` added.
    fn with(mut self, b: usize) -> Self {
        self.0[b / 64] |= 1 << (b % 64);
        self
    }

    fn and(mut self, other: Buckets) -> Self {
        for (w, o) in self.0.iter_mut().zip(other.0) {
            *w &= o;
        }
        self
    }

    fn minus(mut self, other: Buckets) -> Self {
        for (w, o) in self.0.iter_mut().zip(other.0) {
            *w &= !o;
        }
        self
    }

    fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The buckets of the set, highest first.
    #[inline]
    fn descending(self) -> impl Iterator<Item = usize> {
        let mut words = self.0;
        let mut i = words.len();
        std::iter::from_fn(move || loop {
            let w = words.get_mut(i.checked_sub(1)?)?;
            if *w == 0 {
                i -= 1;
                continue;
            }
            let bit = 63 - w.leading_zeros() as usize;
            *w &= !(1 << bit);
            return Some((i - 1) * 64 + bit);
        })
    }
}

/// Append-only columnar window — the SFS shape: entries are only ever
/// inserted (survivors are proven skyline) and the whole window clears
/// between passes or DIFF groups.
///
/// Past `FIRST_SPLIT` entries the window is a **bucket directory**
/// (DESIGN.md §12.6): every entry is filed under its coarse code, each
/// bucket is an `Arena` of the same blocks under the one shared
/// quantizer, and a probe visits only the buckets whose level is ≥ the
/// key's on every coarse field — the others cannot hold an entry ≥ the
/// key coordinate-wise, by the monotonicity argument of the level code.
/// A 256-bit set of the non-empty buckets, ANDed with one precomputed
/// set per field and level, names them without a walk over the rest.
/// Below the first split there is one bucket and the probe is the flat
/// scan. Cuts are re-derived and every entry re-filed at the doublings
/// where the quantizer is recalibrated anyway; a bucket keeps its
/// entries in insertion order throughout, so the Theorem-4 cutoff holds
/// per bucket.
///
/// `capacity` is the caller's page-budget model (`window_pages ·
/// ⌊PAGE_SIZE / window_entry_bytes⌋` for the external filter) and counts
/// key bytes only. The block summaries, the 8-byte level code per entry
/// and the 8-byte code bound per block are real memory the model does not
/// charge (+8.5 B on a 56 B key at d = 7, +15 %), and so is the
/// directory's: at most one partial block per bucket in use (≤ 256 · 16
/// lanes), two bytes per entry for the filing log, the level masks and
/// `reach` (≤ 10 KB, at d = 1), and a second copy of the keys while a
/// doubling re-files.
pub struct BlockWindow {
    d: usize,
    len: usize,
    capacity: usize,
    /// True while insertion scores have been non-increasing — the
    /// precondition for the Theorem-4 whole-tail cutoff.
    monotone: bool,
    last_score: f64,
    coder: Coder,
    coarse: Coarse,
    first_split: usize,
    /// Ascending quantile cuts, `levels − 1` per coarse field; empty
    /// until the first split, which puts every key on level 0.
    cuts: Vec<f64>,
    /// Bucket `Σ level_c · levels^c`: one until the first split,
    /// `levels^fields` after, unallocated until something is filed there.
    buckets: Vec<Arena>,
    /// The non-empty buckets.
    occupied: Buckets,
    /// [`Coarse::at_least`], built at the first split.
    at_least: Vec<Buckets>,
    /// Once split, `reach[t]`: the blocks of every bucket at or above
    /// bucket `t`'s level on every coarse field — all that a probe of a
    /// key filed in `t` may visit. `reach[0]` counts every block, so
    /// `reach[0] − reach[t]` is what the key's coarse code rules out.
    reach: Vec<usize>,
    /// The bucket of each entry in insertion order, kept once split so
    /// that re-filing can keep that order within every bucket.
    filed: Vec<u16>,
}

impl BlockWindow {
    /// A window over `d`-criterion oriented keys holding at most
    /// `capacity` entries (use `usize::MAX` for unbounded in-memory use).
    #[must_use]
    pub fn new(d: usize, capacity: usize) -> Self {
        Self::with_first_split(d, capacity, FIRST_SPLIT)
    }

    /// [`BlockWindow::new`] with the first split at `first_split` entries
    /// (rounded up to a calibration doubling) instead of the constant
    /// every caller gets — the differential tests' seam for driving small
    /// windows through many splits.
    #[doc(hidden)]
    #[must_use]
    pub fn with_first_split(d: usize, capacity: usize, first_split: usize) -> Self {
        debug_assert!(d > 0);
        BlockWindow {
            d,
            len: 0,
            capacity: capacity.max(1),
            monotone: true,
            last_score: f64::INFINITY,
            coder: Coder::new(d),
            coarse: Coarse::new(d),
            first_split,
            cuts: Vec::new(),
            buckets: vec![Arena::new(d)],
            occupied: Buckets::default(),
            at_least: Vec::new(),
            reach: Vec::new(),
            filed: Vec::new(),
        }
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum entries this window may hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raise the capacity to `capacity` entries (the caller has been
    /// granted the pages). The entries held stay as they are.
    pub fn grow(&mut self, capacity: usize) {
        debug_assert!(capacity >= self.capacity);
        self.capacity = capacity;
    }

    /// True when at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Whether insertion scores have been non-increasing so far (the
    /// Theorem-4 tail cutoff is armed). Exposed for tests.
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        self.monotone
    }

    /// Buckets holding at least one entry: 1 until the first split.
    /// Exposed for tests.
    #[must_use]
    pub fn buckets_in_use(&self) -> usize {
        self.occupied.len()
    }

    /// Drop all entries (pass / DIFF-group boundary). The directory
    /// collapses to one bucket, and the quantizer and its calibration
    /// schedule start over with the next insert.
    pub fn clear(&mut self) {
        self.buckets.truncate(1);
        self.buckets[0].clear();
        self.occupied = Buckets::default();
        self.reach.clear();
        self.cuts.clear();
        self.filed.clear();
        self.coder.reset();
        self.len = 0;
        self.monotone = true;
        self.last_score = f64::INFINITY;
    }

    /// The level of `key` on each coarse field under the current cuts —
    /// none before the first split. A level counts the cuts strictly
    /// below the value, so it is monotone in the value and a NaN sits on
    /// level 0 — where it makes a probe visit more buckets, never fewer.
    #[inline(always)]
    fn levels_of<'a>(&'a self, key: &'a [f64]) -> impl Iterator<Item = usize> + 'a {
        self.cuts
            .chunks_exact(self.coarse.levels - 1)
            .zip(key)
            .map(|(cuts, &v)| cuts.partition_point(|&cut| v > cut))
    }

    /// The bucket `key` is filed in.
    fn bucket_of(&self, key: &[f64]) -> usize {
        self.eligible(key).1
    }

    /// The non-empty buckets that can hold an entry ≥ `key` — those at
    /// or above its level on every coarse field — and the bucket `key`
    /// would be filed in.
    #[inline(always)]
    fn eligible(&self, key: &[f64]) -> (Buckets, usize) {
        let levels = self.coarse.levels;
        let (set, bucket, _) = self.levels_of(key).enumerate().fold(
            (self.occupied, 0, 1),
            |(set, bucket, radix), (c, l)| {
                let set = set.and(self.at_least[c * levels + l]);
                (set, bucket + l * radix, radix * levels)
            },
        );
        (set, bucket)
    }

    /// The buckets at or below bucket `b`'s level on every coarse field.
    fn at_or_below(&self, b: usize) -> Buckets {
        let Coarse { fields, levels } = self.coarse;
        // `at_least[0]`, level ≥ 0 on the first field, is every bucket
        (0..fields).fold(self.at_least[0], |set, c| {
            let l = b / levels.pow(c as u32) % levels;
            if l + 1 < levels {
                set.minus(self.at_least[c * levels + l + 1])
            } else {
                set
            }
        })
    }

    /// Append `key` to the bucket its coarse code names.
    fn file(&mut self, key: &[f64]) {
        let bucket = self.bucket_of(key);
        let a = &mut self.buckets[bucket];
        let new_block = a.len.is_multiple_of(BLOCK_LANES);
        a.push(key, &self.coder);
        self.occupied = self.occupied.with(bucket);
        if !self.cuts.is_empty() {
            self.filed.push(bucket as u16);
            if new_block {
                for t in self.at_or_below(bucket).descending() {
                    self.reach[t] += 1;
                }
            }
        }
    }

    /// Append a key. Caller must have checked [`BlockWindow::is_full`].
    pub fn insert(&mut self, key: &[f64]) {
        debug_assert!(!self.is_full());
        debug_assert_eq!(key.len(), self.d);
        let score = key_score(key);
        // A NaN score disarms the cutoff as well: it enters no block's
        // max-score, so a block of such entries would read −∞ and end
        // every scan in front of the blocks behind it.
        if score > self.last_score || score.is_nan() {
            self.monotone = false;
        }
        self.last_score = score;
        self.file(key);
        self.len += 1;
        if self.coder.due(self.len) {
            if self.len >= self.first_split {
                self.refile();
            } else {
                self.coder.calibrate(&mut self.buckets);
            }
        }
    }

    /// The doubling past the first split: re-fit the quantizer, cut every
    /// coarse field at the `levels`-quantiles of what the window holds
    /// now, and file every entry again, in insertion order, under the new
    /// codes. O(len · d), a function of the insert sequence alone.
    fn refile(&mut self) {
        self.coder.fit(&self.buckets);
        let Coarse { fields, levels, .. } = self.coarse;
        let mut column: Vec<f64> = Vec::with_capacity(self.len);
        self.cuts.clear();
        for c in 0..fields {
            column.clear();
            for a in &self.buckets {
                for b in 0..a.blocks() {
                    let live = &a.column(b, c)[..a.block_len(b)];
                    column.extend(live.iter().filter(|v| !v.is_nan()));
                }
            }
            // Successive order statistics, each selected from the part of
            // the column at or above the one before. A column of NaNs
            // cuts nowhere.
            let (n, mut rest, mut below) = (column.len(), &mut column[..], 0);
            for j in 1..levels {
                let rank = (j * n / levels).min(n.saturating_sub(1));
                let cut = if rest.is_empty() {
                    f64::INFINITY
                } else {
                    *rest.select_nth_unstable_by(rank - below, f64::total_cmp).1
                };
                self.cuts.push(cut);
                rest = &mut rest[rank - below..];
                below = rank;
            }
        }

        if self.at_least.is_empty() {
            self.at_least = self.coarse.at_least();
        }
        let buckets = levels.pow(fields as u32);
        let fresh = (0..buckets).map(|_| Arena::new(self.d)).collect();
        let old = std::mem::replace(&mut self.buckets, fresh);
        let log = std::mem::take(&mut self.filed);
        self.occupied = Buckets::default();
        self.reach = vec![0; buckets];
        let mut next = vec![0usize; old.len()];
        let mut key = Vec::with_capacity(self.d);
        for i in 0..self.len {
            // before the first split everything sits in bucket 0
            let from = log.get(i).map_or(0, |&b| usize::from(b));
            old[from].key_into(next[from], &mut key);
            next[from] += 1;
            self.file(&key);
        }
    }

    /// Probe the window for a dominator or an equal key. Verdicts are
    /// identical to the scalar kernel's: window entries are pairwise
    /// non-dominating, so "some entry dominates the key" and "some entry
    /// equals it" exclude each other and neither depends on the order
    /// entries are visited in — and the unvisited buckets, skipped blocks
    /// and screened-out lanes provably hold no such entry.
    ///
    /// Every block of a bucket the coarse code rules out is charged to
    /// `blocks_skipped` up front, whether or not the probe would have
    /// reached it (§12.4).
    #[must_use]
    pub fn probe(&self, key: &[f64]) -> (BlockVerdict, ProbeCost) {
        debug_assert_eq!(key.len(), self.d);
        let score = key_score(key);
        let code = self.coder.code(key);
        let h = self.coder.guard;
        let (eligible, filed_in) = self.eligible(key);
        let mut cost = ProbeCost {
            // before the first split nothing is ruled out
            blocks_skipped: self.reach.get(filed_in).map_or(0, |&r| self.reach[0] - r) as u64,
            ..ProbeCost::default()
        };
        let mut examined = 0u64;
        for bucket in eligible.descending() {
            let a = &self.buckets[bucket];
            for b in 0..a.blocks() {
                // Theorem-4 cutoff: with non-increasing insertion scores
                // a bucket's block max-scores are non-increasing, so the
                // first block strictly below the candidate ends its scan.
                if self.monotone && a.summaries(b).1 < score {
                    cost.blocks_skipped += (a.blocks() - b) as u64;
                    break;
                }
                // The code bound first: one integer test, and it fails
                // only where `may_beat` would (§12.6).
                if !a.bound_at_least(b, code, h) || !a.may_beat(b, key, score) {
                    cost.blocks_skipped += 1;
                    continue;
                }
                let live = a.block_len(b);
                cost.lanes += live as u64;
                let lanes = a.lanes_at_least(b, code, h) & first_lanes(live);
                for l in lanes_of(lanes) {
                    let (ge, le) = a.confirm(b, l, key);
                    if ge {
                        cost.comparisons = examined + l as u64 + 1;
                        let verdict = if le {
                            BlockVerdict::Equal
                        } else {
                            BlockVerdict::Dominated
                        };
                        return (verdict, cost);
                    }
                }
                examined += live as u64;
            }
        }
        cost.comparisons = examined;
        (BlockVerdict::Incomparable, cost)
    }
}

/// Append `key` to a window that is one arena under its own quantizer,
/// calibrating at the doublings.
fn push_calibrating(arena: &mut Arena, coder: &mut Coder, key: &[f64]) {
    arena.push(key, coder);
    if coder.due(arena.len) {
        coder.calibrate(std::slice::from_mut(arena));
    }
}

/// The read-only arena of the parallel prefix merge: the sorted union in
/// one flat `Arena`, probed by *position* — entry `i` answers to the
/// entries before it — which is why it is not a [`BlockWindow`]: a bucket
/// directory has no global positions.
pub struct PrefixArena {
    arena: Arena,
    coder: Coder,
}

impl PrefixArena {
    /// An empty arena over `d`-criterion oriented keys.
    #[must_use]
    pub fn new(d: usize) -> Self {
        PrefixArena {
            arena: Arena::new(d),
            coder: Coder::new(d),
        }
    }

    /// Append a key at the next position.
    pub fn push(&mut self, key: &[f64]) {
        push_calibrating(&mut self.arena, &mut self.coder, key);
    }

    /// Probe only the first `prefix` entries, looking for a *dominator*
    /// (equal keys do not decide — the parallel merge keeps duplicates).
    /// The partial tail block is screened by its whole-block summaries,
    /// a superset bound, and its lanes are read only up to the prefix.
    #[must_use]
    pub fn probe_prefix(&self, key: &[f64], prefix: usize) -> (bool, ProbeCost) {
        let a = &self.arena;
        debug_assert_eq!(key.len(), a.d);
        debug_assert!(prefix <= a.len);
        let score = key_score(key);
        let code = self.coder.code(key);
        let mut cost = ProbeCost::default();
        let mut examined = 0u64;
        for b in 0..prefix.div_ceil(BLOCK_LANES) {
            if !a.may_beat(b, key, score) {
                cost.blocks_skipped += 1;
                continue;
            }
            let visible = (prefix - b * BLOCK_LANES).min(BLOCK_LANES);
            cost.lanes += visible as u64;
            let lanes = a.lanes_at_least(b, code, self.coder.guard) & first_lanes(visible);
            for l in lanes_of(lanes) {
                if a.confirm(b, l, key) == (true, false) {
                    cost.comparisons = examined + l as u64 + 1;
                    return (true, cost);
                }
            }
            examined += visible as u64;
        }
        cost.comparisons = examined;
        (false, cost)
    }
}

/// Columnar window with replacement — the BNL shape: a probe can both
/// discard the candidate (a window entry dominates it) and evict window
/// entries the candidate dominates. Either direction can rule a block
/// out by its summaries, and a lane out by its level code.
///
/// Removals follow `Vec::swap_remove` semantics over global positions
/// (block-major order): the last entry fills the hole. Callers that
/// mirror per-entry metadata in a `Vec` apply the reported positions with
/// `Vec::swap_remove`, in order, to stay aligned.
pub struct ReplaceWindow {
    arena: Arena,
    coder: Coder,
}

impl ReplaceWindow {
    /// An unbounded replace-window over `d`-criterion oriented keys
    /// (capacity policy belongs to the caller, which also owns records).
    #[must_use]
    pub fn new(d: usize) -> Self {
        ReplaceWindow {
            arena: Arena::new(d),
            coder: Coder::new(d),
        }
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.len == 0
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.coder.reset();
    }

    /// Append a key (no capacity check — the caller owns that policy).
    pub fn push(&mut self, key: &[f64]) {
        push_calibrating(&mut self.arena, &mut self.coder, key);
    }

    /// Copy the key of the entry at global position `pos` into `out`.
    pub fn copy_key(&self, pos: usize, out: &mut Vec<f64>) {
        self.arena.key_into(pos, out);
    }

    /// Remove the entry at global position `pos` by moving the last entry
    /// into its place (`Vec::swap_remove` semantics). Summaries of the
    /// touched blocks are rebuilt exactly.
    pub fn remove_at(&mut self, pos: usize) {
        self.arena.swap_remove(pos, &self.coder);
    }

    /// Probe with replacement. Returns whether the candidate is dominated
    /// and, when it survives, fills `removed` with the positions of the
    /// entries it dominates — already applied here via [`Self::remove_at`],
    /// in the reported order, for the caller to mirror.
    ///
    /// Verdicts and the removed set match the scalar BNL loop exactly:
    /// window entries are pairwise non-dominating (the BNL invariant), so
    /// by transitivity "some entry dominates the candidate" and "the
    /// candidate dominates some entry" are mutually exclusive, and
    /// decision order cannot matter.
    pub fn probe_replace(&mut self, key: &[f64], removed: &mut Vec<usize>) -> (bool, ProbeCost) {
        let a = &self.arena;
        debug_assert_eq!(key.len(), a.d);
        removed.clear();
        let score = key_score(key);
        let code = self.coder.code(key);
        let h = self.coder.guard;
        let mut cost = ProbeCost::default();
        let mut examined = 0u64;
        let mut victims: Vec<usize> = Vec::new();
        for b in 0..a.blocks() {
            let beat = a.may_beat(b, key, score);
            let fall = a.may_fall(b, key, score);
            if !beat && !fall {
                cost.blocks_skipped += 1;
                continue;
            }
            let live = a.block_len(b);
            cost.lanes += live as u64;
            // A lane outside `beat_lanes` cannot confirm `ge`, one outside
            // `fall_lanes` cannot confirm `le`: one exact test per lane of
            // the union settles both directions.
            let beat_lanes = if beat {
                a.lanes_at_least(b, code, h)
            } else {
                0
            };
            let fall_lanes = if fall { a.lanes_at_most(b, code, h) } else { 0 };
            for l in lanes_of((beat_lanes | fall_lanes) & first_lanes(live)) {
                match a.confirm(b, l, key) {
                    (true, false) => {
                        // A dominator excludes victims window-wide
                        // (pairwise non-domination + transitivity), so
                        // nothing was or will be removed on this probe.
                        debug_assert!(victims.is_empty());
                        cost.comparisons = examined + l as u64 + 1;
                        return (true, cost);
                    }
                    (false, true) => victims.push(b * BLOCK_LANES + l),
                    _ => {}
                }
            }
            examined += live as u64;
        }
        cost.comparisons = examined;
        // Apply evictions highest-position-first: swap_remove only
        // disturbs the last position, so earlier victim positions stay
        // valid (and a victim at the very end is simply truncated).
        for &pos in victims.iter().rev() {
            self.remove_at(pos);
            removed.push(pos);
        }
        (false, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{dom_rel, DomRel};

    fn window_from(rows: &[&[f64]]) -> BlockWindow {
        let mut w = BlockWindow::new(rows[0].len(), usize::MAX);
        for r in rows {
            w.insert(r);
        }
        w
    }

    /// Scalar reference: verdict + comparison charge of `KeyWindow::probe`.
    fn scalar_probe(rows: &[Vec<f64>], key: &[f64]) -> (BlockVerdict, u64) {
        let mut comparisons = 0;
        for entry in rows {
            comparisons += 1;
            match dom_rel(entry, key) {
                DomRel::Dominates => return (BlockVerdict::Dominated, comparisons),
                DomRel::Equal => return (BlockVerdict::Equal, comparisons),
                DomRel::DominatedBy | DomRel::Incomparable => {}
            }
        }
        (BlockVerdict::Incomparable, comparisons)
    }

    #[test]
    fn probe_outcomes_match_scalar_semantics() {
        let w = window_from(&[&[5.0, 5.0], &[0.0, 9.0]]);
        assert_eq!(w.probe(&[4.0, 4.0]).0, BlockVerdict::Dominated);
        assert_eq!(w.probe(&[5.0, 5.0]).0, BlockVerdict::Equal);
        assert_eq!(w.probe(&[6.0, 0.0]).0, BlockVerdict::Incomparable);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn verdicts_agree_with_scalar_across_block_boundaries() {
        // 40 mutually incomparable entries spanning 3 blocks.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![f64::from(i), f64::from(40 - i)])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let w = window_from(&refs);
        for i in -5..50i32 {
            for j in -5..50i32 {
                let key = [f64::from(i), f64::from(j)];
                let (bv, cost) = w.probe(&key);
                let (sv, scmp) = scalar_probe(&rows, &key);
                assert_eq!(bv, sv, "key {key:?}");
                assert!(
                    cost.comparisons <= scmp,
                    "key {key:?}: charged more than scalar"
                );
            }
        }
    }

    #[test]
    fn summary_skip_prunes_whole_blocks() {
        // One block of weak entries, one with the dominator.
        let mut rows: Vec<Vec<f64>> = (0..BLOCK_LANES)
            .map(|i| vec![1.0 + i as f64 / 100.0, 1.0 - i as f64 / 100.0])
            .collect();
        rows.push(vec![100.0, 100.0]);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut w = BlockWindow::new(2, usize::MAX);
        for r in &refs {
            w.insert(r);
        }
        // Candidate beats block 0's max on criterion 0: block 0 skipped,
        // dominator found at block 1 lane 0 with a single charged entry.
        let (v, cost) = w.probe(&[50.0, 50.0]);
        assert_eq!(v, BlockVerdict::Dominated);
        assert_eq!(cost.blocks_skipped, 1);
        assert_eq!(cost.comparisons, 1);
        assert_eq!(cost.lanes, 1);
    }

    #[test]
    fn monotone_cutoff_ends_scan_early() {
        // Scores strictly decreasing: monotone flag stays armed.
        let rows: Vec<Vec<f64>> = (0..BLOCK_LANES * 3)
            .map(|i| {
                let v = (BLOCK_LANES * 3 - i) as f64;
                vec![v, v]
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let w = window_from(&refs);
        assert!(w.is_monotone());
        // Candidate scores above every entry: first block already falls
        // below it, all 3 blocks skipped, zero comparisons.
        let (v, cost) = w.probe(&[1000.0, 1000.0]);
        assert_eq!(v, BlockVerdict::Incomparable);
        assert_eq!(cost.blocks_skipped, 3);
        assert_eq!(cost.comparisons, 0);
        assert_eq!(cost.lanes, 0);
    }

    #[test]
    fn non_monotone_insertion_disarms_cutoff_but_not_block_skips() {
        let mut w = BlockWindow::new(2, usize::MAX);
        w.insert(&[1.0, 1.0]);
        w.insert(&[9.0, 9.0]); // score rises: not monotone
        assert!(!w.is_monotone());
        // (9,9) must still be found as a dominator of (2,2).
        assert_eq!(w.probe(&[2.0, 2.0]).0, BlockVerdict::Dominated);
    }

    #[test]
    fn nan_scores_disarm_the_cutoff() {
        // A block of NaN-scored entries advertises max-score −∞; were the
        // cutoff still armed it would hide the dominator behind it.
        let mut w = BlockWindow::new(2, usize::MAX);
        for i in 0..BLOCK_LANES {
            w.insert(&[f64::NAN, i as f64]);
        }
        assert!(!w.is_monotone());
        w.insert(&[9.0, 9.0]);
        assert_eq!(w.probe(&[2.0, 2.0]).0, BlockVerdict::Dominated);
    }

    #[test]
    fn equal_key_not_masked_by_score_bound() {
        let mut w = BlockWindow::new(2, usize::MAX);
        w.insert(&[3.0, 4.0]);
        // Equal key has equal score: the strict score bound must not skip.
        let (v, _) = w.probe(&[3.0, 4.0]);
        assert_eq!(v, BlockVerdict::Equal);
    }

    #[test]
    fn clear_resets_everything() {
        let mut w = BlockWindow::new(2, 3);
        w.insert(&[1.0, 1.0]);
        w.insert(&[5.0, 5.0]);
        assert!(!w.is_monotone());
        w.clear();
        assert_eq!(w.len(), 0);
        assert!(w.is_monotone());
        assert_eq!(w.probe(&[0.0, 0.0]).0, BlockVerdict::Incomparable);
        assert!(!w.is_full());
    }

    fn prefix_arena_from(rows: &[Vec<f64>]) -> PrefixArena {
        let mut a = PrefixArena::new(rows[0].len());
        rows.iter().for_each(|r| a.push(r));
        a
    }

    #[test]
    fn probe_prefix_sees_only_the_prefix() {
        let rows: Vec<Vec<f64>> = vec![
            vec![5.0, 1.0],
            vec![1.0, 5.0],
            vec![9.0, 9.0], // dominator, position 2
        ];
        let w = prefix_arena_from(&rows);
        let key = [2.0, 2.0];
        assert!(w.probe_prefix(&key, 3).0);
        assert!(!w.probe_prefix(&key, 2).0, "dominator beyond the prefix");
        assert!(!w.probe_prefix(&key, 0).0, "empty prefix dominates nothing");
        // An equal key in the prefix must NOT read as dominated.
        assert!(!w.probe_prefix(&[5.0, 1.0], 1).0);
    }

    #[test]
    fn probe_prefix_partial_tail_block() {
        // 20 entries: prefix 18 cuts into the second block.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![f64::from(i), f64::from(20 - i)])
            .collect();
        let w = prefix_arena_from(&rows);
        // Entry 18 is (18, 2); it dominates (17.5, 1.5) but sits beyond
        // prefix 18 (positions 0..18).
        let key = [17.5, 1.5];
        assert!(!w.probe_prefix(&key, 18).0);
        assert!(w.probe_prefix(&key, 19).0);
    }

    /// Scalar BNL reference over a Vec window: verdict + removal set.
    fn scalar_bnl_probe(window: &mut Vec<Vec<f64>>, key: &[f64]) -> (bool, Vec<Vec<f64>>) {
        let mut k = 0;
        let mut removed = Vec::new();
        while k < window.len() {
            match dom_rel(&window[k], key) {
                DomRel::Dominates => return (true, removed),
                DomRel::DominatedBy => removed.push(window.swap_remove(k)),
                DomRel::Equal | DomRel::Incomparable => k += 1,
            }
        }
        (false, removed)
    }

    #[test]
    fn replace_window_matches_scalar_bnl() {
        // Deterministic pseudo-random stream, enough to cross blocks and
        // trigger both discard directions repeatedly.
        let mut scalar: Vec<Vec<f64>> = Vec::new();
        let mut block = ReplaceWindow::new(3);
        let mut removed = Vec::new();
        let mut state = 2003u64;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = f64::from((state >> 33) as u32 % 50);
            let b = f64::from((state >> 13) as u32 % 50);
            let c = f64::from((state >> 3) as u32 % 50);
            let key = vec![a, b, c];
            let (bd, _) = block.probe_replace(&key, &mut removed);
            let (sd, sremoved) = scalar_bnl_probe(&mut scalar, &key);
            assert_eq!(bd, sd, "verdict diverged on {key:?}");
            assert_eq!(removed.len(), sremoved.len(), "removal count on {key:?}");
            if !bd {
                block.push(&key);
                scalar.push(key);
            }
            assert_eq!(block.len(), scalar.len());
        }
        // Final windows hold the same multiset of keys.
        let mut s = scalar.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut b: Vec<Vec<f64>> = (0..block.len()).map(|p| block.arena.key_at(p)).collect();
        b.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(b, s);
    }

    #[test]
    fn replace_window_mirrors_vec_swap_remove() {
        // The reported removal order must reproduce Vec::swap_remove on a
        // parallel metadata vector.
        let mut block = ReplaceWindow::new(2);
        let mut meta: Vec<usize> = Vec::new();
        let mut keys: Vec<Vec<f64>> = Vec::new();
        let mut removed = Vec::new();
        // Anti-correlated survivors then one crusher that evicts them all.
        for i in 0..20 {
            let key = vec![f64::from(i), f64::from(20 - i)];
            let (d, _) = block.probe_replace(&key, &mut removed);
            assert!(!d);
            for &p in &removed {
                meta.swap_remove(p);
                keys.swap_remove(p);
            }
            block.push(&key);
            meta.push(i as usize);
            keys.push(key);
        }
        let crusher = vec![100.0, 100.0];
        let (d, cost) = block.probe_replace(&crusher, &mut removed);
        assert!(!d);
        assert_eq!(removed.len(), 20, "crusher evicts everyone");
        assert!(cost.comparisons <= 20);
        for &p in &removed {
            meta.swap_remove(p);
            keys.swap_remove(p);
        }
        assert!(meta.is_empty());
        assert_eq!(block.len(), 0);
        block.push(&crusher);
        assert_eq!(block.len(), 1);
        assert_eq!(block.probe(&crusher).0, BlockVerdict::Equal);
        assert_eq!(block.probe(&[99.0, 99.0]).0, BlockVerdict::Dominated);
    }

    impl Arena {
        /// The key stored at global position `pos`.
        fn key_at(&self, pos: usize) -> Vec<f64> {
            (0..self.d).map(|c| self.value(pos, c)).collect()
        }
    }

    impl ReplaceWindow {
        /// Test-only: simple dominator/equal probe (BNL verdict ignoring
        /// the replacement direction).
        fn probe(&self, key: &[f64]) -> (BlockVerdict, ProbeCost) {
            let mut w = BlockWindow::new(self.arena.d, usize::MAX);
            for p in 0..self.len() {
                w.insert(&self.arena.key_at(p));
            }
            w.probe(key)
        }
    }

    #[test]
    fn replace_window_both_direction_skips() {
        // Block 0: entries strong on criterion 0 but weak on criterion 1
        // (max c1 = 15). Block 1: entries below 1.0 on both criteria.
        let mut w = ReplaceWindow::new(2);
        for i in 0..BLOCK_LANES {
            w.push(&[200.0 + i as f64, i as f64]);
        }
        for i in 0..BLOCK_LANES {
            w.push(&[i as f64 / 100.0, 1.0 - i as f64 / 100.0]);
        }
        let mut removed = Vec::new();
        // (25, 25) beats block 0's c1 max (no dominator there) and sits
        // above block 0's c0 min only coordinate-wise impossibly (25 <
        // min c0 = 200: no victim there either) — block 0 skipped whole.
        // Block 1 is examined in the fall direction and fully evicted.
        let (d, cost) = w.probe_replace(&[25.0, 25.0], &mut removed);
        assert!(!d);
        assert_eq!(removed.len(), BLOCK_LANES, "weak block fully evicted");
        assert_eq!(cost.blocks_skipped, 1, "strong block pruned both ways");
        assert_eq!(w.len(), BLOCK_LANES);
        // Only the strong block remains; (1,1) is dominated by its second
        // entry (201, 1) — two charged comparisons, no removals.
        let (d2, cost2) = w.probe_replace(&[1.0, 1.0], &mut removed);
        assert!(d2);
        assert_eq!(cost2.comparisons, 2);
        assert!(removed.is_empty());
    }

    #[test]
    fn nan_keys_never_decide_or_mask() {
        // A NaN-keyed entry advertises nothing and beats nothing.
        let mut w = BlockWindow::new(2, usize::MAX);
        w.insert(&[f64::NAN, 5.0]);
        w.insert(&[3.0, 3.0]);
        let (v, _) = w.probe(&[2.0, 2.0]);
        assert_eq!(v, BlockVerdict::Dominated, "(3,3) still found");
        let (v2, _) = w.probe(&[f64::NAN, 1.0]);
        assert_eq!(v2, BlockVerdict::Incomparable);
    }

    #[test]
    fn charging_never_exceeds_window_len() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![f64::from(i % 10), f64::from((i * 7) % 13)])
            .collect();
        let mut w = BlockWindow::new(2, usize::MAX);
        let mut held = 0u64;
        for r in &rows {
            let (v, cost) = w.probe(r);
            assert!(cost.comparisons <= held);
            assert!(cost.lanes <= held);
            if !matches!(v, BlockVerdict::Dominated) && !w.is_full() {
                w.insert(r);
                held += 1;
            }
        }
    }

    // ---- the level-code screen (§12.5) ----

    /// Dimensionalities that hit every field width: 8 bits (d ≤ 8), 7
    /// (9), 4 (16), 3 (17), and 2 bits over a 32-criterion subset (33, 65).
    const DIMS: [usize; 10] = [1, 2, 4, 7, 8, 9, 16, 17, 33, 65];

    use skyline_testkit::{hostile_key, Rng};

    /// The arena's standing invariants: every live lane's code is what
    /// the current quantizer gives its key, every unused lane is `-inf`
    /// with code 0, every block's bound is the field-wise maximum of its
    /// live lanes' codes, and the arenas are exactly `blocks` long.
    fn assert_codes_aligned(a: &Arena, coder: &Coder, label: &str) {
        let blocks = a.blocks();
        assert_eq!(a.cols.len(), blocks * a.d * BLOCK_LANES, "{label}: cols");
        assert_eq!(a.codes.len(), blocks * BLOCK_LANES, "{label}: codes");
        assert_eq!(a.sums.len(), blocks * (2 * a.d + 2), "{label}: sums");
        assert_eq!(a.bounds.len(), blocks, "{label}: bounds");
        for b in 0..blocks {
            let live = &a.codes[b * BLOCK_LANES..][..a.block_len(b)];
            let want = (0..coder.axes.len()).fold(0, |bound, c| {
                let field = live.iter().map(|&w| w >> (c * coder.bits) & coder.top);
                bound | field.max().unwrap_or(0) << (c * coder.bits)
            });
            assert_eq!(a.bounds[b], want, "{label}: bound of block {b}");
        }
        for pos in 0..blocks * BLOCK_LANES {
            if pos < a.len {
                let code = coder.code(&a.key_at(pos));
                assert_eq!(a.codes[pos], code, "{label}: code of entry {pos}");
                assert_eq!(code & coder.guard, 0, "{label}: guard bit set");
            } else {
                assert_eq!(a.codes[pos], 0, "{label}: padding code {pos}");
                assert!(a.key_at(pos).iter().all(|&v| v == f64::NEG_INFINITY));
            }
        }
    }

    /// The soundness property everything rests on: the screen never
    /// drops a lane the exact test would accept, in either direction —
    /// so scanning the screened lanes in order finds the same first
    /// decisive lane as scanning them all — and the block bound never
    /// rules out a block holding an entry ≥ the key.
    fn assert_screen_necessary(a: &Arena, coder: &Coder, key: &[f64], label: &str) {
        let (code, h) = (coder.code(key), coder.guard);
        for b in 0..a.blocks() {
            let (beat, fall) = (a.lanes_at_least(b, code, h), a.lanes_at_most(b, code, h));
            for l in 0..a.block_len(b) {
                let (ge, le) = a.confirm(b, l, key);
                let entry = a.key_at(b * BLOCK_LANES + l);
                assert!(
                    !ge || a.bound_at_least(b, code, h),
                    "{label}: {entry:?} ≥ {key:?} in a block its bound rules out"
                );
                assert!(
                    !ge || beat >> l & 1 == 1,
                    "{label}: {entry:?} ≥ {key:?} screened out"
                );
                assert!(
                    !le || fall >> l & 1 == 1,
                    "{label}: {entry:?} ≤ {key:?} screened out"
                );
            }
        }
    }

    #[test]
    fn field_layout_per_dimensionality() {
        for (d, bits) in [
            (1, 8),
            (7, 8),
            (8, 8),
            (9, 7),
            (16, 4),
            (17, 3),
            (32, 2),
            (33, 2),
            (65, 2),
        ] {
            let coder = Coder::new(d);
            assert_eq!(coder.bits, bits, "d={d}");
            assert_eq!(coder.axes.len(), d.min(MAX_CODED), "d={d}");
            assert_eq!(coder.top + 1, 1 << (bits - 1), "d={d}");
            assert_eq!(coder.guard.count_ones() as usize, d.min(MAX_CODED), "d={d}");
            assert_eq!(coder.guard.trailing_zeros() as usize, bits - 1, "d={d}");
        }
    }

    #[test]
    fn quantizer_is_monotone_and_total() {
        let mut coder = Coder::new(2);
        coder.axes = vec![(-10.0, 128.0 / 20.0), (0.0, 0.0)];
        let mut probes = vec![f64::NEG_INFINITY, -1e300, f64::from(i32::MIN), -10.0];
        probes.extend((0..=400).map(|i| -10.0 + f64::from(i) * 0.05));
        probes.extend([10.0, f64::from(i32::MAX), 1e300, f64::INFINITY]);
        let levels: Vec<u64> = probes.iter().map(|&v| coder.field(0, v)).collect();
        assert!(
            levels.is_sorted(),
            "levels must not decrease with the value"
        );
        assert_eq!((levels[0], levels[levels.len() - 1]), (0, coder.top));
        assert_eq!(coder.field(0, f64::NAN), 0);
        // the zero quantizer sends everything, ±∞ and NaN included, to 0
        for v in [f64::NEG_INFINITY, -1.0, 0.0, 7.0, f64::INFINITY, f64::NAN] {
            assert_eq!(coder.field(1, v), 0);
        }
    }

    #[test]
    fn swar_test_is_the_fieldwise_comparison() {
        for d in DIMS {
            let coder = Coder::new(d);
            let mut a = Arena::new(d);
            a.cols.resize(d * BLOCK_LANES, f64::NEG_INFINITY);
            a.sums.resize(2 * d + 2, 0.0);
            let mut rng = Rng::seed_from_u64(d as u64);
            let fields = |code: u64| -> Vec<u64> {
                (0..coder.axes.len())
                    .map(|c| code >> (c * coder.bits) & ((1 << coder.bits) - 1))
                    .collect()
            };
            let random_code = |rng: &mut Rng| {
                (0..coder.axes.len()).fold(0, |code, c| {
                    // bias to the extremes so `≥` in every field happens
                    let level = match rng.usize_below(4) {
                        0 => 0,
                        1 => coder.top,
                        _ => rng.u64_below(coder.top + 1),
                    };
                    code | level << (c * coder.bits)
                })
            };
            for _ in 0..200 {
                a.codes = (0..BLOCK_LANES).map(|_| random_code(&mut rng)).collect();
                let t = random_code(&mut rng);
                let h = coder.guard;
                let (beat, fall) = (a.lanes_at_least(0, t, h), a.lanes_at_most(0, t, h));
                for (l, &w) in a.codes.iter().enumerate() {
                    let ge = fields(w).iter().zip(fields(t)).all(|(&x, y)| x >= y);
                    let le = fields(w).iter().zip(fields(t)).all(|(&x, y)| x <= y);
                    assert_eq!(beat >> l & 1 == 1, ge, "d={d} w={w:#x} t={t:#x}");
                    assert_eq!(fall >> l & 1 == 1, le, "d={d} w={w:#x} t={t:#x}");
                    let max: Vec<u64> = fields(w)
                        .iter()
                        .zip(fields(t))
                        .map(|(&x, y)| x.max(y))
                        .collect();
                    assert_eq!(fields(coder.max(w, t)), max, "d={d} w={w:#x} t={t:#x}");
                }
            }
        }
    }

    #[test]
    fn calibrates_at_every_doubling_and_keeps_codes_aligned() {
        for d in DIMS {
            let mut rng = Rng::seed_from_u64(2003 + d as u64);
            let mut w = BlockWindow::new(d, usize::MAX);
            let mut due = FIRST_CALIBRATION;
            for len in 1..=130usize {
                w.insert(&hostile_key(&mut rng, d));
                if len == due {
                    due *= 2;
                }
                assert_eq!(w.coder.next_calibration, due, "d={d} len={len}");
                let label = format!("d={d} len={len}");
                assert_codes_aligned(&w.buckets[0], &w.coder, &label);
                // straddle every recalibration and block boundary
                if (len + 1).is_power_of_two()
                    || len.is_power_of_two()
                    || (len - 1).is_power_of_two()
                {
                    for i in 0..12 {
                        let key = if i % 3 == 0 {
                            w.buckets[0].key_at(i * 7 % len)
                        } else {
                            hostile_key(&mut rng, d)
                        };
                        assert_screen_necessary(&w.buckets[0], &w.coder, &key, &label);
                    }
                }
            }
            // a column the window holds at one value stays on level 0
            if d > 1 {
                let (lo, scale) = w.coder.axes[1];
                assert_eq!((lo, scale), (0.0, 0.0), "d={d}: constant column");
            }
        }
    }

    #[test]
    fn calibration_separates_what_the_window_holds() {
        // 64 entries spread evenly over a column: after the calibration
        // at 64 the 7-bit levels must tell most of them apart, so a
        // candidate screens out nearly all lanes that do not beat it.
        let mut w = BlockWindow::new(2, usize::MAX);
        for i in 0..64 {
            w.insert(&[f64::from(i) * 1e6, f64::from(63 - i) * 1e-3]);
        }
        let passed = |code: u64| -> u32 {
            (0..4)
                .map(|b| {
                    w.buckets[0]
                        .lanes_at_least(b, code, w.coder.guard)
                        .count_ones()
                })
                .sum()
        };
        let passed_mid = passed(w.coder.code(&[31.5e6, 31.5e-3]));
        assert_eq!(passed_mid, 0, "an anti-chain candidate confirms no lane");
        let passed = passed(w.coder.code(&[10e6, 10e-3]));
        assert!(
            (43..=46).contains(&passed),
            "entries 10..=53 beat it, got {passed}"
        );
    }

    #[test]
    fn clear_then_reuse_is_indistinguishable_from_fresh() {
        for d in DIMS {
            let mut rng = Rng::seed_from_u64(7 + d as u64);
            let first: Vec<Vec<f64>> = (0..50).map(|_| hostile_key(&mut rng, d)).collect();
            // second group on a different scale: a stale quantizer or
            // schedule would show in the codes
            let second: Vec<Vec<f64>> = (0..40)
                .map(|_| {
                    hostile_key(&mut rng, d)
                        .iter()
                        .map(|v| v * 1e-3 + 5.0)
                        .collect()
                })
                .collect();
            let mut reused = BlockWindow::new(d, usize::MAX);
            first.iter().for_each(|r| reused.insert(r));
            reused.clear();
            assert_eq!(reused.coder.next_calibration, FIRST_CALIBRATION);
            let mut fresh = BlockWindow::new(d, usize::MAX);
            for r in &second {
                reused.insert(r);
                fresh.insert(r);
            }
            assert_eq!(reused.buckets[0].codes, fresh.buckets[0].codes, "d={d}");
            assert_eq!(reused.coder.axes, fresh.coder.axes, "d={d}");
            assert_eq!(reused.coder.next_calibration, fresh.coder.next_calibration);
            assert_codes_aligned(&reused.buckets[0], &reused.coder, &format!("d={d} reused"));
        }
    }

    #[test]
    fn evictions_keep_codes_aligned_with_lanes() {
        for d in DIMS {
            let mut rng = Rng::seed_from_u64(11 + d as u64);
            let mut w = ReplaceWindow::new(d);
            let mut mirror: Vec<Vec<f64>> = Vec::new();
            let mut removed = Vec::new();
            for step in 0..400 {
                let label = format!("d={d} step={step}");
                if !mirror.is_empty() && rng.usize_below(4) == 0 {
                    // direct eviction, at the ends and in the middle
                    let pos = match rng.usize_below(3) {
                        0 => 0,
                        1 => mirror.len() - 1,
                        _ => rng.usize_below(mirror.len()),
                    };
                    w.remove_at(pos);
                    mirror.swap_remove(pos);
                } else {
                    let key = hostile_key(&mut rng, d);
                    assert_screen_necessary(&w.arena, &w.coder, &key, &label);
                    let (dominated, _) = w.probe_replace(&key, &mut removed);
                    for &p in &removed {
                        mirror.swap_remove(p);
                    }
                    if !dominated {
                        w.push(&key);
                        mirror.push(key);
                    }
                }
                assert_eq!(w.len(), mirror.len(), "{label}");
                assert_codes_aligned(&w.arena, &w.coder, &label);
                for (pos, key) in mirror.iter().enumerate() {
                    // bit-for-bit, NaN lanes included
                    let held: Vec<u64> = w.arena.key_at(pos).iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = key.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(held, want, "{label}: entry {pos}");
                }
            }
        }
    }

    // ---- the bucket directory (§12.6) ----

    #[test]
    fn coarse_layout_per_dimensionality() {
        // the largest L with L^min(d,8) ≤ 256, in fields that hold it
        for (d, levels) in [
            (1usize, 256usize),
            (2, 16),
            (3, 6),
            (4, 4),
            (5, 3),
            (6, 2),
            (7, 2),
            (8, 2),
            (9, 2),
            (12, 2),
            (65, 2),
        ] {
            let coarse = Coarse::new(d);
            let fields = d.min(MAX_COARSE);
            assert_eq!(coarse.levels, levels, "d={d}");
            assert!(levels.pow(fields as u32) <= MAX_BUCKETS, "d={d}");
            assert!((levels + 1).pow(fields as u32) > MAX_BUCKETS, "d={d}");
            // bucket b has level b / L^c % L on field c
            let at_least = coarse.at_least();
            assert_eq!(at_least.len(), fields * levels, "d={d}");
            for c in 0..fields {
                for l in 0..levels {
                    let set = at_least[c * levels + l];
                    let want = (0..levels.pow(fields as u32))
                        .filter(|b| b / levels.pow(c as u32) % levels >= l)
                        .collect::<Vec<_>>();
                    let mut got: Vec<usize> = set.descending().collect();
                    got.reverse();
                    assert_eq!(got, want, "d={d} field {c} level {l}");
                }
            }
        }
    }

    #[test]
    fn bucket_sets_iterate_highest_first() {
        let all: Vec<usize> = (0..MAX_BUCKETS).collect();
        let set = all.iter().copied().fold(Buckets::default(), Buckets::with);
        assert_eq!(set.len(), MAX_BUCKETS);
        assert!(set.descending().eq(all.iter().copied().rev()));
        let some = [255, 192, 191, 64, 63, 1, 0];
        let set = some.iter().copied().fold(Buckets::default(), Buckets::with);
        assert!(set.descending().eq(some));
        let evens = all.iter().copied().filter(|b| b % 2 == 0);
        let evens = evens.fold(Buckets::default(), Buckets::with);
        assert!(set.and(evens).descending().eq([192, 64, 0]));
        assert_eq!(Buckets::default().descending().count(), 0);
    }

    /// The directory's standing invariants: every entry sits in the
    /// bucket its coarse code names, under the code the shared quantizer
    /// gives it; `occupied` holds exactly the non-empty buckets and
    /// `blocks` counts their blocks; and the filing log replays the
    /// insert sequence, so every bucket holds its entries in insertion
    /// order.
    fn assert_directory(w: &BlockWindow, inserted: &[Vec<f64>], label: &str) {
        assert_eq!(w.len, inserted.len(), "{label}: len");
        assert_eq!(
            w.buckets.iter().map(|a| a.len).sum::<usize>(),
            w.len,
            "{label}"
        );
        let in_use: Vec<usize> = (0..w.buckets.len())
            .rev()
            .filter(|&b| w.buckets[b].len > 0)
            .collect();
        let listed: Vec<usize> = w.occupied.descending().collect();
        assert_eq!(listed, in_use, "{label}: occupied");
        // `reach[t]` sums the buckets at or above `t` on every field
        let (fields, levels) = (w.coarse.fields, w.coarse.levels);
        let level = |b: usize, c: usize| b / levels.pow(c as u32) % levels;
        let reach: Vec<usize> = (0..w.buckets.len())
            .map(|t| {
                let above = |u: &usize| (0..fields).all(|c| level(*u, c) >= level(t, c));
                (0..w.buckets.len())
                    .filter(above)
                    .map(|u| w.buckets[u].blocks())
                    .sum()
            })
            .collect();
        if w.cuts.is_empty() {
            assert!(w.reach.is_empty(), "{label}: reach before the split");
        } else {
            assert_eq!(w.reach, reach, "{label}: reach");
        }
        for b in in_use {
            let a = &w.buckets[b];
            assert_codes_aligned(a, &w.coder, &format!("{label} bucket {b}"));
            for pos in 0..a.len {
                assert_eq!(w.bucket_of(&a.key_at(pos)), b, "{label}");
            }
        }
        for cuts in w.cuts.chunks_exact(w.coarse.levels - 1) {
            assert!(
                cuts.is_sorted() && !cuts.iter().any(|c| c.is_nan()),
                "{label}"
            );
        }
        let split = !w.cuts.is_empty();
        assert_eq!(w.filed.len(), if split { w.len } else { 0 }, "{label}: log");
        let mut next = vec![0usize; w.buckets.len()];
        for (i, key) in inserted.iter().enumerate() {
            let b = w.filed.get(i).map_or(0, |&b| usize::from(b));
            let held: Vec<u64> = w.buckets[b]
                .key_at(next[b])
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = key.iter().map(|v| v.to_bits()).collect();
            assert_eq!(held, want, "{label}: insert {i} in bucket {b}");
            next[b] += 1;
        }
    }

    #[test]
    fn directory_files_every_entry_under_its_code_in_insertion_order() {
        for d in DIMS {
            let mut rng = Rng::seed_from_u64(24 + d as u64);
            let mut w = BlockWindow::with_first_split(d, usize::MAX, 16);
            let mut inserted: Vec<Vec<f64>> = Vec::new();
            for len in 1..=300usize {
                // hostile keys, with runs of exact duplicates among them
                let key = match inserted.last() {
                    Some(last) if len % 5 == 0 => last.clone(),
                    _ => hostile_key(&mut rng, d),
                };
                w.insert(&key);
                inserted.push(key);
                let label = format!("d={d} len={len}");
                // every doubling and its neighbours, and a spread between
                if (len + 1).is_power_of_two()
                    || len.is_power_of_two()
                    || (len - 1).is_power_of_two()
                    || len % 37 == 0
                {
                    assert_directory(&w, &inserted, &label);
                    // the coarse screen is a necessary condition
                    for i in 0..12 {
                        let key = if i % 3 == 0 {
                            inserted[i * 7 % len].clone()
                        } else {
                            hostile_key(&mut rng, d)
                        };
                        let eligible: Vec<usize> = w.eligible(&key).0.descending().collect();
                        for b in w.occupied.descending() {
                            let a = &w.buckets[b];
                            let holds_ge = (0..a.len)
                                .any(|p| a.key_at(p).iter().zip(&key).all(|(e, k)| e >= k));
                            assert!(
                                !holds_ge || eligible.contains(&b),
                                "{label}: bucket {b} holds an entry ≥ {key:?}"
                            );
                        }
                    }
                }
            }
            assert_eq!(
                w.buckets.len(),
                w.coarse.levels.pow(d.min(MAX_COARSE) as u32)
            );
            assert!(w.buckets_in_use() > 1, "d={d}: 300 hostile keys spread out");
            // clear collapses the directory; reuse is a fresh window
            w.clear();
            assert_eq!((w.buckets.len(), w.buckets_in_use(), w.len()), (1, 0, 0));
            let mut fresh = BlockWindow::with_first_split(d, usize::MAX, 16);
            for key in &inserted[..40] {
                w.insert(key);
                fresh.insert(key);
            }
            assert_directory(&w, &inserted[..40], &format!("d={d} reused"));
            assert_eq!(w.cuts, fresh.cuts, "d={d}");
            assert_eq!(w.occupied, fresh.occupied, "d={d}");
            assert_eq!(w.at_least, fresh.at_least, "d={d}");
            assert_eq!(w.coder.axes, fresh.coder.axes, "d={d}");
        }
    }

    #[test]
    fn a_window_below_the_first_split_is_one_arena() {
        // an anti-chain: every entry survives, and spreads over the codes
        let key = |i: usize| [i as f64, (FIRST_SPLIT * 2 - i) as f64];
        let mut w = BlockWindow::new(2, usize::MAX);
        for i in 0..FIRST_SPLIT - 1 {
            w.insert(&key(i));
        }
        assert_eq!((w.buckets.len(), w.buckets_in_use()), (1, 1));
        assert!(w.cuts.is_empty() && w.filed.is_empty());
        w.insert(&key(FIRST_SPLIT - 1));
        assert_eq!(w.buckets.len(), MAX_BUCKETS);
        // on an anti-diagonal only the 16 + 15 codes along it are used
        assert!(
            (16..=31).contains(&w.buckets_in_use()),
            "{}",
            w.buckets_in_use()
        );
        // a probe below the chain's middle finds its dominator, and
        // visits only the buckets at or above its own code
        let (half, s) = (FIRST_SPLIT as f64 / 2.0, FIRST_SPLIT as f64 * 1.5);
        let (verdict, cost) = w.probe(&[half - 0.5, s - 0.5]);
        assert_eq!(verdict, BlockVerdict::Dominated);
        assert!(cost.lanes < FIRST_SPLIT as u64 / 4, "lanes {}", cost.lanes);
        let (verdict, cost) = w.probe(&[half + 0.5, s + 0.5]);
        assert_eq!(verdict, BlockVerdict::Incomparable);
        assert!(cost.comparisons < FIRST_SPLIT as u64 / 4);
        assert!(
            cost.blocks_skipped >= FIRST_SPLIT as u64 / 32,
            "unvisited buckets count"
        );
    }

    /// The probe as it was before the bucket sets: a walk over every
    /// non-empty bucket, highest first, that tests each bucket's coarse
    /// code — its levels packed one `⌊64/fields⌋`-bit field each under a
    /// guard bit — against the key's with the SWAR test, then scans the
    /// blocks of the buckets that pass with the summaries alone and every
    /// live lane by the exact test. No block code bound, no level-code
    /// screen. The blocks of every bucket the coarse test rules out are
    /// charged to `blocks_skipped`, wherever the walk stops.
    fn list_walk_probe(w: &BlockWindow, key: &[f64]) -> (BlockVerdict, ProbeCost) {
        let Coarse { fields, levels } = w.coarse;
        let bits = 64 / fields;
        let guard = (0..fields).fold(0u64, |h, c| h | 1 << (c * bits + bits - 1));
        let pack = |level: &dyn Fn(usize) -> usize| {
            (0..fields).fold(0u64, |code, c| code | (level(c) as u64) << (c * bits))
        };
        // before the first split there are no cuts: every level is 0
        let cuts: Vec<&[f64]> = w.cuts.chunks_exact(levels - 1).collect();
        let coarse = pack(&|c| {
            cuts.get(c)
                .map_or(0, |cuts| cuts.iter().filter(|&&cut| key[c] > cut).count())
        });
        let list: Vec<(u64, usize)> = (0..w.buckets.len())
            .rev()
            .filter(|&b| w.buckets[b].len > 0)
            .map(|b| (pack(&|c| b / levels.pow(c as u32) % levels), b))
            .collect();
        let at_least = |at: u64| ((at | guard) - coarse) & guard == guard;
        let score = key_score(key);
        let mut cost = ProbeCost {
            blocks_skipped: list
                .iter()
                .filter(|&&(at, _)| !at_least(at))
                .map(|&(_, b)| w.buckets[b].blocks() as u64)
                .sum(),
            ..ProbeCost::default()
        };
        let mut examined = 0u64;
        for &(_, bucket) in list.iter().filter(|&&(at, _)| at_least(at)) {
            let a = &w.buckets[bucket];
            for b in 0..a.blocks() {
                if w.monotone && a.summaries(b).1 < score {
                    cost.blocks_skipped += (a.blocks() - b) as u64;
                    break;
                }
                if !a.may_beat(b, key, score) {
                    cost.blocks_skipped += 1;
                    continue;
                }
                let live = a.block_len(b);
                cost.lanes += live as u64;
                for l in 0..live {
                    if let (true, le) = a.confirm(b, l, key) {
                        cost.comparisons = examined + l as u64 + 1;
                        let verdict = if le {
                            BlockVerdict::Equal
                        } else {
                            BlockVerdict::Dominated
                        };
                        return (verdict, cost);
                    }
                }
                examined += live as u64;
            }
        }
        cost.comparisons = examined;
        (BlockVerdict::Incomparable, cost)
    }

    #[test]
    fn the_bucket_set_probe_is_the_list_walk() {
        for d in [1, 2, 3, 4, 5, 7, 8, 9, 16] {
            let mut rng = Rng::seed_from_u64(34 + d as u64);
            // hostile keys with runs of exact duplicates among them
            let mut generated: Vec<Vec<f64>> = Vec::new();
            for i in 0..400 {
                let key = match generated.last() {
                    Some(last) if i % 5 == 0 => last.clone(),
                    _ => hostile_key(&mut rng, d),
                };
                generated.push(key);
            }
            let mut presorted = generated.clone();
            presorted.sort_by(|a, b| key_score(b).total_cmp(&key_score(a)));
            for (order, keys) in [("generation", &generated), ("presorted", &presorted)] {
                let mut w = BlockWindow::with_first_split(d, usize::MAX, 16);
                // the whole stream, then — across `clear` — its first 150
                for (round, keys) in [&keys[..], &keys[..150]].into_iter().enumerate() {
                    w.clear();
                    for (i, key) in keys.iter().enumerate() {
                        let label = format!("d={d} {order} round {round} key {i}");
                        let probed = w.probe(key);
                        assert_eq!(probed, list_walk_probe(&w, key), "{label}");
                        // the SFS rule, plus every third key regardless so
                        // that even a d = 1 window re-files
                        if probed.0 != BlockVerdict::Dominated || i % 3 == 0 {
                            w.insert(key);
                        }
                    }
                    // the held entries themselves: Equal verdicts
                    for key in keys.iter().step_by(7) {
                        assert_eq!(w.probe(key), list_walk_probe(&w, key), "d={d} {order}");
                    }
                    assert!(w.buckets_in_use() > 1, "d={d} {order}: the directory split");
                }
            }
        }
    }

    #[test]
    fn block_bounds_are_exact_and_necessary() {
        for d in DIMS {
            let mut rng = Rng::seed_from_u64(43 + d as u64);
            let mut w = BlockWindow::with_first_split(d, usize::MAX, 16);
            for round in 0..2 {
                // every push, every recalibration and re-file, and `clear`
                for len in 1..=140usize {
                    w.insert(&hostile_key(&mut rng, d));
                    for (b, a) in w.buckets.iter().enumerate() {
                        let label = format!("d={d} round {round} len={len} bucket {b}");
                        assert_codes_aligned(a, &w.coder, &label);
                        if len % 20 == 0 && a.len > 0 {
                            for i in 0..6 {
                                let key = if i % 2 == 0 {
                                    a.key_at(i * 5 % a.len)
                                } else {
                                    hostile_key(&mut rng, d)
                                };
                                assert_screen_necessary(a, &w.coder, &key, &label);
                            }
                        }
                    }
                }
                w.clear();
                assert_codes_aligned(&w.buckets[0], &w.coder, &format!("d={d} cleared"));
            }
            // and every `remove_at`, at the ends and in the middle
            let mut r = ReplaceWindow::new(d);
            for step in 0..200 {
                if !r.is_empty() && rng.usize_below(3) == 0 {
                    let pos = match rng.usize_below(3) {
                        0 => 0,
                        1 => r.len() - 1,
                        _ => rng.usize_below(r.len()),
                    };
                    r.remove_at(pos);
                } else {
                    r.push(&hostile_key(&mut rng, d));
                }
                let label = format!("d={d} replace step {step}");
                assert_codes_aligned(&r.arena, &r.coder, &label);
                assert_screen_necessary(&r.arena, &r.coder, &hostile_key(&mut rng, d), &label);
            }
        }
    }

    #[test]
    fn grow_raises_the_capacity_and_keeps_the_entries() {
        let mut w = BlockWindow::new(2, 2);
        w.insert(&[1.0, 9.0]);
        w.insert(&[9.0, 1.0]);
        assert!(w.is_full());
        w.grow(3);
        assert!(!w.is_full());
        assert_eq!((w.len(), w.capacity()), (2, 3));
        assert_eq!(w.probe(&[0.0, 8.0]).0, BlockVerdict::Dominated);
        w.insert(&[5.0, 5.0]);
        assert!(w.is_full());
    }
}
