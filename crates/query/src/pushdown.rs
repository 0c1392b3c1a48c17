//! `SKYLINE OF` on the paged external engine.
//!
//! Every SQL skyline runs here, whatever the relation's size, as one
//! drain fed by one of two sources (DESIGN §16.4):
//!
//! - *filter and presort* ([`external_skyline_with`]): column entries →
//!   elimination filter → entropy presort → SFS → drain, for every
//!   clause but the one below;
//! - *ranked* ([`ranked_skyline_with`]): under `ORDER BY <criterion> …
//!   LIMIT k` the planner may pick a source that screens the columns
//!   against one front row and heaps the rest by that criterion — a
//!   nested order with the lead first, itself a valid presort — popping
//!   them lazily into the same SFS window, and ending the stream at the
//!   first row whose lead is worse than the `k`-th emitted row's. No
//!   elimination filter, no sort, no heap file. A lead tied at the
//!   `k`-th best on more than `4·k` of its rows sends the query back to
//!   the first source.
//!
//! The rest of this page describes the first source. The planner holds
//! the clause's key columns
//! ([`SkylineColumns`] — for a whole catalog table the table's own
//! resident columns, shared across queries); they are read a chunk of
//! rows at a time, the sign of a `MIN` criterion applied as a value is
//! read, and streamed as *narrow entries* — `d` f64 keys, the row's
//! `DIFF` group number, the row's entropy score, and the originating row
//! index — straight into the external sort (entropy-presorted, the
//! paper's "w/ E", DIFF groups outermost; the score is built from the
//! columns' cached statistics), filtered through a window sized by the
//! §6 cardinality estimator, and each surviving row id goes to the
//! caller the moment the filter proves it — the paper's pipelined
//! output, which `LIMIT` and a departed client cut short. No oriented key
//! matrix exists on this route. This is the integration the paper argues
//! for — the skyline as *an operator inside the engine*, not an
//! application post-pass.
//!
//! A criterion may hold any number, ±∞ included; a NaN is refused
//! before the engine starts, as a non-numeric value. A `DIFF` key may be
//! any value: the planner numbers the groups by `plan`'s value equality
//! (the one `GROUP BY` and the `EXCEPT` rewrite use), and the entry
//! carries that number as its one group lane.
//!
//! Each forwarded row is scored once, as the paper's §4.3 has it
//! ("computed on-the-fly" per tuple). The entry carries the score in its
//! score lane ([`NarrowLayout::with_score`]), which the elimination
//! filter's `admit` computes. The sort's run formation, its merge and
//! the comparisons its prefix key leaves tied read the lane instead of
//! scoring the key again; under `DIFF` the prefix key is group-major.
//!
//! Ahead of the sort sits a LESS elimination filter
//! ([`GroupedElimination`]): one page of the best-entropy keys seen so
//! far. Ahead of the filter runs one *survey* of the columns
//! ([`Survey`]), a chunk at a time: each chunk is screened column at a
//! time against the row of largest oriented key sum so far, the
//! survivors are summed and marked in a one-bit-per-row set, and the
//! page's worth of largest sums are kept as *seeds*. The filter is
//! offered the seeds first, best sum first, then the other marked rows
//! in row order; only those are gathered into keys and probed against
//! the whole page, and only what that admits is encoded — so a row some
//! earlier row strictly dominates costs no encode, arena byte, run page,
//! merge step or filter probe, and the page fills with the rows that
//! dominate the most (§4.3) before the bulk arrives. It is exact in any
//! admission order (every dropped row is dominated by a forwarded one)
//! and its page is the sort's own — the rest of the sort's pages go to
//! the arena — so no lease grows; the survey's bit set is per-query
//! bookkeeping, like the group numbers, and uncharged. Under `DIFF` each
//! group is its own skyline: the survey screens nothing, the filter
//! keeps one front per group and splits the page among them, a row
//! (seed or not) meets only its own group's keys, and groups past what
//! the page holds pass unscreened.
//!
//! [`external_skyline_with`] honours the [`ExecOptions`] contract: each
//! pass's arena is charged against the optional quota pool (sort arena
//! while sorting, filter window while filtering), the cancel token is
//! polled while the survey runs, while entries stream and inside the
//! operators, and spills go
//! to the caller's disk when one is given. The sort arena is sized by its
//! input: it reserves what every entry and the filter's page would fill,
//! between 4 pages and `sort_pages` — so a six-row table asks for 4, not
//! the budget.
//!
//! The §6 estimate is the window's *initial* reservation — clipped to
//! what the quota has free once the sort arena is back, so a clause whose
//! estimate exceeds the whole quota still runs — and the SFS operator,
//! handed the pool, grows the window inside the quota before a pass
//! spills (never after one has) and spills as Figure 7 does when the
//! pool refuses: the skyline the estimator undershot takes one pass when
//! there is room and the multi-pass path when there is not. A heap file
//! frees its pages when its handle drops, so they are reclaimed on
//! *every* path — success, typed quota error, cancellation, or storage
//! fault.

use crate::error::QueryError;
use crate::options::ExecOptions;
use skyline_core::cardinality::recommend_window_pages;
use skyline_core::external::{
    sort_narrow, BatchConfig, BatchSfs, GroupedElimination, SumFront, Survey, CHUNK_ROWS,
};
use skyline_core::{dominates, EntropyScore, MetricsSnapshot, SkylineMetrics};
use skyline_exec::cancel::{poll, poll_now};
use skyline_exec::sort::f64_ascending_bits;
use skyline_exec::{BoxedOperator, CancelToken, ExecError, HeapScan, NarrowLayout, Operator};
use skyline_relation::{KeyColumn, TableStats};
use skyline_storage::{BufferLease, BufferPool, Disk, MemDisk, PAGE_SIZE};
use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

/// The columns one `SKYLINE OF` clause reads, as the relation holds
/// them: criterion `k` of row `i`, in the all-max orientation, is
/// `crit[k].1 * crit[k].0.values()[i]`.
pub struct SkylineColumns {
    /// The `MIN`/`MAX` columns in clause order (at least one, every row
    /// numeric), each with its sign: −1 for `MIN`.
    pub crit: Vec<(Arc<KeyColumn>, f64)>,
    /// Each row's `DIFF` group number; `None` without a `DIFF` clause.
    /// Rows share a group exactly when their `DIFF` values are equal.
    pub groups: Option<Vec<usize>>,
}

impl SkylineColumns {
    /// From a clause's criterion columns in clause order, whether each
    /// is a `MIN`, and each row's `DIFF` group number, if any.
    #[must_use]
    pub fn new(columns: Vec<Arc<KeyColumn>>, min: &[bool], groups: Option<Vec<usize>>) -> Self {
        let signed = |(column, &is_min)| (column, if is_min { -1.0 } else { 1.0 });
        SkylineColumns {
            crit: columns.into_iter().zip(min).map(signed).collect(),
            groups,
        }
    }

    /// Rows of the relation.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.crit.first().map_or(0, |(c, _)| c.values().len())
    }

    /// The groups the rows fall in, numbered from 0: one without `DIFF`.
    fn group_count(&self) -> usize {
        self.groups
            .as_ref()
            .map_or(1, |g| g.iter().max().map_or(0, |&last| last + 1))
    }

    /// The oriented criteria of `row`, appended to `out`.
    fn key_into(&self, row: usize, out: &mut Vec<f64>) {
        out.extend(self.crit.iter().map(|(c, sign)| sign * c.values()[row]));
    }

    /// The entropy presort over the oriented criteria, from the columns'
    /// statistics: no pass over the values.
    fn entropy_score(&self) -> EntropyScore {
        let oriented = |(c, sign): &(Arc<KeyColumn>, f64)| {
            if *sign < 0.0 {
                c.stats().negated()
            } else {
                *c.stats()
            }
        };
        EntropyScore::new(TableStats::from_columns(
            self.crit.iter().map(oriented).collect(),
        ))
    }
}

/// Charge `pages` against the quota pool, if one is set. The lease is
/// released when the returned guard drops — including on error unwind.
fn reserve(opts: &ExecOptions, pages: usize) -> Result<Option<BufferLease>, QueryError> {
    match &opts.pool {
        Some(pool) => pool
            .reserve(pages)
            .map(Some)
            .map_err(|e| QueryError::from_exec(ExecError::Buffer(e))),
        None => Ok(None),
    }
}

/// The key columns lent to the external operators as narrow entries, row
/// index as the row id. `open` surveys the columns ([`Survey`]); the
/// stream then offers the elimination filter the survey's seeds, best
/// sum first, and after them the other rows the survey kept, in row
/// order, a chunk at a time. A row the survey or the filter drops is
/// never encoded, and one the survey drops is never gathered either;
/// each row meets the filter of its own `DIFF` group. An entry's score
/// lane ([`NarrowLayout::with_score`]) gets the score the filter computed
/// in `admit`, which ranks by the presort's own score: once per entry.
struct ColumnEntries {
    cols: SkylineColumns,
    narrow: NarrowLayout,
    filter: GroupedElimination,
    cancel: Option<CancelToken>,
    metrics: Arc<SkylineMetrics>,
    survey: Survey,
    /// Seeds offered so far, and the first row of the next chunk of kept
    /// rows.
    seeded: usize,
    next_chunk: usize,
    /// The rows in hand, and how many of them have been offered.
    rows: Vec<usize>,
    taken: usize,
    /// Rows offered to the filter so far.
    offered: u64,
    lanes: Vec<f64>,
    entry: Vec<u8>,
}

impl ColumnEntries {
    fn new(
        cols: SkylineColumns,
        narrow: NarrowLayout,
        filter: GroupedElimination,
        cancel: Option<CancelToken>,
        metrics: Arc<SkylineMetrics>,
    ) -> Self {
        ColumnEntries {
            cols,
            narrow,
            filter,
            cancel,
            metrics,
            survey: Survey::default(),
            seeded: 0,
            next_chunk: 0,
            rows: Vec::new(),
            taken: 0,
            offered: 0,
            lanes: Vec::new(),
            entry: Vec::new(),
        }
    }
}

impl Operator for ColumnEntries {
    /// Survey the columns. Under `DIFF` the survey screens nothing: one
    /// front for rows of several groups would drop across groups.
    fn open(&mut self) -> Result<(), ExecError> {
        let crit = &self.cols.crit;
        self.survey = Survey::run(
            self.cols.rows(),
            crit.len(),
            self.cols.groups.is_none(),
            |k| (crit[k].0.values(), crit[k].1),
            self.cancel.as_ref(),
            &self.metrics,
        )?;
        (self.seeded, self.next_chunk, self.taken, self.offered) = (0, 0, 0, 0);
        self.rows.clear();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        loop {
            while let Some(&row) = self.rows.get(self.taken) {
                self.taken += 1;
                self.offered += 1;
                self.lanes.clear();
                self.cols.key_into(row, &mut self.lanes);
                let group = self.cols.groups.as_ref().map(|g| g[row]);
                if !self.filter.admit(group.unwrap_or(0), &self.lanes) {
                    continue;
                }
                self.lanes.extend(group.map(|g| g as f64));
                self.lanes.push(self.filter.admitted_score());
                self.narrow
                    .encode_into(&self.lanes, row as u64, &mut self.entry);
                return Ok(Some(&self.entry));
            }
            // Chunk boundary: the filter's counters reach the shared
            // metrics, then the token is polled — per row consumed, not
            // per row emitted, since the filter may drop almost
            // everything — with the rows settled so far.
            self.filter.settle();
            poll_now(self.cancel.as_ref(), self.survey.dropped() + self.offered)?;
            let (seeds, n) = (self.survey.seeds(), self.cols.rows());
            self.taken = 0;
            if self.seeded < seeds.len() {
                let end = seeds.len().min(self.seeded + CHUNK_ROWS);
                self.rows.clear();
                self.rows.extend_from_slice(&seeds[self.seeded..end]);
                self.seeded = end;
            } else if self.next_chunk < n {
                let hi = n.min(self.next_chunk + CHUNK_ROWS);
                self.survey.kept(self.next_chunk, hi, &mut self.rows);
                self.next_chunk = hi;
            } else {
                return Ok(None);
            }
        }
    }

    fn close(&mut self) {}

    fn record_size(&self) -> usize {
        self.narrow.entry_size()
    }
}

/// A skyline whose `ORDER BY` ranks by one of its criteria under a
/// `LIMIT`: the planner's verdict that the ranked source may feed SFS
/// (DESIGN §16.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ranked {
    /// The `ORDER BY`'s lead criterion: its position among the clause's
    /// `MIN`/`MAX` criteria, in clause order.
    pub lead: usize,
    /// The `LIMIT`, at least 1.
    pub k: usize,
}

/// Bytes of one entry of the ranked source's heap: the lead's bits and
/// the row number.
const HEAP_ENTRY_BYTES: usize = 16;

/// Pages the ranked source's heap is charged for over `rows` rows: one
/// entry per row, whatever the front test later keeps out.
fn ranked_heap_pages(rows: usize) -> usize {
    (rows * HEAP_ENTRY_BYTES).div_ceil(PAGE_SIZE)
}

/// Whether the ranked source's heap over `rows` rows fits `opts`: within
/// `sort_pages`, as the presort's arena is, and under a quota pool with
/// a one-page window still free beside it.
pub(crate) fn ranked_heap_fits(rows: usize, opts: &ExecOptions) -> bool {
    let heap = ranked_heap_pages(rows);
    heap <= opts.sort_pages && opts.pool.as_ref().is_none_or(|p| p.available() > heap)
}

/// The ranked source serves `LIMIT k` only while at most `TIE_MARGIN · k`
/// of its heap entries have a lead at least as good as the `k`-th best:
/// it feeds SFS every row of an equal-lead group before it can stop, so
/// a lead with few distinct values (a rating, a small-domain code) would
/// feed it a large share of the relation, which the elimination filter
/// and presort drop far more cheaply (EXPERIMENTS.md "Ranked top-k",
/// tied leads).
pub(crate) const TIE_MARGIN: usize = 4;

/// Whether at most `TIE_MARGIN · k` of `items` have a `lead` (heap key)
/// at least as good as the `k`-th best: always so for `k = 0` and for
/// that few items. Reorders `items`.
fn ties_fit<T>(items: &mut [T], k: usize, lead: impl Fn(&T) -> u64) -> bool {
    if k == 0 || items.len() <= TIE_MARGIN * k {
        return true;
    }
    let (_, kth, _) = items.select_nth_unstable_by_key(k - 1, |i| Reverse(lead(i)));
    let kth = lead(kth);
    let mut at_least = items.iter().filter(|i| lead(i) >= kth);
    at_least.nth(TIE_MARGIN * k).is_none()
}

/// The ranked source looks at its ties early, once `1 / TIE_PROBE` of the
/// rows are heaped, against `k` scaled to that share: a lead of few
/// values shows there already, and giving up then saves most of the
/// build.
const TIE_PROBE: usize = 8;

/// The heap key of an oriented lead: ascending with the value, `−0.0`
/// and `+0.0` one key — they are equal to dominance, so neither may be
/// ranked ahead of a row that dominates it on the other criteria.
fn lead_bits(lead: f64) -> u64 {
    // adding +0.0 turns -0.0 into 0.0 and leaves the rest alone
    f64_ascending_bits(lead + 0.0)
}

/// Rows `a` and `b` nested-descending over the oriented key, lane by
/// lane — [`skyline_core::external::NarrowCmp`]'s tie rule.
fn nested_desc(crit: &[(Arc<KeyColumn>, f64)], a: usize, b: usize) -> Ordering {
    crit.iter()
        .map(|(c, sign)| (sign * c.values()[b]).partial_cmp(&(sign * c.values()[a])))
        .find(|o| *o != Some(Ordering::Equal))
        .flatten()
        .unwrap_or(Ordering::Equal)
}

/// The ranked source: the relation's rows as narrow entries (key lanes
/// and row id), best oriented lead first, an equal-lead group
/// nested-descending over the key and then by row. A row that dominates
/// another has a lead at least as good, and on a tie is ahead in the
/// nested order, so this is a topological sort of dominance — a valid
/// SFS presort (Theorems 6/7).
///
/// Built in one pass over the columns, a chunk at a time, of the step
/// the filter's survey runs too ([`SumFront`]): the front test against the row of largest oriented key sum seen
/// so far keeps every row that row strictly dominates out of the heap.
/// Any front is exact — a dropped row is not skyline, and every row it
/// dominates is dominated by a skyline row that stays — and the largest
/// sum dominates the most. The heap holds `(lead bits, row)` of the rest
/// and is popped lazily, one equal-lead group at a time.
///
/// Once the drain has emitted the `k`-th row it sets `stop` to that row's
/// lead, and the source ends at the first group whose lead is strictly
/// worse: every skyline row at least that good has been fed, which is
/// all an `ORDER BY` with that lead first can pick the first `k` from.
struct RankedEntries {
    cols: SkylineColumns,
    narrow: NarrowLayout,
    /// The lead criterion's position in `cols.crit`.
    lead: usize,
    /// `(lead bits, row)` of every row the front does not dominate.
    heap: BinaryHeap<(u64, u64)>,
    /// The equal-lead group in hand, in emission order, and how many of
    /// it have gone.
    group: Vec<u64>,
    taken: usize,
    /// The lead bits of the group in hand: never above the last one's.
    group_bits: u64,
    /// Set by the drain to the `k`-th emitted row's lead bits.
    stop: Rc<Cell<Option<u64>>>,
    cancel: Option<CancelToken>,
    /// Rows popped off the heap — the cancellation progress count.
    popped: u64,
    lanes: Vec<f64>,
    entry: Vec<u8>,
}

impl RankedEntries {
    /// Screen `cols` against its front and heap the rest by criterion
    /// `lead`, charging the screen's comparisons and drops to `metrics`
    /// — or, when the rows tied at the `k`-th best lead break the tie
    /// rule ([`TIE_MARGIN`]), hand the columns back, charging nothing.
    ///
    /// # Errors
    /// [`ExecError::Cancelled`] when `cancel` trips, polled once per
    /// chunk of rows.
    fn new(
        cols: SkylineColumns,
        Ranked { lead, k }: Ranked,
        cancel: Option<CancelToken>,
        metrics: &SkylineMetrics,
    ) -> Result<Result<Self, SkylineColumns>, ExecError> {
        let n = cols.rows();
        // Each chunk is screened against the front, then the front moves
        // to a survivor of larger oriented key sum.
        let mut step = SumFront::new(cols.crit.len());
        let (lead_column, lead_sign) = (cols.crit[lead].0.values(), cols.crit[lead].1);
        let (mut survivors, mut entries, mut screened) = (Vec::new(), Vec::new(), 0);
        // Rows below `stale` met a weaker front than the last one.
        let mut stale = 0;
        for lo in (0..n).step_by(CHUNK_ROWS) {
            poll(cancel.as_ref(), lo as u64)?;
            let hi = n.min(lo + CHUNK_ROWS);
            let crit = &cols.crit;
            if !step.front().is_empty() {
                screened += hi - lo;
            }
            let column = |k: usize| (&crit[k].0.values()[lo..hi], crit[k].1);
            if step.step(hi - lo, true, column, &mut survivors) {
                stale = hi;
            }
            entries.extend(survivors.iter().map(|&offset| {
                let row = lo + offset as usize;
                (lead_bits(lead_sign * lead_column[row]), row as u64)
            }));
            // The early look, once, past the first chunk: the rows so far
            // against the front so far, the k best scaled to their share.
            let probe = n / TIE_PROBE;
            if lo > 0 && lo < probe && probe <= hi {
                screened += rescreen(&mut entries, stale, step.front(), &cols, cancel.as_ref())?;
                stale = 0;
                let mut leads: Vec<u64> = entries.iter().map(|e| e.0).collect();
                if !ties_fit(&mut leads, (k * hi).div_ceil(n), |&b| b) {
                    return Ok(Err(cols));
                }
            }
        }
        screened += rescreen(&mut entries, stale, step.front(), &cols, cancel.as_ref())?;
        if !ties_fit(&mut entries, k, |e| e.0) {
            return Ok(Err(cols));
        }
        metrics.absorb(&MetricsSnapshot {
            comparisons: screened as u64,
            eliminated: (n - entries.len()) as u64,
            ..MetricsSnapshot::default()
        });
        Ok(Ok(RankedEntries {
            narrow: NarrowLayout::new(cols.crit.len()),
            cols,
            lead,
            heap: BinaryHeap::from(entries),
            group: Vec::new(),
            taken: 0,
            group_bits: u64::MAX,
            stop: Rc::new(Cell::new(None)),
            cancel,
            popped: 0,
            lanes: Vec::new(),
            entry: Vec::new(),
        }))
    }
}

/// Screen the `entries` (ascending rows) below row `stale`, which met an
/// earlier front or none, once more against `front`, dropping what it
/// strictly dominates: the first chunk meets no front, and on a
/// duplicate-heavy table a thousand rows pass the early fronts that only
/// the best one drops. Returns how many were screened.
fn rescreen(
    entries: &mut Vec<(u64, u64)>,
    stale: usize,
    front: &[f64],
    cols: &SkylineColumns,
    cancel: Option<&CancelToken>,
) -> Result<usize, ExecError> {
    let stale = entries.partition_point(|&(_, row)| (row as usize) < stale);
    let (mut key, mut kept) = (Vec::with_capacity(front.len()), 0);
    for i in 0..stale {
        poll(cancel, i as u64)?;
        key.clear();
        cols.key_into(entries[i].1 as usize, &mut key);
        if !dominates(front, &key) {
            entries[kept] = entries[i];
            kept += 1;
        }
    }
    entries.drain(kept..stale);
    Ok(stale)
}

impl Operator for RankedEntries {
    fn open(&mut self) -> Result<(), ExecError> {
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        if self.taken == self.group.len() {
            let Some(&(bits, _)) = self.heap.peek() else {
                return Ok(None);
            };
            // strictly worse than the k-th emitted row: no later row can
            // be among the first k of the ORDER BY
            if self.stop.get().is_some_and(|stop| bits < stop) {
                return Ok(None);
            }
            debug_assert!(bits <= self.group_bits, "the heap popped out of order");
            (self.group_bits, self.taken) = (bits, 0);
            self.group.clear();
            while let Some(top) = self.heap.peek_mut() {
                if top.0 != bits {
                    break;
                }
                poll(self.cancel.as_ref(), self.popped)?;
                self.popped += 1;
                self.group.push(PeekMut::pop(top).1);
            }
            if self.group.len() > 1 {
                let crit = &self.cols.crit;
                self.group.sort_unstable_by(|&a, &b| {
                    nested_desc(crit, a as usize, b as usize).then(a.cmp(&b))
                });
            }
        }
        let row = self.group[self.taken];
        self.taken += 1;
        self.lanes.clear();
        self.cols.key_into(row as usize, &mut self.lanes);
        debug_assert_eq!(lead_bits(self.lanes[self.lead]), self.group_bits);
        self.narrow.encode_into(&self.lanes, row, &mut self.entry);
        Ok(Some(&self.entry))
    }

    fn close(&mut self) {}

    fn record_size(&self) -> usize {
        self.narrow.entry_size()
    }
}

/// Fewest `sort_pages` the contract accepts: the external sort's three
/// (two inputs and an output) plus the elimination filter's one.
const MIN_SORT_PAGES: usize = 4;

/// Pages a presort pass reserves for `rows` entries of `entry_size`
/// bytes: room for every entry plus the elimination filter's page,
/// within `opts.sort_pages` and never below [`MIN_SORT_PAGES`].
fn sort_pages_for(opts: &ExecOptions, rows: usize, entry_size: usize) -> usize {
    let input = (rows * entry_size).div_ceil(PAGE_SIZE) + 1;
    opts.sort_pages.min(input.max(MIN_SORT_PAGES))
}

/// Run the skyline over `cols` on the paged engine under the execution
/// contract `opts`, grouping by the DIFF group numbers, and hand each
/// skyline row index to `emit` the moment the filter proves it.
///
/// Rows arrive in *emission order*, not ascending: presort order
/// (entropy, DIFF groups outermost), pass by pass when the window
/// spills. A caller that needs another order sorts.
///
/// `emit` returning [`ControlFlow::Break`] ends the drain there: the
/// operator is closed and dropped, so its window lease and temp pages
/// are back before this returns `Ok` — how `LIMIT n` and a departed
/// client stop the pipeline.
///
/// # Errors
/// [`QueryError::Exec`] (an [`ExecError::Config`]) when `opts.sort_pages`
/// is below four, before anything is reserved;
/// [`QueryError::QuotaExceeded`] when a pass's arena does not fit the
/// quota pool, [`QueryError::Cancelled`] when the token trips, and
/// [`QueryError::Exec`] for storage failures — possibly after some rows
/// were emitted. No heap pages remain allocated on any error path.
pub fn external_skyline_with(
    cols: SkylineColumns,
    opts: &ExecOptions,
    emit: impl FnMut(usize) -> ControlFlow<()>,
) -> Result<(), QueryError> {
    paged_skyline(cols, None, opts, SkylineMetrics::shared(), emit)
}

/// [`external_skyline_with`] fed by the ranked source instead of the
/// filter and presort: for a clause without `DIFF` whose `ORDER BY`
/// starts with criterion `ranked.lead` in its preferred direction under
/// `LIMIT ranked.k`. `emit` sees, in lead order, every skyline row whose
/// lead is at least as good as that of the `k`-th row emitted — a
/// superset of the first `k` rows of any such `ORDER BY` — and possibly
/// a few more; the caller sorts and cuts.
///
/// When more than `4·k` of the rows past the front test tie at or above
/// the `k`-th best lead, the source gives up and the filter and presort
/// run instead, emitting the whole skyline in presort order — which the
/// caller's sort and cut answer from alike.
///
/// The heap, 16 bytes a row, is charged to the quota pool before
/// it is built and held until the drain ends; the window is charged at
/// open beside it, as much of the §6 estimate as is still free.
///
/// # Errors
/// As [`external_skyline_with`]; the heap's reservation is a
/// [`QueryError::QuotaExceeded`] when the pool cannot grant it.
///
/// # Panics
/// When `ranked.lead` is not a position of `cols.crit`.
pub fn ranked_skyline_with(
    cols: SkylineColumns,
    ranked: Ranked,
    opts: &ExecOptions,
    emit: impl FnMut(usize) -> ControlFlow<()>,
) -> Result<(), QueryError> {
    paged_skyline(cols, Some(ranked), opts, SkylineMetrics::shared(), emit)
}

/// [`external_skyline_with`], or [`ranked_skyline_with`] given `ranked`,
/// counting into `metrics`.
fn paged_skyline(
    cols: SkylineColumns,
    ranked: Option<Ranked>,
    opts: &ExecOptions,
    metrics: Arc<SkylineMetrics>,
    emit: impl FnMut(usize) -> ControlFlow<()>,
) -> Result<(), QueryError> {
    if opts.sort_pages < MIN_SORT_PAGES {
        return Err(QueryError::from_exec(ExecError::Config(format!(
            "sort_pages is {} but the paged skyline needs at least {MIN_SORT_PAGES}",
            opts.sort_pages
        ))));
    }
    let d = cols.crit.len();
    let disk: Arc<dyn Disk> = match &opts.disk {
        Some(d) => Arc::clone(d),
        None => MemDisk::shared(),
    };
    // Capacity in entries is what the estimator sizes; a narrow window
    // entry is the key alone, 8·d bytes.
    let window_pages = recommend_window_pages(cols.rows(), d, 8 * d);
    // The ranked source's heap is the presort's allocation: charged
    // before it is built, held until the drain has closed the window —
    // or given back at once when the tie rule sends the query to the
    // presort, before its arena is charged.
    let mut heap_lease = None;
    let ranked = match ranked {
        Some(ranked) => {
            heap_lease = reserve(opts, ranked_heap_pages(cols.rows()))?;
            RankedEntries::new(cols, ranked, opts.cancel.clone(), &metrics)
                .map_err(QueryError::from_exec)?
                .map(|entries| (entries, ranked))
        }
        None => Err(cols),
    };
    let (source, narrow, stop): (BoxedOperator, _, _) = match ranked {
        Ok((entries, Ranked { lead, k })) => {
            let stop = Stop {
                k: k as u64,
                lead,
                at: Rc::clone(&entries.stop),
            };
            let narrow = entries.narrow;
            (Box::new(entries), narrow, Some(stop))
        }
        Err(cols) => {
            heap_lease = None;
            let (narrow, sorted) = presort(cols, opts, &disk, &metrics)?;
            (Box::new(HeapScan::new(Arc::new(sorted))), narrow, None)
        }
    };
    let drained = drain(
        source,
        narrow,
        window_pages,
        disk,
        metrics,
        stop,
        opts,
        emit,
    );
    drop(heap_lease);
    drained
}

/// Filter and presort: the elimination filter, one front per `DIFF`
/// group, screens the columns ahead of an entropy-presorted external sort
/// (DIFF groups outermost), whose arena is charged only while it sorts.
/// The sorted heap and its layout.
fn presort(
    cols: SkylineColumns,
    opts: &ExecOptions,
    disk: &Arc<dyn Disk>,
    metrics: &Arc<SkylineMetrics>,
) -> Result<(NarrowLayout, skyline_storage::HeapFile), QueryError> {
    let d = cols.crit.len();
    let score = Arc::new(cols.entropy_score());
    // Every entry carries its score, so the sort reads it back.
    let narrow = NarrowLayout::new(d)
        .with_diff(usize::from(cols.groups.is_some()))
        .with_score();
    let groups = cols.group_count();
    let filter = GroupedElimination::new(d, groups, Arc::clone(&score) as _, Arc::clone(metrics));
    // The filter's page is the sort's: what it holds, the arena gives up.
    let sort_pages = sort_pages_for(opts, cols.rows(), narrow.entry_size());
    let entries = ColumnEntries::new(
        cols,
        narrow,
        filter,
        opts.cancel.clone(),
        Arc::clone(metrics),
    );

    // The sort arena is charged only while sorting.
    let sort_lease = reserve(opts, sort_pages)?;
    let sorted = sort_narrow(
        Box::new(entries),
        narrow,
        score,
        sort_pages - 1,
        1, // sort thread
        Arc::clone(disk),
    )
    .map_err(QueryError::from_exec)?;
    drop(sort_lease);
    Ok((narrow, sorted))
}

/// Where the ranked source stops: once the drain has emitted `k` rows,
/// `at` holds the last one's lead bits (criterion `lead`).
struct Stop {
    k: u64,
    lead: usize,
    at: Rc<Cell<Option<u64>>>,
}

/// The one SFS drain, whichever source feeds it: a window over the
/// presorted `source`'s entries of `narrow`, starting at the §6 estimate
/// of `window_pages`, each survivor's row id to `emit` until it breaks.
/// `stop`, for the ranked source, learns the `k`-th emitted row's lead.
fn drain(
    source: BoxedOperator,
    narrow: NarrowLayout,
    window_pages: usize,
    disk: Arc<dyn Disk>,
    metrics: Arc<SkylineMetrics>,
    stop: Option<Stop>,
    opts: &ExecOptions,
    mut emit: impl FnMut(usize) -> ControlFlow<()>,
) -> Result<(), QueryError> {
    // The estimate is where the window starts, never more than the quota
    // has free: SFS grows from there or spills, and a wide clause whose
    // estimate exceeds the whole quota (739 pages at 100 000 × 10) still
    // runs.
    let free = opts.pool.as_ref().map_or(usize::MAX, BufferPool::available);
    let cfg = BatchConfig::new(window_pages.min(free).max(1));
    let mut sfs =
        BatchSfs::new(source, narrow, cfg, disk, metrics).map_err(QueryError::from_exec)?;
    if let Some(token) = &opts.cancel {
        sfs = sfs.with_cancel(token.clone());
    }
    // Charged at open, grown before a pass spills, released on close and
    // on drop.
    if let Some(pool) = &opts.pool {
        sfs = sfs.with_pool(pool.clone());
    }

    sfs.open().map_err(QueryError::from_exec)?;
    let mut emitted = 0u64;
    while let Some(entry) = sfs.next().map_err(QueryError::from_exec)? {
        poll(opts.cancel.as_ref(), emitted).map_err(QueryError::from_exec)?;
        emitted += 1;
        if let Some(stop) = stop.as_ref().filter(|s| s.k == emitted) {
            stop.at
                .set(Some(lead_bits(narrow.key_dim(entry, stop.lead))));
        }
        if emit(narrow.row_id(entry) as usize).is_break() {
            break;
        }
    }
    sfs.close();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_relation::{tuple, Tuple, Value};

    fn random_table(n: usize) -> Vec<Tuple> {
        (0..n as i64)
            .map(|i| tuple![(i * 37) % 101, (i * 53) % 97, i % 3])
            .collect()
    }

    fn oriented(rows: &[Tuple], crit: &[(usize, bool)]) -> Vec<f64> {
        let mut data = Vec::with_capacity(rows.len() * crit.len());
        for r in rows {
            for &(idx, is_min) in crit {
                let v = r.get(idx).as_f64().unwrap();
                data.push(if is_min { -v } else { v });
            }
        }
        data
    }

    /// The clause's columns, built the way `plan::apply_skyline` builds
    /// them for a relation it does not find in the catalog.
    fn columns(rows: &[Tuple], crit: &[(usize, bool)], diff: &[usize]) -> SkylineColumns {
        let wanted: Vec<usize> = crit.iter().map(|c| c.0).collect();
        let built = KeyColumn::build_all(rows, &wanted, |_| Ok::<(), ()>(())).unwrap();
        let min: Vec<bool> = crit.iter().map(|c| c.1).collect();
        let groups = (!diff.is_empty()).then(|| crate::plan::group_ids(rows, diff));
        SkylineColumns::new(built.into_iter().map(Arc::new).collect(), &min, groups)
    }

    /// The paged engine over `rows`, survivors ascending.
    fn paged(
        rows: &[Tuple],
        crit: &[(usize, bool)],
        diff: &[usize],
        opts: &ExecOptions,
    ) -> Result<Vec<usize>, QueryError> {
        let mut ids = Vec::new();
        external_skyline_with(columns(rows, crit, diff), opts, |id| {
            ids.push(id);
            ControlFlow::Continue(())
        })?;
        // emission order is presort order; the oracles are ascending
        ids.sort_unstable();
        Ok(ids)
    }

    /// `sql` over a table `(id INT, x FLOAT, k)` of `rows`, on a private
    /// disk under a pool: the `id`s in rank order and the pages written.
    fn via_sql(rows: Vec<Tuple>, sql: &str) -> Result<(Vec<i64>, u64), QueryError> {
        use crate::catalog::Catalog;
        use skyline_relation::{ColumnType, Schema, Table};
        let schema = Schema::of(&[
            ("id", ColumnType::Int),
            ("x", ColumnType::Float),
            ("k", ColumnType::Str),
        ]);
        let mut cat = Catalog::new();
        cat.register("t", Table::new(schema, rows).unwrap());
        let (pool, disk) = (BufferPool::new(1 << 12), MemDisk::shared());
        let opts = ExecOptions::default()
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as _);
        let out = crate::plan::execute_with(sql, &cat, &opts);
        assert_eq!((pool.used(), disk.allocated_pages()), (0, 0), "{sql}");
        let ids = out?
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        Ok((ids, disk.stats().writes()))
    }

    fn in_memory(rows: &[Tuple], crit: &[(usize, bool)], diff: &[usize]) -> Vec<usize> {
        use skyline_core::KeyMatrix;
        let km = KeyMatrix::new(crit.len(), oriented(rows, crit));
        if diff.is_empty() {
            let mut out = skyline_core::algo::naive(&km).indices;
            out.sort_unstable();
            out
        } else {
            use std::collections::HashMap;
            let mut groups: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
            for (i, r) in rows.iter().enumerate() {
                let gk: Vec<i64> = diff.iter().map(|&d| r.get(d).as_i64().unwrap()).collect();
                groups.entry(gk).or_default().push(i);
            }
            let mut out = Vec::new();
            for members in groups.values() {
                let sub = km.select(members);
                out.extend(
                    skyline_core::algo::naive(&sub)
                        .indices
                        .iter()
                        .map(|&l| members[l]),
                );
            }
            out.sort_unstable();
            out
        }
    }

    #[test]
    fn external_matches_in_memory() {
        let rows = random_table(3_000);
        for (crit, diff) in [
            (vec![(0usize, false), (1usize, false)], vec![]),
            (vec![(0, true), (1, false)], vec![]),
            (vec![(0, false), (1, true)], vec![]),
            (vec![(0, false), (1, true)], vec![2usize]),
        ] {
            let ext = paged(&rows, &crit, &diff, &ExecOptions::default()).unwrap();
            assert_eq!(ext, in_memory(&rows, &crit, &diff), "{crit:?} {diff:?}");
        }
    }

    #[test]
    fn external_quota_and_cancel_surface_typed_and_leak_free() {
        let rows = random_table(2_000);
        let crit = vec![(0usize, false), (1usize, true)];
        let disk = MemDisk::shared();

        // a pool far below the sort arena: typed quota error, no pages left
        let pool = BufferPool::new(8);
        let opts = ExecOptions::default()
            .with_pool(pool.clone())
            .with_disk(disk.clone());
        let err = paged(&rows, &crit, &[], &opts).unwrap_err();
        assert!(matches!(err, QueryError::QuotaExceeded { .. }), "{err}");
        assert_eq!(pool.used(), 0, "quota refusal must release every lease");
        assert_eq!(disk.allocated_pages(), 0, "no heap pages may leak");

        // a pre-tripped token: typed cancellation, no pages left
        let token = skyline_exec::CancelToken::new();
        token.cancel();
        let opts = ExecOptions::default()
            .with_cancel(token)
            .with_disk(disk.clone());
        let err = paged(&rows, &crit, &[], &opts).unwrap_err();
        assert!(matches!(err, QueryError::Cancelled { .. }), "{err}");
        assert_eq!(disk.allocated_pages(), 0, "no heap pages may leak");
    }

    /// [`ColumnEntries`] that trips `token` once it has handed out its
    /// first entry.
    struct TripAfterFirst(ColumnEntries, CancelToken);

    impl Operator for TripAfterFirst {
        fn open(&mut self) -> Result<(), ExecError> {
            self.0.open()
        }

        fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
            if self.0.offered > 0 {
                self.1.cancel();
            }
            self.0.next()
        }

        fn close(&mut self) {}

        fn record_size(&self) -> usize {
            self.0.record_size()
        }
    }

    #[test]
    fn cancel_is_seen_within_one_poll_interval_while_the_filter_drops_everything() {
        // The first row dominates every other: the survey keeps the first
        // chunk, which meets no front, and drops every row after it, and
        // of what it kept — all seeds — the filter forwards row 0 alone.
        // So the token has to be polled per row consumed, in the survey
        // and in the admits, and the books balance at either stop.
        let n = 100_000i64;
        let rows: Vec<Tuple> = (0..n).map(|i| tuple![n - i, n - i]).collect();
        let interval = skyline_exec::cancel::CANCEL_CHECK_INTERVAL;
        let entries = |token: &CancelToken, metrics: &Arc<SkylineMetrics>| {
            let cols = columns(&rows, &[(0, false), (1, false)], &[]);
            let score = Arc::new(cols.entropy_score());
            let filter = GroupedElimination::new(2, 1, score, Arc::clone(metrics));
            let narrow = NarrowLayout::new(2).with_score();
            ColumnEntries::new(
                cols,
                narrow,
                filter,
                Some(token.clone()),
                Arc::clone(metrics),
            )
        };
        // tripped before the survey: its first poll sees it, nothing done
        let (token, metrics) = (CancelToken::new(), SkylineMetrics::shared());
        token.cancel();
        let err = entries(&token, &metrics).open().unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::Cancelled {
                    records_processed: 0
                }
            ),
            "{err}"
        );
        assert_eq!(metrics.snapshot(), MetricsSnapshot::default());
        // tripped at the first row out of the admits: seen at the end of
        // the chunk of seeds, every row consumed settled
        let (token, metrics) = (CancelToken::new(), SkylineMetrics::shared());
        let mut e = entries(&token, &metrics);
        let narrow = e.narrow;
        e.open().unwrap();
        let surveyed = metrics.snapshot();
        assert_eq!(surveyed.eliminated, n as u64 - interval);
        assert_eq!(surveyed.comparisons, n as u64 - interval);
        assert_eq!(narrow.row_id(e.next().unwrap().unwrap()), 0);
        token.cancel();
        let err = e.next().unwrap_err();
        let ExecError::Cancelled { records_processed } = err else {
            panic!("{err}");
        };
        assert!(records_processed <= surveyed.eliminated + interval);
        assert_eq!(metrics.snapshot().eliminated + 1, records_processed);
        // through the sort, from either phase: no page left on the disk
        // or in the pool
        let (token, metrics, disk) = (
            CancelToken::new(),
            SkylineMetrics::shared(),
            MemDisk::shared(),
        );
        let tripping = TripAfterFirst(entries(&token, &metrics), token.clone());
        let score = Arc::new(columns(&rows[..1], &[(0, false), (1, false)], &[]).entropy_score());
        let sorted = sort_narrow(
            Box::new(tripping),
            narrow,
            score,
            3,
            1,
            Arc::clone(&disk) as _,
        );
        assert!(matches!(sorted, Err(ExecError::Cancelled { .. })));
        assert_eq!(disk.allocated_pages(), 0);
        let token = CancelToken::new();
        token.cancel();
        let (pool, disk) = (BufferPool::new(1 << 12), MemDisk::shared());
        let opts = ExecOptions::default()
            .with_cancel(token)
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as _);
        let err = paged(&rows, &[(0, false), (1, false)], &[], &opts).unwrap_err();
        assert!(matches!(err, QueryError::Cancelled { .. }), "{err}");
        assert_eq!((pool.used(), disk.allocated_pages()), (0, 0));
    }

    #[test]
    fn sort_arena_then_window_are_the_only_charges() {
        // The lease discipline: the sort arena while sorting, released
        // before the window is charged — so the peak is the larger of
        // the two, never their sum. The arena is sized by its input:
        // 2 000 entries of 32 bytes fill 16 pages, plus the filter's one.
        let rows = random_table(2_000);
        let crit = vec![(0usize, false), (1usize, true)];
        let window = recommend_window_pages(rows.len(), 2, 16);
        for (sort_pages, arena) in [(24, 17), (17, 17), (8, 8), (4, 4)] {
            let pool = BufferPool::new(1 << 16);
            let opts = ExecOptions::default()
                .with_pool(pool.clone())
                .with_sort_pages(sort_pages);
            let out = paged(&rows, &crit, &[], &opts).unwrap();
            assert_eq!(out, in_memory(&rows, &crit, &[]), "{sort_pages}");
            assert_eq!(pool.peak(), window.max(arena), "{sort_pages}");
            assert_eq!(pool.used(), 0);
        }
        // a handful of rows asks for the floor, not the budget
        let pool = BufferPool::new(1 << 16);
        let opts = ExecOptions::default().with_pool(pool.clone());
        paged(&rows[..6], &crit, &[], &opts).unwrap();
        assert_eq!(pool.peak(), MIN_SORT_PAGES);
    }

    /// The ranked source over `rows`: the row ids it emits, in order.
    fn ranked(
        rows: &[Tuple],
        crit: &[(usize, bool)],
        ranked: Ranked,
        opts: &ExecOptions,
    ) -> Result<Vec<usize>, QueryError> {
        let mut ids = Vec::new();
        ranked_skyline_with(columns(rows, crit, &[]), ranked, opts, |id| {
            ids.push(id);
            ControlFlow::Continue(())
        })?;
        Ok(ids)
    }

    /// The first `k` skyline rows by the oriented lead criterion, best
    /// first, ties by row: what an `ORDER BY` on the lead picks.
    fn top_k(rows: &[Tuple], crit: &[(usize, bool)], lead: usize, k: usize) -> Vec<usize> {
        let key = oriented(rows, crit);
        let mut sky = in_memory(rows, crit, &[]);
        let lead_of = |i: usize| key[i * crit.len() + lead];
        sky.sort_by(|&a, &b| lead_of(b).total_cmp(&lead_of(a)).then(a.cmp(&b)));
        sky.truncate(k);
        sky
    }

    /// What the ranked source emitted, cut as the `ORDER BY` cuts it.
    fn cut(
        rows: &[Tuple],
        crit: &[(usize, bool)],
        lead: usize,
        k: usize,
        mut ids: Vec<usize>,
    ) -> Vec<usize> {
        let key = oriented(rows, crit);
        let lead_of = |i: usize| key[i * crit.len() + lead];
        ids.sort_by(|&a, &b| lead_of(b).total_cmp(&lead_of(a)).then(a.cmp(&b)));
        ids.truncate(k);
        ids
    }

    /// `n` rows on the anti-diagonal: under `MAX` on both of the first
    /// two columns every row is skyline and none dominates another, so
    /// the front test keeps them all.
    fn anti_diagonal(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| tuple![i, n - i, i % 3]).collect()
    }

    #[test]
    fn heap_then_window_are_the_only_charges_of_the_ranked_source() {
        // The heap is charged before it is built and held through the
        // drain; the window is charged at open beside it, sized on what
        // the heap left free. Both come back. The lead takes 2 000
        // distinct values, so the tie rule keeps the source.
        let crit = vec![(0usize, false), (1usize, true)];
        let rows: Vec<Tuple> = (0..2_000i64)
            .map(|i| tuple![(i * 37) % 2_003, (i * 53) % 97])
            .collect();
        let heap = ranked_heap_pages(rows.len());
        assert_eq!(heap, 8, "2 000 entries of 16 bytes");
        let window = recommend_window_pages(rows.len(), 2, 16);
        for k in [1, 3, 50] {
            let rank = Ranked { lead: 0, k };
            let pool = BufferPool::new(1 << 16);
            let opts = ExecOptions::default().with_pool(pool.clone());
            let ids = ranked(&rows, &crit, rank, &opts).unwrap();
            assert_eq!(
                cut(&rows, &crit, 0, k, ids),
                top_k(&rows, &crit, 0, k),
                "{k}"
            );
            assert_eq!(pool.peak(), heap + window, "{k}");
            assert_eq!(pool.used(), 0);
        }
        // With one page beside the heap the window starts at that page:
        // every row of an anti-diagonal is skyline, so it spills, pass
        // after pass, and the answer holds.
        let (rows, crit) = (anti_diagonal(2_000), [(0usize, false), (1usize, false)]);
        let (heap, disk) = (ranked_heap_pages(rows.len()), MemDisk::shared());
        for (lead, k) in [(0, 1), (1, 7), (0, 300)] {
            let pool = BufferPool::new(heap + 1);
            let opts = ExecOptions::default()
                .with_pool(pool.clone())
                .with_disk(Arc::clone(&disk) as _);
            assert!(ranked_heap_fits(rows.len(), &opts));
            let metrics = SkylineMetrics::shared();
            let mut ids = Vec::new();
            let rank = Ranked { lead, k };
            paged_skyline(
                columns(&rows, &crit, &[]),
                Some(rank),
                &opts,
                Arc::clone(&metrics),
                |id| {
                    ids.push(id);
                    ControlFlow::Continue(())
                },
            )
            .unwrap();
            assert_eq!(
                cut(&rows, &crit, lead, k, ids),
                top_k(&rows, &crit, lead, k)
            );
            // a one-page window holds 256 keys: past them it spills
            assert_eq!(metrics.snapshot().passes > 1, k > 256, "{lead} {k}");
            assert_eq!((pool.peak(), pool.used()), (heap + 1, 0));
            assert_eq!(disk.allocated_pages(), 0);
        }
        // a pool with no page beside the heap does not take this source
        let opts = ExecOptions::default().with_pool(BufferPool::new(heap));
        assert!(!ranked_heap_fits(rows.len(), &opts));
    }

    #[test]
    fn a_cancel_while_the_heap_builds_or_the_drain_runs_leaves_nothing_behind() {
        let crit = vec![(0usize, false), (1usize, false)];
        let rows = anti_diagonal(2_000);
        let rank = Ranked { lead: 0, k: 1_000 };
        let (pool, disk) = (BufferPool::new(1 << 12), MemDisk::shared());
        // tripped before the heap is built: the heap's lease is held
        // when the build's first poll sees it
        let token = CancelToken::new();
        token.cancel();
        let opts = ExecOptions::default()
            .with_pool(pool.clone())
            .with_disk(Arc::clone(&disk) as _)
            .with_cancel(token);
        let err = ranked(&rows, &crit, rank, &opts).unwrap_err();
        assert_eq!(
            err,
            QueryError::Cancelled {
                records_processed: 0
            }
        );
        assert_eq!((pool.used(), disk.allocated_pages()), (0, 0));
        // tripped at the first row out: SFS sees it at its next poll,
        // with the heap and the window both held
        let token = CancelToken::new();
        let opts = opts.with_cancel(token.clone());
        let mut seen = 0;
        let err = ranked_skyline_with(columns(&rows, &crit, &[]), rank, &opts, |_| {
            seen += 1;
            token.cancel();
            ControlFlow::Continue(())
        })
        .unwrap_err();
        assert!(matches!(err, QueryError::Cancelled { .. }), "{err}");
        assert!(seen < rank.k, "{seen}");
        assert!(pool.peak() > ranked_heap_pages(rows.len()));
        assert_eq!((pool.used(), disk.allocated_pages()), (0, 0));
    }

    #[test]
    fn the_ranked_source_stops_after_the_kth_rows_lead_and_keys_zeros_as_one() {
        // Row i is (i/10 + 1, i): under MIN on the first and MAX on the
        // second, the last row of each run of ten is skyline and leads
        // tie in runs. -0.0 and +0.0 are one lead: the row (+0.0, 5)
        // dominates (−0.0, 3) — whose oriented lead, +0.0, has the larger
        // bits — so it must come first.
        let mut rows: Vec<Tuple> = (0..1_000i64)
            .map(|i| Tuple::new(vec![Value::Float((i / 10) as f64 + 1.0), Value::Int(i)]))
            .collect();
        rows.push(Tuple::new(vec![Value::Float(0.0), Value::Int(5)]));
        rows.push(Tuple::new(vec![Value::Float(-0.0), Value::Int(3)]));
        for (crit, lead, k) in [
            (vec![(0usize, true), (1usize, false)], 0, 1),
            (vec![(0, true), (1, false)], 0, 2),
            (vec![(0, true), (1, false)], 0, 9),
            (vec![(1, false), (0, true)], 0, 3),
            (vec![(0, false), (1, true)], 0, 4),
        ] {
            let metrics = SkylineMetrics::shared();
            let mut ids = Vec::new();
            let rank = Ranked { lead, k };
            let opts = ExecOptions::default();
            let cols = columns(&rows, &crit, &[]);
            paged_skyline(cols, Some(rank), &opts, Arc::clone(&metrics), |id| {
                ids.push(id);
                ControlFlow::Continue(())
            })
            .unwrap();
            let want = top_k(&rows, &crit, lead, k);
            assert_eq!(cut(&rows, &crit, lead, k, ids), want, "{crit:?} {k}");
            // SFS read fewer rows than the front test let into the heap
            let m = metrics.snapshot();
            let heaped = rows.len() as u64 - m.eliminated;
            assert!(m.input_records < heaped, "{crit:?} {k}: {m:?}");
        }
        // MIN of the first: (+0.0, 5) is the one skyline row of lead 0
        let crit = [(0usize, true), (1usize, false)];
        assert_eq!(top_k(&rows, &crit, 0, 2), [1_000, 9]);
    }

    #[test]
    fn the_tie_rule_counts_the_entries_at_least_as_good_as_the_kth_lead() {
        let entries = |leads: &[u64]| -> Vec<(u64, u64)> {
            leads.iter().zip(0..).map(|(&b, row)| (b, row)).collect()
        };
        let ties_fit = |mut items: Vec<(u64, u64)>, k| ties_fit(&mut items, k, |e| e.0);
        // distinct leads: the k best are exactly k entries
        let distinct: Vec<u64> = (0..100).collect();
        for k in [0, 1, 5, 24, 25, 26, 100] {
            assert!(ties_fit(entries(&distinct), k), "{k}");
        }
        // five leads, twenty entries each: the best lead alone is 20
        let rated: Vec<u64> = (0..100).map(|i| i % 5).collect();
        assert!(!ties_fit(entries(&rated), 1));
        assert!(!ties_fit(entries(&rated), 4));
        assert!(ties_fit(entries(&rated), 5), "20 entries ≤ 4·5");
        // the bound is inclusive: 8 entries at the best lead fit 4·2, 9 do not
        assert!(ties_fit(
            entries(&[[7; 8].as_slice(), &[1, 2, 3]].concat()),
            2
        ));
        assert!(!ties_fit(
            entries(&[[7; 9].as_slice(), &[1, 2, 3]].concat()),
            2
        ));
        // -0.0 and +0.0 are one heap key
        assert_eq!(lead_bits(-0.0), lead_bits(0.0));
        assert!(lead_bits(-1.0) < lead_bits(-0.0) && lead_bits(0.0) < lead_bits(f64::MIN_POSITIVE));
    }

    #[test]
    fn a_lead_of_few_values_takes_the_presort_and_answers_alike() {
        // A lead of 5 values: a fifth of the rows tie at the best, far
        // past 4·k, so the ranked source hands the columns back and its
        // heap lease is returned before the presort's arena is taken. At
        // 2 000 rows the final look says so; at 4 000 the early one, an
        // eighth of the way in.
        let crit = [(0usize, false), (1usize, false), (2usize, true)];
        for (n, k) in [(2_000i64, 1), (2_000, 3), (4_000, 1), (4_000, 5)] {
            let rows: Vec<Tuple> = (0..n)
                .map(|i| tuple![i % 5, (i * 37) % 3_999, (i * 53) % 4_003])
                .collect();
            let pool = BufferPool::new(1 << 16);
            let opts = ExecOptions::default().with_pool(pool.clone());
            let metrics = SkylineMetrics::shared();
            let mut ids = Vec::new();
            let rank = Ranked { lead: 0, k };
            let cols = columns(&rows, &crit, &[]);
            paged_skyline(cols, Some(rank), &opts, Arc::clone(&metrics), |id| {
                ids.push(id);
                ControlFlow::Continue(())
            })
            .unwrap();
            // the presort emits the whole skyline, the ranked source would
            // have stopped at the best lead
            let mut all = ids.clone();
            all.sort_unstable();
            assert_eq!(all, in_memory(&rows, &crit, &[]), "{n} {k}");
            assert_eq!(cut(&rows, &crit, 0, k, ids), top_k(&rows, &crit, 0, k));
            let arena = sort_pages_for(&opts, rows.len(), 40);
            let window = recommend_window_pages(rows.len(), 3, 24);
            let heap = ranked_heap_pages(rows.len());
            assert_eq!(pool.peak(), arena.max(window).max(heap), "{n} {k}");
            assert_eq!(pool.used(), 0);
        }
    }

    #[test]
    fn infinite_criteria_and_any_diff_key_page_and_nan_is_a_typed_error() {
        let row = |id: i64, x: f64, k: Value| Tuple::new(vec![Value::Int(id), Value::Float(x), k]);
        let paged_ids = |rows: &[Tuple], sql: &str| {
            let (ids, writes) = via_sql(rows.to_vec(), sql).unwrap();
            assert!(writes > 0, "{sql}: did not page");
            ids
        };
        // ±∞ criteria page under either direction
        let rows = [
            row(0, 1.5, Value::Null),
            row(1, f64::INFINITY, Value::Null),
            row(2, f64::NEG_INFINITY, Value::Null),
        ];
        assert_eq!(paged_ids(&rows, "SELECT id FROM t SKYLINE OF x MAX"), [1]);
        assert_eq!(paged_ids(&rows, "SELECT id FROM t SKYLINE OF x MIN"), [2]);
        // text, NULL, float (0.0 is -0.0) and beyond-i32 DIFF keys page:
        // each row competes within its group only
        let wide = Value::Int(i64::from(i32::MAX) + 1);
        let rows = [
            row(0, 1.0, "a".into()),
            row(1, 2.0, "a".into()),
            row(2, 1.0, Value::Null),
            row(3, 0.0, Value::Float(0.0)),
            row(4, 5.0, Value::Float(-0.0)),
            row(5, 1.0, wide.clone()),
            row(6, 0.5, wide),
            row(7, 0.5, Value::Int(i64::from(i32::MAX))),
        ];
        let sql = "SELECT id FROM t SKYLINE OF x MAX, k DIFF";
        assert_eq!(paged_ids(&rows, sql), [1, 2, 4, 5, 7]);
        // a NaN criterion is the typed non-numeric error
        let rows = vec![row(0, 1.0, Value::Null), row(1, f64::NAN, Value::Null)];
        let err = via_sql(rows, "SELECT id FROM t SKYLINE OF x MAX").unwrap_err();
        assert_eq!(
            err,
            QueryError::Semantic("row 1: skyline column x is not numeric".into())
        );
    }

    #[test]
    fn too_few_sort_pages_is_a_typed_error_before_anything_is_reserved() {
        let rows = random_table(2_000);
        let crit = vec![(0usize, false), (1usize, true)];
        for sort_pages in 0..MIN_SORT_PAGES {
            let (pool, disk) = (BufferPool::new(1 << 16), MemDisk::shared());
            let opts = ExecOptions::default()
                .with_sort_pages(sort_pages)
                .with_pool(pool.clone())
                .with_disk(disk.clone());
            let err = paged(&rows, &crit, &[], &opts).unwrap_err();
            assert!(
                matches!(&err, QueryError::Exec(m) if m.contains("sort_pages")),
                "sort_pages={sort_pages}: {err}"
            );
            assert_eq!((pool.peak(), pool.used()), (0, 0));
            assert_eq!(disk.allocated_pages(), 0);
        }
        // the floor itself works: one page to the filter, three to the sort
        let opts = ExecOptions::default().with_sort_pages(MIN_SORT_PAGES);
        let out = paged(&rows, &crit, &[], &opts).unwrap();
        assert_eq!(out, in_memory(&rows, &crit, &[]));
    }

    /// `n` rows of seven independent uniform `Int` criteria — the
    /// benchmark's `indep_d7` shape.
    fn indep_d7(n: usize) -> Vec<Tuple> {
        let mut rng = skyline_relation::Rng::seed_from_u64(0x1d7);
        (0..n)
            .map(|_| {
                Tuple::new(
                    (0..7)
                        .map(|_| Value::Int(rng.i64_inclusive(0, 9_999)))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn limit_10_stops_the_filter_early_and_leaves_nothing_behind() {
        use crate::catalog::Catalog;
        use skyline_relation::{Column, ColumnType, Schema, Table};
        let rows = indep_d7(5_000);
        let schema = Schema::new(
            (0..7)
                .map(|k| Column::new(format!("a{k}"), ColumnType::Int))
                .collect(),
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register("t", Table::new(schema, rows.clone()).unwrap());
        let sky =
            "SELECT * FROM t SKYLINE OF a0 MAX, a1 MIN, a2 MAX, a3 MIN, a4 MAX, a5 MIN, a6 MAX";
        // each run on its own pool and disk: rows, pages read
        let run = |sql: &str| {
            let (pool, disk) = (BufferPool::new(1 << 12), MemDisk::shared());
            let opts = ExecOptions::default()
                .with_pool(pool.clone())
                .with_disk(Arc::clone(&disk) as _);
            let out = crate::plan::execute_with(sql, &cat, &opts).unwrap();
            assert_eq!((pool.used(), disk.allocated_pages()), (0, 0), "{sql}");
            (out.into_rows(), disk.stats().reads())
        };
        let (full, full_reads) = run(sky);
        let (first, first_reads) = run(&format!("{sky} LIMIT 10"));
        assert!(full.len() > 100, "skyline of {}", full.len());
        assert_eq!(first.len(), 10);
        assert!(first.iter().all(|r| full.contains(r)), "not skyline rows");
        assert!(first_reads < full_reads, "{first_reads} vs {full_reads}");

        // the same stop on the engine alone, counted
        let crit: Vec<(usize, bool)> = (0..7).map(|k| (k, k % 2 == 1)).collect();
        let comparisons = |limit: usize| {
            let metrics = SkylineMetrics::shared();
            let mut left = limit;
            paged_skyline(
                columns(&rows, &crit, &[]),
                None,
                &ExecOptions::default(),
                Arc::clone(&metrics),
                |_| {
                    left -= 1;
                    if left == 0 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            )
            .unwrap();
            metrics.snapshot().comparisons
        };
        let (all, ten) = (comparisons(usize::MAX), comparisons(10));
        assert!(ten < all, "{ten} vs {all}");
    }

    /// [`ColumnEntries`] without the score lane: each entry re-encoded as
    /// entries were before they carried their score — key and group
    /// lanes, then the row id.
    struct Unscored(ColumnEntries, Vec<u8>);

    impl Operator for Unscored {
        fn open(&mut self) -> Result<(), ExecError> {
            self.0.open()
        }

        fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
            let Some(scored) = self.0.next()? else {
                return Ok(None);
            };
            let score_at = scored.len() - 16;
            self.1.clear();
            self.1.extend_from_slice(&scored[..score_at]);
            self.1.extend_from_slice(&scored[score_at + 8..]);
            Ok(Some(&self.1))
        }

        fn close(&mut self) {
            self.0.close();
        }

        fn record_size(&self) -> usize {
            self.0.record_size() - 8
        }
    }

    /// The paged path as it ran before entries carried their score: the
    /// same producer, filter, sort arena, window and pool, on the layout
    /// without the score lane. The row ids in emission order.
    fn unscored_reference(
        cols: SkylineColumns,
        opts: &ExecOptions,
        metrics: &Arc<SkylineMetrics>,
    ) -> Vec<usize> {
        let (d, grouped) = (cols.crit.len(), cols.groups.is_some());
        let narrow = NarrowLayout::new(d).with_diff(usize::from(grouped));
        let disk: Arc<dyn Disk> = MemDisk::shared();
        let window = recommend_window_pages(cols.rows(), d, 8 * d);
        let score = Arc::new(cols.entropy_score());
        let groups = cols.group_count();
        let filter =
            GroupedElimination::new(d, groups, Arc::clone(&score) as _, Arc::clone(metrics));
        let arena = sort_pages_for(opts, cols.rows(), narrow.entry_size()) - 1;
        let scored = narrow.with_score();
        let entries = ColumnEntries::new(cols, scored, filter, None, Arc::clone(metrics));
        let entries = Box::new(Unscored(entries, Vec::new()));
        let sorted = sort_narrow(entries, narrow, score, arena, 1, Arc::clone(&disk));
        let sorted = Arc::new(sorted.unwrap());
        let free = opts.pool.as_ref().map_or(usize::MAX, BufferPool::available);
        let cfg = BatchConfig::new(window.min(free).max(1));
        let scan = Box::new(HeapScan::new(sorted));
        let mut sfs = BatchSfs::new(scan, narrow, cfg, disk, Arc::clone(metrics)).unwrap();
        if let Some(pool) = &opts.pool {
            sfs = sfs.with_pool(pool.clone());
        }
        let out = skyline_exec::collect(&mut sfs).unwrap();
        out.iter().map(|e| narrow.row_id(e) as usize).collect()
    }

    /// Carrying the score changes what the paged path emits, and in what
    /// order, not at all; nor any counter but `bytes_moved`, which grows
    /// by exactly 8 bytes for every entry moved. Checked against
    /// [`unscored_reference`] with and without DIFF lanes, under the
    /// defaults and under a quota that makes the window spill and the
    /// sort form many runs.
    #[test]
    fn the_score_lane_changes_no_emission_and_no_counter_but_bytes_moved() {
        use skyline_core::MetricsSnapshot;
        let mut rng = skyline_relation::Rng::seed_from_u64(0x5C0E);
        let n = 4_000i64;
        // anti-correlated pairs plus two noise columns, and a small-domain
        // DIFF column set
        let rows: Vec<Tuple> = (0..n)
            .map(|i| {
                tuple![
                    i + rng.i64_inclusive(0, 40),
                    n - i + rng.i64_inclusive(0, 40),
                    rng.i64_inclusive(0, 9),
                    rng.i64_inclusive(-3, 3),
                    i % 8,
                    i % 3,
                    (i / 7) % 2
                ]
            })
            .collect();
        let clauses = [
            (vec![(0, false), (1, false)], vec![]),
            (vec![(0, false), (1, true), (2, false), (3, true)], vec![]),
            (vec![(2, false), (3, true)], vec![4]),
            (vec![(0, true), (2, false), (3, false)], vec![4, 5, 6]),
        ];
        let tight = BufferPool::new(6);
        let configs = [
            ExecOptions::default(),
            ExecOptions::default().with_pool(tight).with_sort_pages(4),
        ];
        let mut spilled = false;
        for (crit, diff) in &clauses {
            let oracle = in_memory(&rows, crit, diff);
            for (c, opts) in configs.iter().enumerate() {
                let (scored, unscored) = (SkylineMetrics::shared(), SkylineMetrics::shared());
                let mut got = Vec::new();
                let cols = columns(&rows, crit, diff);
                paged_skyline(cols, None, opts, Arc::clone(&scored), |id| {
                    got.push(id);
                    ControlFlow::Continue(())
                })
                .unwrap();
                let want = unscored_reference(columns(&rows, crit, diff), opts, &unscored);
                let label = format!("{crit:?} DIFF {diff:?} config {c}");
                assert_eq!(got, want, "{label}");
                assert_eq!(got.len(), oracle.len(), "{label}");
                let (a, b) = (scored.snapshot(), unscored.snapshot());
                let entry = 8 * (crit.len() + usize::from(!diff.is_empty()) + 1) as u64;
                assert_eq!(b.bytes_moved % entry, 0, "{label}");
                let moved = b.bytes_moved / entry;
                assert!(moved >= got.len() as u64, "{label}");
                assert_eq!(a.bytes_moved, b.bytes_moved + 8 * moved, "{label}");
                let a = MetricsSnapshot {
                    bytes_moved: b.bytes_moved,
                    ..a
                };
                assert_eq!(a, b, "{label}");
                spilled |= b.passes > 1;
            }
        }
        assert!(spilled, "no clause made the window spill");
    }

    #[test]
    fn empty_rows_ok() {
        let out = paged(&[], &[(0, false)], &[], &ExecOptions::default()).unwrap();
        assert!(out.is_empty());
    }
}
