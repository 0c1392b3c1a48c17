//! `SKYLINE OF` on the paged external engine.
//!
//! Every SQL skyline runs here, whatever the relation's size, as one
//! drain fed by one of two sources (DESIGN §16.4):
//!
//! - *filter and presort* ([`external_skyline_with`]): column entries →
//!   elimination filter → entropy presort → SFS → drain, for every
//!   clause but the one below;
//! - *ranked* ([`ranked_skyline_with`]): under `ORDER BY <criterion> …
//!   LIMIT k` the planner may pick a *walk* of that criterion's sorted
//!   order ([`KeyColumn::order`]) from its best end, one equal-lead group
//!   at a time — a nested order with the lead first, itself a valid
//!   presort — straight into the same SFS window, ending at the first
//!   group whose lead is worse than the `k`-th answer's. Its work follows
//!   the rows it feeds: no elimination filter, no sort, no heap, and
//!   over a `WHERE` no gathered column. A walk that feeds SFS many rows
//!   per answer gives up, and the first source answers.
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
    sort_narrow, BatchConfig, BatchSfs, GroupedElimination, Survey, CHUNK_ROWS,
};
use skyline_core::{EntropyScore, SkylineMetrics};
use skyline_exec::cancel::{poll, poll_now};
use skyline_exec::sort::f64_ascending_bits;
use skyline_exec::{BoxedOperator, CancelToken, ExecError, HeapScan, NarrowLayout, Operator};
use skyline_relation::{KeyColumn, TableStats};
use skyline_storage::{BufferLease, BufferPool, Disk, MemDisk, PAGE_SIZE};
use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

/// The columns one `SKYLINE OF` clause reads, as the relation holds
/// them: criterion `k` of row `i`, in the all-max orientation, is
/// `crit[k].1 * crit[k].0.values()[i]`.
#[derive(Clone)]
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

    /// The columns of the rows at positions `rows`, in that order
    /// ([`KeyColumn::gather`]), with no `DIFF` groups.
    ///
    /// # Panics
    /// When a column holds no values.
    fn gather(&self, rows: &[usize]) -> SkylineColumns {
        let gather = |(c, sign): &(Arc<KeyColumn>, f64)| {
            let gathered = c.gather(rows).expect("the columns hold values");
            (Arc::new(gathered), *sign)
        };
        SkylineColumns {
            crit: self.crit.iter().map(gather).collect(),
            groups: None,
        }
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

/// The ranked source serves `LIMIT k` only while `RANKED_MARGIN · k` is
/// at most the §6 estimate of the skyline's size (the planner's rule),
/// and the walk goes on only while the §6 estimate of the rows it has
/// fed is at most `RANKED_MARGIN · (answers + 1)` (the give-up rule): a
/// walk that feeds SFS many rows per answer is cheaper as the filter
/// and presort (EXPERIMENTS.md "Ranked top-k", crossover tables).
pub(crate) const RANKED_MARGIN: f64 = 4.0;

/// The walk gives up on an equal-lead group of more than
/// `1 / GROUP_SHARE` of the relation's rows, and at least
/// [`GROUP_FLOOR`]: it feeds SFS every row of a group before it can
/// stop, so a lead of few values would feed most of the relation, which
/// the elimination filter drops far more cheaply.
const GROUP_SHARE: usize = 256;

/// The fewest rows of an equal-lead group that make the walk give up.
const GROUP_FLOOR: usize = 64;

/// The most rows an equal-lead group of a relation of `rows` rows may
/// hold before the walk gives up.
pub(crate) fn group_cap(rows: usize) -> usize {
    (rows / GROUP_SHARE).max(GROUP_FLOOR)
}

/// The order key of an oriented lead: ascending with the value, `−0.0`
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

/// What the drain and the walk tell each other: how many rows have left
/// SFS, the `k`-th one's lead once it has, and whether the walk gave up.
struct Progress {
    k: u64,
    /// The lead criterion's position in the clause.
    lead: usize,
    answers: Cell<u64>,
    kth_lead: Cell<Option<u64>>,
    gave_up: Cell<bool>,
}

/// The ranked source, a *walk*: the relation's rows as narrow entries
/// (key lanes and row id), read off the lead criterion's sorted order
/// ([`KeyColumn::order`]) from its best end — forward for a `MIN` lead,
/// backward for a `MAX` — one equal-lead group at a time, each group
/// nested-descending over the key and then by row. A row that dominates
/// another has a lead at least as good, and on a tie is ahead in the
/// nested order, so this is a topological sort of dominance — a valid
/// SFS presort (Theorems 6/7).
///
/// Once the drain has emitted the `k`-th row the walk ends at the first
/// group whose lead is strictly worse: every skyline row at least that
/// good has been fed, which is all an `ORDER BY` with that lead first
/// can pick the first `k` from. Its work follows the rows it feeds, not
/// the relation. It gives up ([`Progress::gave_up`]) at a group boundary
/// once E(r, d), the §6 estimate of the skyline rows among the `r` rows
/// fed, passes [`RANKED_MARGIN`] · (answers + 1); on a group past
/// [`group_cap`]; and, over a selection, once it has walked more table
/// rows than the selection holds.
struct Walk {
    /// The columns the walk reads: the relation's, or those of the table
    /// `selection` picks the relation's rows from.
    cols: SkylineColumns,
    /// The relation's rows among the columns' rows, ascending: a
    /// `WHERE`'s matches. A binary search in it tells a member and its
    /// row number in the relation.
    selection: Option<Arc<Vec<usize>>>,
    narrow: NarrowLayout,
    /// Rows of the lead's order walked so far, from its best end.
    walked: usize,
    /// The equal-lead group in hand — each member's row in the columns
    /// and in the relation — in feed order, and how many have gone.
    group: Vec<(usize, usize)>,
    taken: usize,
    /// `expected[j]` is m(r, j + 1) of the §6 recurrence over the `r`
    /// rows fed so far, so the last lane is E(r, d).
    expected: Vec<f64>,
    fed: usize,
    progress: Rc<Progress>,
    cancel: Option<CancelToken>,
    lanes: Vec<f64>,
    entry: Vec<u8>,
}

impl Walk {
    /// A walk of `cols` — through `selection`, when given — by criterion
    /// `ranked.lead`. Sorts the lead column on its first walk.
    fn new(
        cols: SkylineColumns,
        selection: Option<Arc<Vec<usize>>>,
        Ranked { lead, k }: Ranked,
        cancel: Option<CancelToken>,
    ) -> Self {
        let d = cols.crit.len();
        cols.crit[lead].0.order();
        Walk {
            narrow: NarrowLayout::new(d),
            cols,
            selection,
            walked: 0,
            group: Vec::new(),
            taken: 0,
            expected: vec![0.0; d],
            fed: 0,
            progress: Rc::new(Progress {
                k: k as u64,
                lead,
                answers: Cell::new(0),
                kth_lead: Cell::new(None),
                gave_up: Cell::new(false),
            }),
            cancel,
            lanes: Vec::new(),
            entry: Vec::new(),
        }
    }

    /// Collect the next equal-lead group that holds a row of the
    /// relation, in feed order: `false` when the walk ends instead —
    /// past the `k`-th answer's lead, at the end of the order, or giving
    /// up.
    fn next_group(&mut self) -> Result<bool, ExecError> {
        let (column, sign) = &self.cols.crit[self.progress.lead];
        let (values, order, sign) = (column.values(), column.order(), *sign);
        let n = order.len();
        let m = self.selection.as_ref().map_or(n, |s| s.len());
        let at = |walked: usize| order[if sign < 0.0 { walked } else { n - 1 - walked }] as usize;
        let lead = |row: usize| lead_bits(sign * values[row]);
        let progress = &self.progress;
        let give_up = || -> Result<bool, ExecError> {
            progress.gave_up.set(true);
            Ok(false)
        };
        self.group.clear();
        self.taken = 0;
        while self.group.is_empty() {
            if self.walked == n {
                return Ok(false);
            }
            let bits = lead(at(self.walked));
            // strictly worse than the k-th answer: no later row can be
            // among the first k of the ORDER BY
            if progress.kth_lead.get().is_some_and(|kth| bits < kth) {
                return Ok(false);
            }
            let answers = progress.answers.get() as f64;
            if self.expected[self.expected.len() - 1] > RANKED_MARGIN * (answers + 1.0) {
                return give_up();
            }
            while self.walked < n && lead(at(self.walked)) == bits {
                poll(self.cancel.as_ref(), self.walked as u64)?;
                let row = at(self.walked);
                self.walked += 1;
                let member = match &self.selection {
                    Some(selection) => selection.binary_search(&row).ok(),
                    None => Some(row),
                };
                self.group.extend(member.map(|i| (row, i)));
                if self.group.len() > group_cap(m) || (self.selection.is_some() && self.walked > m)
                {
                    return give_up();
                }
            }
        }
        if self.group.len() > 1 {
            let crit = &self.cols.crit;
            self.group
                .sort_unstable_by(|a, b| nested_desc(crit, a.0, b.0).then(a.1.cmp(&b.1)));
        }
        Ok(true)
    }
}

impl Operator for Walk {
    fn open(&mut self) -> Result<(), ExecError> {
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        if self.taken == self.group.len() && !self.next_group()? {
            return Ok(None);
        }
        let (row, id) = self.group[self.taken];
        self.taken += 1;
        // the §6 recurrence one row on: m(r, 1) = 1, then
        // m(r, j) += m(r, j − 1) / r, lane by lane
        self.fed += 1;
        let r = self.fed as f64;
        self.expected[0] = 1.0;
        for j in 1..self.expected.len() {
            self.expected[j] += self.expected[j - 1] / r;
        }
        self.lanes.clear();
        self.cols.key_into(row, &mut self.lanes);
        self.narrow
            .encode_into(&self.lanes, id as u64, &mut self.entry);
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
    paged_skyline(Source::Presort(cols), opts, SkylineMetrics::shared(), emit)
}

/// [`external_skyline_with`] fed by the ranked source instead of the
/// filter and presort: for a clause without `DIFF` whose `ORDER BY`
/// starts with criterion `ranked.lead` in its preferred direction under
/// `LIMIT ranked.k`. `emit` sees every skyline row whose lead is at
/// least as good as that of the `k`-th row out of SFS — a superset of
/// the first `k` rows of any such `ORDER BY` — and possibly a few more;
/// the caller sorts and cuts.
///
/// With `selection`, the relation is those rows of `cols`, ascending (a
/// `WHERE`'s matches of the table whose resident columns `cols` holds),
/// and `emit` sees row numbers among them; every column of `cols` must
/// then hold values.
///
/// The walk's rows are held until it ends, then handed to `emit`. When
/// it gives up, they are dropped, the window is closed, and the filter
/// and presort run instead, emitting the whole skyline in presort order
/// — which the caller's sort and cut answer from alike. The window is
/// the walk's only charge to the quota pool.
///
/// # Errors
/// As [`external_skyline_with`].
///
/// # Panics
/// When `ranked.lead` is not a position of `cols.crit`, and when a
/// column holds no values under a `selection`.
pub fn ranked_skyline_with(
    cols: SkylineColumns,
    selection: Option<Arc<Vec<usize>>>,
    ranked: Ranked,
    opts: &ExecOptions,
    emit: impl FnMut(usize) -> ControlFlow<()>,
) -> Result<(), QueryError> {
    let walk = Walk::new(cols, selection, ranked, opts.cancel.clone());
    paged_skyline(Source::Walk(walk), opts, SkylineMetrics::shared(), emit)
}

/// What feeds the drain: the filter and presort over these columns, or
/// the walk.
enum Source {
    Presort(SkylineColumns),
    Walk(Walk),
}

/// [`external_skyline_with`], or [`ranked_skyline_with`] given a walk,
/// counting into `metrics`.
fn paged_skyline(
    source: Source,
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
    let disk: Arc<dyn Disk> = match &opts.disk {
        Some(d) => Arc::clone(d),
        None => MemDisk::shared(),
    };
    let cols = match source {
        Source::Presort(cols) => cols,
        Source::Walk(walk) => {
            // the columns back for the presort, should the walk give up
            let (cols, selection) = (walk.cols.clone(), walk.selection.clone());
            let rows = selection.as_ref().map_or(cols.rows(), |s| s.len());
            let (progress, narrow) = (Rc::clone(&walk.progress), walk.narrow);
            let mut held = Vec::new();
            drain(
                Box::new(walk),
                narrow,
                window_pages(rows, cols.crit.len()),
                Arc::clone(&disk),
                Arc::clone(&metrics),
                Some(&progress),
                opts,
                |row| {
                    held.push(row);
                    ControlFlow::Continue(())
                },
            )?;
            if !progress.gave_up.get() {
                let _ = held.into_iter().try_for_each(emit);
                return Ok(());
            }
            match selection {
                Some(rows) => cols.gather(&rows),
                None => cols,
            }
        }
    };
    let window = window_pages(cols.rows(), cols.crit.len());
    let (narrow, sorted) = presort(cols, opts, &disk, &metrics)?;
    let scan = Box::new(HeapScan::new(Arc::new(sorted)));
    drain(scan, narrow, window, disk, metrics, None, opts, emit)
}

/// The §6 estimate for `rows` rows of `d` criteria, in window pages: a
/// narrow window entry is the key alone, 8·d bytes.
fn window_pages(rows: usize, d: usize) -> usize {
    recommend_window_pages(rows, d, 8 * d)
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

/// The one SFS drain, whichever source feeds it: a window over the
/// presorted `source`'s entries of `narrow`, starting at the §6 estimate
/// of `window_pages`, each survivor's row id to `emit` until it breaks.
/// `progress`, for the walk, learns each answer and the `k`-th one's
/// lead; the drain ends once the walk has given up.
fn drain(
    source: BoxedOperator,
    narrow: NarrowLayout,
    window_pages: usize,
    disk: Arc<dyn Disk>,
    metrics: Arc<SkylineMetrics>,
    progress: Option<&Progress>,
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
        if let Some(progress) = progress {
            if progress.gave_up.get() {
                break;
            }
            progress.answers.set(emitted);
            if emitted == progress.k {
                let lead = narrow.key_dim(entry, progress.lead);
                progress.kth_lead.set(Some(lead_bits(lead)));
            }
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
    use skyline_core::cardinality::expected_skyline_size;
    use skyline_core::MetricsSnapshot;
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
        ranked_skyline_with(columns(rows, crit, &[]), None, ranked, opts, |id| {
            ids.push(id);
            ControlFlow::Continue(())
        })?;
        Ok(ids)
    }

    /// The walk alone through the drain, with no presort to give up to:
    /// the row ids SFS emitted, in order, whether the walk gave up, and
    /// how many rows it fed.
    fn walk_only(
        cols: SkylineColumns,
        selection: Option<Arc<Vec<usize>>>,
        rank: Ranked,
        opts: &ExecOptions,
    ) -> Result<(Vec<usize>, bool, u64), QueryError> {
        let rows = selection.as_ref().map_or(cols.rows(), |s| s.len());
        let pages = window_pages(rows, cols.crit.len());
        let walk = Walk::new(cols, selection, rank, opts.cancel.clone());
        let (progress, narrow) = (Rc::clone(&walk.progress), walk.narrow);
        let (metrics, mut ids) = (SkylineMetrics::shared(), Vec::new());
        drain(
            Box::new(walk),
            narrow,
            pages,
            MemDisk::shared(),
            Arc::clone(&metrics),
            Some(&progress),
            opts,
            |id| {
                ids.push(id);
                ControlFlow::Continue(())
            },
        )?;
        let fed = metrics.snapshot().input_records;
        Ok((ids, progress.gave_up.get(), fed))
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
    /// two columns every row is skyline and none dominates another.
    fn anti_diagonal(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| tuple![i, n - i, i % 3]).collect()
    }

    #[test]
    fn the_window_is_the_only_charge_of_the_ranked_source() {
        // The walk holds no lease of its own: the window is charged at
        // open, the §6 estimate's worth, and comes back at close.
        let crit = vec![(0usize, false), (1usize, true)];
        let rows: Vec<Tuple> = (0..2_000i64)
            .map(|i| tuple![(i * 37) % 2_003, (i * 53) % 97])
            .collect();
        let window = window_pages(rows.len(), 2);
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
            assert_eq!((pool.peak(), pool.used()), (window, 0), "{k}");
        }
        // A one-page pool: the window starts at that page. Every row of
        // an anti-diagonal is skyline, so past 256 answers it spills,
        // pass after pass, and the answer holds; a presort would not
        // have fitted the pool.
        let (rows, crit) = (anti_diagonal(2_000), [(0usize, false), (1usize, false)]);
        let disk = MemDisk::shared();
        for (lead, k) in [(0, 1), (1, 7), (0, 300)] {
            let pool = BufferPool::new(1);
            let opts = ExecOptions::default()
                .with_pool(pool.clone())
                .with_disk(Arc::clone(&disk) as _);
            let metrics = SkylineMetrics::shared();
            let mut ids = Vec::new();
            let walk = Walk::new(columns(&rows, &crit, &[]), None, Ranked { lead, k }, None);
            paged_skyline(Source::Walk(walk), &opts, Arc::clone(&metrics), |id| {
                ids.push(id);
                ControlFlow::Continue(())
            })
            .unwrap();
            assert_eq!(
                cut(&rows, &crit, lead, k, ids),
                top_k(&rows, &crit, lead, k)
            );
            // a one-page window holds 256 keys: past them it spills
            assert_eq!(metrics.snapshot().passes > 1, k > 256, "{lead} {k}");
            assert_eq!((pool.peak(), pool.used()), (1, 0));
            assert_eq!(disk.allocated_pages(), 0);
        }
    }

    /// The walk, tripping `token` once it has walked `at` rows.
    struct TripWhileWalking(Walk, CancelToken, usize);

    impl Operator for TripWhileWalking {
        fn open(&mut self) -> Result<(), ExecError> {
            self.0.open()
        }

        fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
            if self.0.walked >= self.2 {
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
    fn a_cancel_while_walking_ends_within_one_block_and_leaves_nothing_behind() {
        let crit = vec![(0usize, false), (1usize, false)];
        let rows = anti_diagonal(2_000);
        let rank = Ranked { lead: 0, k: 1_000 };
        let (pool, disk) = (BufferPool::new(1 << 12), MemDisk::shared());
        // tripped before the walk: its first poll sees it
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
        // tripped mid-walk: seen at the next 256-row poll, the window
        // back in the pool and no row emitted
        for trip in [1, 255, 256, 300, 900] {
            let token = CancelToken::new();
            let opts = opts.clone().with_cancel(token.clone());
            let walk = Walk::new(columns(&rows, &crit, &[]), None, rank, Some(token.clone()));
            let (progress, narrow) = (Rc::clone(&walk.progress), walk.narrow);
            let mut emitted = 0;
            let err = drain(
                Box::new(TripWhileWalking(walk, token, trip)),
                narrow,
                window_pages(rows.len(), 2),
                Arc::clone(&disk) as _,
                SkylineMetrics::shared(),
                Some(&progress),
                &opts,
                |_| {
                    emitted += 1;
                    ControlFlow::Continue(())
                },
            )
            .unwrap_err();
            let QueryError::Cancelled { records_processed } = err else {
                panic!("{err}");
            };
            let seen = records_processed as usize;
            assert!(trip <= seen && seen <= trip + 256, "{trip}: {seen}");
            assert!(pool.peak() > 0);
            assert_eq!((pool.used(), disk.allocated_pages()), (0, 0), "{trip}");
            assert!(emitted <= seen, "{trip}");
        }
    }

    #[test]
    fn the_ranked_source_stops_after_the_kth_rows_lead_and_keys_zeros_as_one() {
        // Row i is (i/10 + 1, i): under MIN on the first and MAX on the
        // second, the last row of each run of ten is skyline and leads
        // tie in runs. -0.0 and +0.0 are one lead: the row (+0.0, 5)
        // dominates (−0.0, 3) — whose oriented lead, +0.0, has the larger
        // bits, and which the column's order puts ahead of it for MIN —
        // so it must be fed first.
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
            let rank = Ranked { lead, k };
            let opts = ExecOptions::default();
            let want = top_k(&rows, &crit, lead, k);
            let ids = ranked(&rows, &crit, rank, &opts).unwrap();
            assert_eq!(cut(&rows, &crit, lead, k, ids), want, "{crit:?} {k}");
            // the walk alone answers, having fed SFS a prefix of the
            // relation: k runs of ten at most, and the zeros
            let cols = columns(&rows, &crit, &[]);
            let (ids, gave_up, fed) = walk_only(cols, None, rank, &opts).unwrap();
            assert!(!gave_up, "{crit:?} {k}");
            assert_eq!(cut(&rows, &crit, lead, k, ids), want, "{crit:?} {k}");
            assert!(fed <= 10 * k as u64 + 2, "{crit:?} {k}: fed {fed}");
        }
        // MIN of the first: (+0.0, 5) is the one skyline row of lead 0
        let crit = [(0usize, true), (1usize, false)];
        assert_eq!(top_k(&rows, &crit, 0, 2), [1_000, 9]);
        // -0.0 and +0.0 are one order key
        assert_eq!(lead_bits(-0.0), lead_bits(0.0));
        assert!(lead_bits(-1.0) < lead_bits(-0.0) && lead_bits(0.0) < lead_bits(f64::MIN_POSITIVE));
    }

    /// The fewest rows r with E(r, d) > `RANKED_MARGIN · (answers + 1)`:
    /// the rows of distinct leads a walk feeds before it gives up, at
    /// most, on a relation of `answers` skyline rows.
    fn give_up_bound(answers: usize, d: usize) -> u64 {
        let limit = RANKED_MARGIN * (answers + 1) as f64;
        (1..)
            .find(|&r| expected_skyline_size(r, d) > limit)
            .unwrap() as u64
    }

    /// Rows of three mutually incomparable corners under `MAX` on all
    /// three columns, each strictly dominating a third of the other rows
    /// and nothing else: no single front drops more than a third, and
    /// the skyline is the corners. The first column takes ~10⁶ values.
    fn three_corners(n: usize) -> Vec<Tuple> {
        let top = 1_000_000i64;
        let mut rng = skyline_relation::Rng::seed_from_u64(0x3C0);
        let mut rows = vec![
            tuple![0, top, top],
            tuple![top, 0, top],
            tuple![top, top, 0],
        ];
        rows.extend((3..n).map(|i| {
            let mut v = [1, 2, 3].map(|_| rng.i64_inclusive(1, top - 1));
            // below its corner's zero: out of reach of the other two
            v[i % 3] = -v[i % 3];
            tuple![v[0], v[1], v[2]]
        }));
        rows
    }

    #[test]
    fn the_give_up_rule_sends_the_walk_to_the_presort_within_its_bound() {
        let mut rng = skyline_relation::Rng::seed_from_u64(0x61E);
        // a correlated table: every criterion is the row number plus a
        // little noise, so the skyline is a few of the last rows
        let correlated: Vec<Tuple> = (0..20_000i64)
            .map(|i| {
                let v = [1, 2, 3, 4].map(|_| i + rng.i64_inclusive(0, 20));
                tuple![v[0], v[1], v[2], v[3]]
            })
            .collect();
        // a lead of 5 values beside three of 4 000
        let five: Vec<Tuple> = (0..20_000i64)
            .map(|i| {
                let v = [1, 2, 3].map(|_| rng.i64_inclusive(0, 3_999));
                tuple![i % 5, v[0], v[1], v[2]]
            })
            .collect();
        let all_max = |d: usize| (0..d).map(|c| (c, false)).collect::<Vec<_>>();
        for (name, rows, crit) in [
            ("correlated", correlated, all_max(4)),
            ("three corners", three_corners(30_000), all_max(3)),
            ("five values", five, all_max(4)),
        ] {
            let d = crit.len();
            // the largest eligible LIMIT
            let k = (expected_skyline_size(rows.len(), d) / RANKED_MARGIN) as usize;
            let opts = ExecOptions::default();
            // the presort's emission: the whole skyline, in its order
            let mut sky = Vec::new();
            external_skyline_with(columns(&rows, &crit, &[]), &opts, |id| {
                sky.push(id);
                ControlFlow::Continue(())
            })
            .unwrap();
            let cols = columns(&rows, &crit, &[]);
            let (_, gave_up, fed) = walk_only(cols, None, Ranked { lead: 0, k }, &opts).unwrap();
            assert!(gave_up, "{name}");
            if name == "five values" {
                // the first group passes its cap before a row is fed
                assert!(rows.len() / 5 > group_cap(rows.len()));
                assert_eq!(fed, 0, "{name}");
            } else {
                // distinct leads but for ties of a few rows
                assert!(sky.len() < k, "{name}: {} of {k}", sky.len());
                let ties = 21;
                let bound = give_up_bound(sky.len(), d) + ties;
                assert!(fed <= bound, "{name}: fed {fed} of {bound}");
            }
            // and the presort answers
            let ids = ranked(&rows, &crit, Ranked { lead: 0, k }, &opts).unwrap();
            assert_eq!(ids, sky, "{name}");
        }
        // E(r, d) is the §6 recurrence, one fed row at a time
        let rows = anti_diagonal(300);
        let rank = Ranked { lead: 1, k: 300 };
        let mut walk = Walk::new(columns(&rows, &all_max(3), &[]), None, rank, None);
        // as if every row fed had left SFS
        walk.progress.answers.set(300);
        for r in 1..=300 {
            walk.next().unwrap().unwrap();
            assert_eq!(walk.expected[2], expected_skyline_size(r, 3), "{r}");
        }
    }

    #[test]
    fn a_lead_of_few_values_takes_the_presort_and_answers_alike() {
        // A lead of 5 values: a fifth of the rows tie at the best, past
        // the group cap, so the walk gives up before it feeds a row and
        // its window is closed before the presort's arena is taken.
        let crit = [(0usize, false), (1usize, false), (2usize, true)];
        for (n, k) in [(2_000i64, 1), (2_000, 3), (4_000, 1), (4_000, 5)] {
            let rows: Vec<Tuple> = (0..n)
                .map(|i| tuple![i % 5, (i * 37) % 3_999, (i * 53) % 4_003])
                .collect();
            let pool = BufferPool::new(1 << 16);
            let opts = ExecOptions::default().with_pool(pool.clone());
            let ids = ranked(&rows, &crit, Ranked { lead: 0, k }, &opts).unwrap();
            // the presort emits the whole skyline, the walk would have
            // stopped at the best lead
            let mut all = ids.clone();
            all.sort_unstable();
            assert_eq!(all, in_memory(&rows, &crit, &[]), "{n} {k}");
            assert_eq!(cut(&rows, &crit, 0, k, ids), top_k(&rows, &crit, 0, k));
            let arena = sort_pages_for(&opts, rows.len(), 40);
            let window = window_pages(rows.len(), 3);
            assert_eq!(pool.peak(), arena.max(window), "{n} {k}");
            assert_eq!(pool.used(), 0);
        }
    }

    #[test]
    fn a_light_shaped_query_walks_to_its_answer_without_giving_up() {
        // `SELECT * FROM small WHERE a < 2500 SKYLINE OF a MIN, b MIN,
        // c MAX, d MAX ORDER BY a LIMIT 20` over 10 000 rows of four
        // columns in 0..=9 999: the walk reads the whole table's order of
        // `a` through the selection and feeds SFS only the rows up to the
        // 20th answer's lead.
        let mut rng = skyline_relation::Rng::seed_from_u64(2003);
        let rows: Vec<Tuple> = (0..10_000)
            .map(|_| {
                let v = [1, 2, 3, 4].map(|_| rng.i64_inclusive(0, 9_999));
                tuple![v[0], v[1], v[2], v[3]]
            })
            .collect();
        let crit = [(0usize, true), (1, true), (2, false), (3, false)];
        let selection: Vec<usize> = (0..rows.len())
            .filter(|&i| rows[i].get(0).as_i64().unwrap() < 2_500)
            .collect();
        let matches: Vec<Tuple> = selection.iter().map(|&i| rows[i].clone()).collect();
        let k = 20;
        let want = top_k(&matches, &crit, 0, k);
        let cols = columns(&rows, &crit, &[]);
        let rank = Ranked { lead: 0, k };
        let opts = ExecOptions::default();
        let (ids, gave_up, fed) =
            walk_only(cols.clone(), Some(Arc::new(selection.clone())), rank, &opts).unwrap();
        assert!(!gave_up);
        assert_eq!(cut(&matches, &crit, 0, k, ids), want);
        // fed: the matches whose `a` is at most the 20th answer's
        let last = matches[want[k - 1]].get(0).as_i64().unwrap();
        let ahead = matches
            .iter()
            .filter(|r| r.get(0).as_i64().unwrap() <= last)
            .count();
        assert_eq!(fed, ahead as u64);
        assert!(fed < selection.len() as u64 / 10, "fed {fed}");
        // through the source: the same answer
        let mut ids = Vec::new();
        ranked_skyline_with(cols, Some(Arc::new(selection)), rank, &opts, |id| {
            ids.push(id);
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(cut(&matches, &crit, 0, k, ids), want);
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
                Source::Presort(columns(&rows, &crit, &[])),
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
                paged_skyline(Source::Presort(cols), opts, Arc::clone(&scored), |id| {
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
