//! `SKYLINE OF` on the paged external engine.
//!
//! Every SQL skyline runs here, whatever the relation's size, as one
//! straight path: column entries → elimination filter → entropy presort
//! → SFS → drain. The planner holds the clause's key columns
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
//! score lane ([`NarrowLayout::with_score`]): the elimination filter's
//! `admit` computes it, or the producer does on a DIFF clause, which has
//! no filter. The sort's run formation, its merge and its comparisons
//! within a DIFF group read the lane instead of scoring the key again.
//!
//! Ahead of the sort sits a LESS [`EliminationFilter`]: one page of the
//! best-entropy keys seen so far. Each chunk is screened against its
//! best-scored entry column at a time, only the survivors are gathered
//! into keys and probed against the whole page, and only what that
//! admits is encoded — so a row some earlier row strictly dominates
//! costs no encode, arena byte, run page, merge step or filter probe. It
//! is exact (every dropped row is dominated by a forwarded one) and its
//! page is the sort's own — the rest of the sort's pages go to the
//! arena — so no lease grows. It stays out only with a DIFF lane, where
//! incomparable groups interleave in the unsorted stream.
//!
//! [`external_skyline_with`] honours the [`ExecOptions`] contract: each
//! pass's arena is charged against the optional quota pool (sort arena
//! while sorting, filter window while filtering), the cancel token is
//! polled while entries stream and inside the operators, and spills go
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
use skyline_core::external::{sort_narrow, BatchConfig, BatchSfs, EliminationFilter};
use skyline_core::{EntropyScore, MonotoneScore, SkylineMetrics};
use skyline_exec::cancel::{poll, CANCEL_CHECK_INTERVAL};
use skyline_exec::{CancelToken, ExecError, HeapScan, NarrowLayout, Operator};
use skyline_relation::{KeyColumn, TableStats};
use skyline_storage::{BufferLease, BufferPool, Disk, MemDisk, PAGE_SIZE};
use std::ops::ControlFlow;
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

/// Rows read off the columns between cancellation polls — and the unit
/// the elimination filter screens column at a time.
const CHUNK_ROWS: usize = CANCEL_CHECK_INTERVAL as usize;

/// The key columns lent to the external operators as narrow entries, row
/// index as the row id, a chunk of rows at a time. Rows the elimination
/// filter drops are skipped before they are gathered or encoded.
struct ColumnEntries {
    cols: SkylineColumns,
    narrow: NarrowLayout,
    filter: Option<EliminationFilter>,
    /// The presort's score, written into the score lane `narrow` carries
    /// ([`NarrowLayout::with_score`]). The lane gets the score the filter
    /// computed in `admit` (it ranks by this same score), or, with no
    /// filter, the one computed here: once per entry either way.
    score: Arc<EntropyScore>,
    cancel: Option<CancelToken>,
    /// First row of the chunk in hand, and of the one after it.
    chunk: usize,
    next_chunk: usize,
    /// Offsets into the chunk of the rows its screen let through, and
    /// how many of them have been consumed.
    survivors: Vec<u32>,
    taken: usize,
    lanes: Vec<f64>,
    entry: Vec<u8>,
}

impl ColumnEntries {
    fn new(
        cols: SkylineColumns,
        narrow: NarrowLayout,
        filter: Option<EliminationFilter>,
        score: Arc<EntropyScore>,
        cancel: Option<CancelToken>,
    ) -> Self {
        ColumnEntries {
            cols,
            narrow,
            filter,
            score,
            cancel,
            chunk: 0,
            next_chunk: 0,
            survivors: Vec::new(),
            taken: 0,
            lanes: Vec::new(),
            entry: Vec::new(),
        }
    }
}

impl Operator for ColumnEntries {
    fn open(&mut self) -> Result<(), ExecError> {
        (self.chunk, self.next_chunk, self.taken) = (0, 0, 0);
        self.survivors.clear();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        loop {
            while let Some(&offset) = self.survivors.get(self.taken) {
                self.taken += 1;
                let row = self.chunk + offset as usize;
                self.lanes.clear();
                self.cols.key_into(row, &mut self.lanes);
                if self.filter.as_mut().is_some_and(|f| !f.admit(&self.lanes)) {
                    continue;
                }
                let score = match &self.filter {
                    Some(f) => f.admitted_score(),
                    None => self.score.score(&self.lanes),
                };
                let group = self.cols.groups.as_ref().map(|g| g[row] as f64);
                self.lanes.extend(group);
                self.lanes.push(score);
                self.narrow
                    .encode_into(&self.lanes, row as u64, &mut self.entry);
                return Ok(Some(&self.entry));
            }
            // Chunk boundary: the filter's counters reach the shared
            // metrics, then the token is polled — per row consumed, not
            // per row emitted, since the filter may drop almost everything.
            if let Some(filter) = &mut self.filter {
                filter.settle();
            }
            poll(self.cancel.as_ref(), self.next_chunk as u64)?;
            let (lo, hi) = (
                self.next_chunk,
                self.cols.rows().min(self.next_chunk + CHUNK_ROWS),
            );
            if lo == hi {
                return Ok(None);
            }
            (self.chunk, self.next_chunk, self.taken) = (lo, hi, 0);
            let crit = &self.cols.crit;
            match &mut self.filter {
                Some(filter) => filter.screen(
                    hi - lo,
                    |k| (&crit[k].0.values()[lo..hi], crit[k].1),
                    &mut self.survivors,
                ),
                None => {
                    self.survivors.clear();
                    self.survivors.extend(0..(hi - lo) as u32);
                }
            }
        }
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
    paged_skyline(cols, opts, SkylineMetrics::shared(), emit)
}

/// [`external_skyline_with`], counting into `metrics`.
fn paged_skyline(
    cols: SkylineColumns,
    opts: &ExecOptions,
    metrics: Arc<SkylineMetrics>,
    mut emit: impl FnMut(usize) -> ControlFlow<()>,
) -> Result<(), QueryError> {
    if opts.sort_pages < MIN_SORT_PAGES {
        return Err(QueryError::from_exec(ExecError::Config(format!(
            "sort_pages is {} but the paged skyline needs at least {MIN_SORT_PAGES}",
            opts.sort_pages
        ))));
    }
    let (d, grouped) = (cols.crit.len(), cols.groups.is_some());
    let disk: Arc<dyn Disk> = match &opts.disk {
        Some(d) => Arc::clone(d),
        None => MemDisk::shared(),
    };
    // Capacity in entries is what the estimator sizes; a narrow window
    // entry is the key alone, 8·d bytes.
    let window_pages = recommend_window_pages(cols.rows(), d, 8 * d);
    let score = Arc::new(cols.entropy_score());
    // Every entry carries its score, so the sort reads it back.
    let narrow = NarrowLayout::new(d)
        .with_diff(usize::from(grouped))
        .with_score();
    // The elimination filter rides every stream whose entries are all
    // mutually comparable — the `diff_dims() == 0` test
    // `NarrowCmp::prefix_key` makes.
    let elimination = (!grouped)
        .then(|| EliminationFilter::new(d, Arc::clone(&score) as _, Arc::clone(&metrics)));
    // The filter's page is the sort's: what it holds, the arena gives up.
    let sort_pages = sort_pages_for(opts, cols.rows(), narrow.entry_size());
    let arena_pages = sort_pages - usize::from(elimination.is_some());
    let cancel = opts.cancel.clone();
    let entries = ColumnEntries::new(cols, narrow, elimination, Arc::clone(&score), cancel);

    // The sort arena is charged only while sorting.
    let sort_lease = reserve(opts, sort_pages)?;
    let sorted = sort_narrow(
        Box::new(entries),
        narrow,
        score,
        arena_pages,
        1, // sort thread
        Arc::clone(&disk),
    )
    .map_err(QueryError::from_exec)?;
    drop(sort_lease);
    // The estimate is where the window starts, never more than the quota
    // has free: SFS grows from there or spills, and a wide clause whose
    // estimate exceeds the whole quota (739 pages at 100 000 × 10) still
    // runs.
    let free = opts.pool.as_ref().map_or(usize::MAX, BufferPool::available);
    let cfg = BatchConfig::new(window_pages.min(free).max(1));
    let scan = Box::new(HeapScan::new(Arc::new(sorted)));
    let mut sfs = BatchSfs::new(scan, narrow, cfg, disk, metrics).map_err(QueryError::from_exec)?;
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

    #[test]
    fn cancel_is_seen_within_one_poll_interval_while_the_filter_drops_everything() {
        // The first row dominates every other, so after it the stream
        // emits nothing: the token has to be polled per row consumed.
        let n = 100_000i64;
        let rows: Vec<Tuple> = (0..n).map(|i| tuple![n - i, n - i]).collect();
        let cols = columns(&rows, &[(0, false), (1, false)], &[]);
        let token = CancelToken::new();
        let metrics = SkylineMetrics::shared();
        let score = Arc::new(cols.entropy_score());
        let filter = EliminationFilter::new(2, Arc::clone(&score) as _, Arc::clone(&metrics));
        let mut entries = ColumnEntries::new(
            cols,
            NarrowLayout::new(2).with_score(),
            Some(filter),
            score,
            Some(token.clone()),
        );
        entries.open().unwrap();
        assert!(entries.next().unwrap().is_some());
        token.cancel();
        let err = entries.next().unwrap_err();
        let ExecError::Cancelled { records_processed } = err else {
            panic!("{err}");
        };
        assert!(records_processed <= skyline_exec::cancel::CANCEL_CHECK_INTERVAL);
        assert_eq!(metrics.snapshot().eliminated + 1, records_processed);
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
        let elimination = (!grouped)
            .then(|| EliminationFilter::new(d, Arc::clone(&score) as _, Arc::clone(metrics)));
        let sort_pages = sort_pages_for(opts, cols.rows(), narrow.entry_size());
        let arena = sort_pages - usize::from(elimination.is_some());
        let scored = narrow.with_score();
        let entries = ColumnEntries::new(cols, scored, elimination, Arc::clone(&score), None);
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
                paged_skyline(cols, opts, Arc::clone(&scored), |id| {
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
