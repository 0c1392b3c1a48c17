//! Pushing `SKYLINE OF` down into the paged external engine.
//!
//! The in-memory executor in [`crate::plan`] is right for small and
//! medium tables; past a threshold the planner hands the skyline to the
//! external operators instead. The planner holds the clause's key
//! columns ([`SkylineColumns`] — for a whole catalog table the table's
//! own resident columns, shared across queries); they are read a chunk
//! of rows at a time, the sign of a `MIN` criterion applied as a value
//! is read, and streamed as *narrow entries* — `d` f64 keys, the DIFF
//! lanes, the row's entropy score, and the originating row index —
//! straight into the external sort (entropy-presorted, the paper's
//! "w/ E", DIFF groups outermost; the score is built from the columns'
//! cached statistics), filtered
//! through a window sized by the §6 cardinality estimator, and each
//! surviving row id goes to the caller the moment the filter proves it
//! — the paper's pipelined output, which `LIMIT` and a departed client
//! cut short. No oriented key matrix exists on this route. This is the
//! integration the paper argues for — the skyline as *an operator
//! inside the engine*, not an application post-pass.
//!
//! Each forwarded row is scored once, as the paper's §4.3 has it
//! ("computed on-the-fly" per tuple). The entry carries the score in its
//! score lane ([`NarrowLayout::with_score`]): the elimination filter's
//! `admit` computes it, or the producer does on a DIFF clause, which has
//! no filter. The sort's run formation, its merge and its comparisons
//! within a DIFF group read the lane instead of scoring the key again.
//! The `Bnl` arm does not sort, and its entries carry no score lane.
//!
//! Ahead of the sort sits a LESS [`EliminationFilter`]: one page of the
//! best-entropy keys seen so far. Each chunk is screened against its
//! best-scored entry column at a time, only the survivors are gathered
//! into keys and probed against the whole page, and only what that
//! admits is encoded — so a row some earlier row strictly dominates
//! costs no encode, arena byte, run page, merge step or filter probe. It
//! is exact (every dropped row is dominated by a forwarded one) and its
//! page is the sort's own — `sort_pages − 1` go to the arena — so no
//! lease grows. It runs on every presorted arm and stays out only where
//! the code can see it would be wrong or pointless: with DIFF lanes
//! (incomparable groups interleave in the unsorted stream) and on the
//! `Bnl` arm (the paper's unsorted baseline, and the filter-free twin
//! the differential tests compare against).
//!
//! [`external_skyline_with`] honours the [`ExecOptions`] contract: the
//! algorithm hint picks the narrow instantiation (SFS for `Auto`, `Sfs`
//! and `Strata` — stratum s₀ *is* the SFS skyline; BNL over the unsorted
//! stream; the strided-parallel filter), each pass's arena is charged
//! against the optional quota pool (sort arena while sorting, filter
//! window while filtering), the cancel token is polled while entries
//! stream and inside the operators, and spills go to the caller's disk
//! when one is given.
//!
//! On the presorted arms the §6 estimate is the window's *initial*
//! reservation — clipped to what the quota has free once the sort arena
//! is back, so a clause whose estimate exceeds the whole quota still
//! runs — and the SFS operator, handed the pool, grows the window inside
//! the quota before a pass spills (never after one has) and spills as
//! Figure 7 does when the pool refuses: the skyline the estimator
//! undershot takes one pass when there is room and the multi-pass path
//! when there is not. The `Bnl` arm reserves its estimate in full, as
//! before. A heap file frees its pages when its handle drops,
//! so they are reclaimed on *every* path — success, typed quota error,
//! cancellation, or storage fault. A `DIFF` clause always runs as
//! presort + SFS (BNL cannot group; the parallel filter falls back to
//! one stratum).

use crate::error::QueryError;
use crate::options::{ExecOptions, SkylineAlgo};
use skyline_core::cardinality::recommend_window_pages;
use skyline_core::external::{
    parallel_filter, sort_narrow, BatchBnl, BatchConfig, BatchSfs, EliminationFilter, NarrowFormat,
};
use skyline_core::{EntropyScore, MonotoneScore, SfsConfig, SkylineMetrics};
use skyline_exec::cancel::{poll, CANCEL_CHECK_INTERVAL};
use skyline_exec::{BoxedOperator, CancelToken, ExecError, HeapScan, NarrowLayout, Operator};
use skyline_relation::{KeyColumn, TableStats};
use skyline_storage::{BufferLease, BufferPool, Disk, MemDisk};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Row-count threshold above which [`crate::execute`] routes the skyline
/// through the external engine.
pub const EXTERNAL_THRESHOLD: usize = 50_000;

/// The columns one `SKYLINE OF` clause reads, as the relation holds
/// them: criterion `k` of row `i`, in the all-max orientation, is
/// `crit[k].1 * crit[k].0.values()[i]`.
pub struct SkylineColumns {
    /// The `MIN`/`MAX` columns in clause order (at least one, every row
    /// numeric), each with its sign: −1 for `MIN`.
    pub crit: Vec<(Arc<KeyColumn>, f64)>,
    /// The `DIFF` columns in clause order.
    pub diff: Vec<Arc<KeyColumn>>,
}

impl SkylineColumns {
    /// From a clause's columns — criteria, then DIFF, each in clause
    /// order — and whether each criterion is a `MIN`.
    #[must_use]
    pub fn new(mut columns: Vec<Arc<KeyColumn>>, min: &[bool]) -> Self {
        let diff = columns.split_off(min.len());
        let signed = |(column, &is_min)| (column, if is_min { -1.0 } else { 1.0 });
        SkylineColumns {
            crit: columns.into_iter().zip(min).map(signed).collect(),
            diff,
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

    /// The row-major oriented key matrix — the in-memory executor's input.
    #[must_use]
    pub fn oriented_matrix(&self) -> Vec<f64> {
        let columns: Vec<(&[f64], f64)> = self.crit.iter().map(|(c, s)| (c.values(), *s)).collect();
        let mut data = Vec::with_capacity(self.rows() * columns.len());
        for row in 0..self.rows() {
            data.extend(columns.iter().map(|(values, sign)| sign * values[row]));
        }
        data
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

/// Does this skyline run on the paged engine? Yes when the relation is
/// at least `opts.external_threshold` rows, the algorithm is not
/// divide-and-conquer (in-memory only), every criterion value is finite
/// (NaN and ±∞ keep their in-memory semantics), and every DIFF key is an
/// integer within `i32` — flags the columns carry, so nothing is scanned.
///
/// Criteria used to have to be integral and within `i32` as well — not a
/// codec limit (narrow entries carry any f64) but a measurement: paging
/// the end-to-end benchmark's `float_d5` workload (100k rows, 5
/// fractional criteria, 2 cores) moved `query_p50_ms` 50.0 → 69.3,
/// because the external sort handled every one of the 100k entries. With
/// the elimination filter 97 % of that table never reaches the sort, and
/// the same pairing reads 44.9 → 18.4 ms, ten pairs of ten
/// (EXPERIMENTS.md "Elimination filter") — so fractional tables page,
/// and charge the quota a 64-page sort arena instead of a 977-page key
/// matrix.
#[must_use]
pub fn routes_to_paged_engine(cols: &SkylineColumns, opts: &ExecOptions) -> bool {
    cols.rows() >= opts.external_threshold
        && opts.algo != SkylineAlgo::DivideAndConquer
        && cols.crit.iter().all(|(c, _)| c.all_finite())
        && cols.diff.iter().all(|c| c.int_within_i32())
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
    /// The presort's score when `narrow` carries its lane
    /// ([`ColumnEntries::scored`]). The lane gets the score the filter
    /// computed in `admit` (it ranks by this same score), or, with no
    /// filter, the one computed here: once per entry either way.
    score: Option<Arc<EntropyScore>>,
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
        cancel: Option<CancelToken>,
    ) -> Self {
        ColumnEntries {
            cols,
            narrow,
            filter,
            score: None,
            cancel,
            chunk: 0,
            next_chunk: 0,
            survivors: Vec::new(),
            taken: 0,
            lanes: Vec::new(),
            entry: Vec::new(),
        }
    }

    /// Write `score` of each entry's key into the score lane `narrow`
    /// was built with ([`NarrowLayout::with_score`]).
    fn scored(mut self, score: Arc<EntropyScore>) -> Self {
        self.score = Some(score);
        self
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
                let score = self.score.as_ref().map(|s| match &self.filter {
                    Some(f) => f.admitted_score(),
                    None => s.score(&self.lanes),
                });
                self.lanes
                    .extend(self.cols.diff.iter().map(|c| c.values()[row]));
                self.lanes.extend(score);
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

/// Run the skyline over `cols` on the paged engine under the execution
/// contract `opts`, grouping by the DIFF columns, and hand each skyline
/// row index to `emit` the moment the filter proves it. The caller has
/// checked [`routes_to_paged_engine`].
///
/// Rows arrive in *emission order*, not ascending: on the presorted arms
/// that is presort order (entropy, DIFF groups outermost), pass by pass
/// when the window spills; on the `Bnl` arm it is the order BNL confirms
/// them. A caller that needs another order sorts.
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
/// [`QueryError::Exec`] for storage or worker failures — possibly after
/// some rows were emitted. No heap pages remain allocated on any error
/// path.
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
    let (d, grouped) = (cols.crit.len(), !cols.diff.is_empty());
    let disk: Arc<dyn Disk> = match &opts.disk {
        Some(d) => Arc::clone(d),
        None => MemDisk::shared(),
    };
    // Capacity in entries is what the estimator sizes; a narrow window
    // entry is the key alone, 8·d bytes.
    let cfg = BatchConfig::new(recommend_window_pages(cols.rows(), d, 8 * d));
    // BNL takes the stream as it comes; everything else — a DIFF clause
    // included, since BNL cannot group — presorts by entropy.
    let presort =
        (opts.algo != SkylineAlgo::Bnl || grouped).then(|| Arc::new(cols.entropy_score()));
    // A presorted entry carries its score, so the sort reads it back.
    let narrow = NarrowLayout::new(d).with_diff(cols.diff.len());
    let narrow = if presort.is_some() {
        narrow.with_score()
    } else {
        narrow
    };
    // The elimination filter rides every presorted stream whose entries
    // are all mutually comparable — the `diff_dims() == 0` test
    // `NarrowCmp::prefix_key` makes.
    let elimination = presort
        .as_ref()
        .filter(|_| !grouped)
        .map(|score| EliminationFilter::new(d, Arc::clone(score) as _, Arc::clone(&metrics)));
    // Its page is the sort's: what it holds, the arena gives up.
    let arena_pages = opts.sort_pages - usize::from(elimination.is_some());
    let mut entries = ColumnEntries::new(cols, narrow, elimination, opts.cancel.clone());
    if let Some(score) = &presort {
        entries = entries.scored(Arc::clone(score));
    }
    let entries: BoxedOperator = Box::new(entries);

    // Each arm yields the operator to drain and the window lease that
    // stays charged while it drains, unless the operator holds its own.
    let (mut filter, _window_lease): (BoxedOperator, _) = match presort {
        None => {
            let mut bnl = BatchBnl::new(
                entries,
                narrow,
                cfg.window_pages,
                cfg.batch_rows,
                disk,
                metrics,
            )
            .map_err(QueryError::from_exec)?;
            if let Some(token) = &opts.cancel {
                bnl = bnl.with_cancel(token.clone());
            }
            (Box::new(bnl), reserve(opts, cfg.window_pages)?)
        }
        Some(score) => {
            // The sort arena is charged only while sorting.
            let parallel = opts.algo == SkylineAlgo::Parallel;
            let sort_lease = reserve(opts, opts.sort_pages)?;
            let sorted = sort_narrow(
                entries,
                narrow,
                score,
                arena_pages,
                if parallel { opts.threads } else { 1 },
                Arc::clone(&disk),
            )
            .map_err(QueryError::from_exec)?;
            drop(sort_lease);
            let sorted = Arc::new(sorted);
            // On a presorted stream the estimate is where the window
            // starts, never more than the quota has free: SFS grows from
            // there or spills, and a wide clause whose estimate exceeds
            // the whole quota (739 pages at 100 000 × 10) still runs.
            let free = opts.pool.as_ref().map_or(usize::MAX, BufferPool::available);
            let cfg = BatchConfig::new(cfg.window_pages.min(free).max(1));
            if parallel {
                // The partitioned filter charges (and releases) its
                // windows and merge arena itself.
                let fmt =
                    NarrowFormat::new(narrow, cfg.batch_rows).map_err(QueryError::from_exec)?;
                let skyline = parallel_filter(
                    sorted,
                    fmt,
                    SfsConfig::new(cfg.window_pages).with_projection(),
                    opts.threads,
                    disk,
                    metrics,
                    opts.pool.as_ref(),
                    opts.cancel.clone(),
                )
                .map_err(QueryError::from_exec)?
                .skyline;
                (Box::new(HeapScan::new(Arc::new(skyline))), None)
            } else {
                let scan = Box::new(HeapScan::new(sorted));
                let mut sfs = BatchSfs::new(scan, narrow, cfg, disk, metrics)
                    .map_err(QueryError::from_exec)?;
                if let Some(token) = &opts.cancel {
                    sfs = sfs.with_cancel(token.clone());
                }
                // Charged at open, grown before a pass spills, released
                // on close and on drop.
                if let Some(pool) = &opts.pool {
                    sfs = sfs.with_pool(pool.clone());
                }
                (Box::new(sfs), None)
            }
        }
    };

    filter.open().map_err(QueryError::from_exec)?;
    let mut emitted = 0u64;
    while let Some(entry) = filter.next().map_err(QueryError::from_exec)? {
        poll(opts.cancel.as_ref(), emitted).map_err(QueryError::from_exec)?;
        emitted += 1;
        if emit(narrow.row_id(entry) as usize).is_break() {
            break;
        }
    }
    filter.close();
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
        let wanted: Vec<usize> = crit
            .iter()
            .map(|c| c.0)
            .chain(diff.iter().copied())
            .collect();
        let built = KeyColumn::build_all(rows, &wanted, |_| Ok::<(), ()>(())).unwrap();
        let min: Vec<bool> = crit.iter().map(|c| c.1).collect();
        SkylineColumns::new(built.into_iter().map(Arc::new).collect(), &min)
    }

    /// What `plan::apply_skyline` does with a relation of any size:
    /// `None` when the routing predicate keeps it in memory.
    fn paged(
        rows: &[Tuple],
        crit: &[(usize, bool)],
        diff: &[usize],
        opts: &ExecOptions,
    ) -> Result<Option<Vec<usize>>, QueryError> {
        let opts = opts.clone().with_external_threshold(0);
        let cols = columns(rows, crit, diff);
        if !routes_to_paged_engine(&cols, &opts) {
            return Ok(None);
        }
        let mut ids = Vec::new();
        external_skyline_with(cols, &opts, |id| {
            ids.push(id);
            ControlFlow::Continue(())
        })?;
        // emission order is presort order; the oracles are ascending
        ids.sort_unstable();
        Ok(Some(ids))
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

    const ALGOS: [SkylineAlgo; 5] = [
        SkylineAlgo::Auto,
        SkylineAlgo::Sfs,
        SkylineAlgo::Bnl,
        SkylineAlgo::Parallel,
        SkylineAlgo::Strata,
    ];

    #[test]
    fn external_matches_in_memory() {
        let rows = random_table(3_000);
        for (crit, diff) in [
            (vec![(0usize, false), (1usize, false)], vec![]),
            (vec![(0, true), (1, false)], vec![]),
            (vec![(0, false), (1, true)], vec![2usize]),
        ] {
            let ext = paged(&rows, &crit, &diff, &ExecOptions::default())
                .unwrap()
                .expect("pushdown applies");
            assert_eq!(ext, in_memory(&rows, &crit, &diff), "{crit:?} {diff:?}");
        }
    }

    #[test]
    fn every_external_algorithm_matches_the_oracle_with_and_without_diff() {
        let rows = random_table(3_000);
        let crit = vec![(0usize, false), (1usize, true)];
        for diff in [vec![], vec![2usize]] {
            let oracle = in_memory(&rows, &crit, &diff);
            for algo in ALGOS {
                let opts = ExecOptions::default().with_algo(algo).with_threads(2);
                let ext = paged(&rows, &crit, &diff, &opts)
                    .unwrap()
                    .expect("pushdown applies");
                assert_eq!(ext, oracle, "{algo:?} diff={diff:?}");
            }
        }
    }

    #[test]
    fn divide_and_conquer_stays_in_memory() {
        let rows = random_table(100);
        let crit = vec![(0usize, false), (1usize, true)];
        let opts = ExecOptions::default().with_algo(SkylineAlgo::DivideAndConquer);
        assert!(paged(&rows, &crit, &[], &opts).unwrap().is_none());
    }

    #[test]
    fn threshold_is_part_of_the_routing_predicate() {
        let rows = random_table(100);
        let crit = vec![(0usize, false), (1usize, true)];
        let cols = columns(&rows, &crit, &[]);
        let at = |threshold| {
            let opts = ExecOptions::default().with_external_threshold(threshold);
            routes_to_paged_engine(&cols, &opts)
        };
        assert!(at(100));
        assert!(!at(101));
    }

    #[test]
    fn external_quota_and_cancel_surface_typed_and_leak_free() {
        let rows = random_table(2_000);
        let crit = vec![(0usize, false), (1usize, true)];
        let disk = MemDisk::shared();

        // a pool far below the sort arena: typed quota error, no pages left
        let pool = BufferPool::new(8);
        let opts = ExecOptions::default()
            .with_algo(SkylineAlgo::Sfs)
            .with_pool(pool.clone())
            .with_disk(disk.clone());
        let err = paged(&rows, &crit, &[], &opts).unwrap_err();
        assert!(matches!(err, QueryError::QuotaExceeded { .. }), "{err}");
        assert_eq!(pool.used(), 0, "quota refusal must release every lease");
        assert_eq!(disk.allocated_pages(), 0, "no heap pages may leak");

        // a pre-tripped token: typed cancellation, no pages left
        for algo in ALGOS {
            let token = skyline_exec::CancelToken::new();
            token.cancel();
            let opts = ExecOptions::default()
                .with_algo(algo)
                .with_cancel(token)
                .with_disk(disk.clone());
            let err = paged(&rows, &crit, &[], &opts).unwrap_err();
            assert!(
                matches!(err, QueryError::Cancelled { .. }),
                "{algo:?}: {err}"
            );
            assert_eq!(
                disk.allocated_pages(),
                0,
                "{algo:?}: no heap pages may leak"
            );
        }
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
        let filter = EliminationFilter::new(2, score, Arc::clone(&metrics));
        let mut entries = ColumnEntries::new(
            cols,
            NarrowLayout::new(2),
            Some(filter),
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
        // the two, never their sum.
        let rows = random_table(2_000);
        let crit = vec![(0usize, false), (1usize, true)];
        let pool = BufferPool::new(1 << 16);
        let opts = ExecOptions::default()
            .with_algo(SkylineAlgo::Sfs)
            .with_pool(pool.clone())
            .with_sort_pages(24);
        paged(&rows, &crit, &[], &opts).unwrap().unwrap();
        let window = recommend_window_pages(rows.len(), 2, 16);
        assert_eq!(pool.peak(), window.max(24));
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn finite_criteria_page_and_everything_else_stays_in_memory() {
        let route = |rows: &[Tuple], diff: &[usize]| {
            paged(rows, &[(0, false)], diff, &ExecOptions::default())
        };
        // fractional and beyond-i32 criteria page: narrow entries carry
        // any finite f64
        let rows = vec![tuple![1.5], tuple![2.5]];
        assert_eq!(route(&rows, &[]).unwrap(), Some(vec![1]));
        let rows = vec![
            Tuple::new(vec![Value::Int(i64::from(i32::MAX) + 1)]),
            Tuple::new(vec![Value::Int(0)]),
        ];
        assert_eq!(route(&rows, &[]).unwrap(), Some(vec![0]));
        // NaN and ±∞ criteria keep the in-memory executor's semantics
        for odd in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows = vec![tuple![1.5], tuple![odd]];
            assert!(route(&rows, &[]).unwrap().is_none(), "{odd}");
        }
        // and so does a DIFF key outside i32, or one that is no integer
        let rows = vec![tuple![1, i64::from(i32::MAX) + 1]];
        assert!(route(&rows, &[1]).unwrap().is_none());
        let rows = vec![tuple![1, 0.5]];
        assert!(route(&rows, &[1]).unwrap().is_none());
    }

    #[test]
    fn too_few_sort_pages_is_a_typed_error_before_anything_is_reserved() {
        let rows = random_table(2_000);
        let crit = vec![(0usize, false), (1usize, true)];
        for algo in ALGOS {
            for sort_pages in 0..MIN_SORT_PAGES {
                let (pool, disk) = (BufferPool::new(1 << 16), MemDisk::shared());
                let opts = ExecOptions::default()
                    .with_algo(algo)
                    .with_sort_pages(sort_pages)
                    .with_pool(pool.clone())
                    .with_disk(disk.clone());
                let err = paged(&rows, &crit, &[], &opts).unwrap_err();
                assert!(
                    matches!(&err, QueryError::Exec(m) if m.contains("sort_pages")),
                    "{algo:?} sort_pages={sort_pages}: {err}"
                );
                assert_eq!((pool.peak(), pool.used()), (0, 0), "{algo:?}");
                assert_eq!(disk.allocated_pages(), 0, "{algo:?}");
            }
        }
        // the floor itself works: one page to the filter, three to the sort
        let opts = ExecOptions::default().with_sort_pages(MIN_SORT_PAGES);
        let out = paged(&rows, &crit, &[], &opts).unwrap();
        assert_eq!(out, Some(in_memory(&rows, &crit, &[])));
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
                .with_external_threshold(0)
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

    /// The presorted arms as they ran before entries carried their
    /// score: the same producer, filter, sort arena, window and pool, on
    /// the layout without the score lane. The row ids in emission order,
    /// and whether the `Parallel` arm's merge fell back to external BNL.
    fn unscored_reference(
        cols: SkylineColumns,
        opts: &ExecOptions,
        metrics: &Arc<SkylineMetrics>,
    ) -> (Vec<usize>, bool) {
        let (d, grouped) = (cols.crit.len(), !cols.diff.is_empty());
        let narrow = NarrowLayout::new(d).with_diff(cols.diff.len());
        let disk: Arc<dyn Disk> = MemDisk::shared();
        let window = recommend_window_pages(cols.rows(), d, 8 * d);
        let score = Arc::new(cols.entropy_score());
        let elimination = (!grouped)
            .then(|| EliminationFilter::new(d, Arc::clone(&score) as _, Arc::clone(metrics)));
        let arena = opts.sort_pages - usize::from(elimination.is_some());
        let parallel = opts.algo == SkylineAlgo::Parallel;
        let entries = Box::new(ColumnEntries::new(cols, narrow, elimination, None));
        let threads = if parallel { opts.threads } else { 1 };
        let sorted = sort_narrow(entries, narrow, score, arena, threads, Arc::clone(&disk));
        let sorted = Arc::new(sorted.unwrap());
        let free = opts.pool.as_ref().map_or(usize::MAX, BufferPool::available);
        let cfg = BatchConfig::new(window.min(free).max(1));
        let mut fell_back = false;
        let mut filter: BoxedOperator = if parallel {
            let fmt = NarrowFormat::new(narrow, cfg.batch_rows).unwrap();
            let sfs = SfsConfig::new(cfg.window_pages).with_projection();
            let pool = opts.pool.as_ref();
            let out = parallel_filter(
                sorted,
                fmt,
                sfs,
                opts.threads,
                disk,
                Arc::clone(metrics),
                pool,
                None,
            );
            let out = out.unwrap();
            fell_back = !out.merged_in_memory;
            Box::new(HeapScan::new(Arc::new(out.skyline)))
        } else {
            let scan = Box::new(HeapScan::new(sorted));
            let mut sfs = BatchSfs::new(scan, narrow, cfg, disk, Arc::clone(metrics)).unwrap();
            if let Some(pool) = &opts.pool {
                sfs = sfs.with_pool(pool.clone());
            }
            Box::new(sfs)
        };
        let out = skyline_exec::collect(filter.as_mut()).unwrap();
        let ids = out.iter().map(|e| narrow.row_id(e) as usize).collect();
        (ids, fell_back)
    }

    /// Carrying the score changes what the paged path emits, and in what
    /// order, not at all; nor any counter but `bytes_moved`, which grows
    /// by exactly 8 bytes for every entry moved. Checked against
    /// [`unscored_reference`] with and without DIFF lanes, under `Auto`,
    /// `Parallel`, and a quota that makes the window spill and the sort
    /// form many runs.
    ///
    /// One exception, by design: when the `Parallel` arm's merge falls
    /// back to external BNL, whose window holds whole entries, a page of
    /// it holds fewer of the wider entries. There the skyline is the same
    /// but its order and counters may differ.
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
            ExecOptions::default()
                .with_algo(SkylineAlgo::Parallel)
                .with_threads(2),
            ExecOptions::default().with_pool(tight).with_sort_pages(4),
        ];
        let (mut spilled, mut exact_parallel, mut fallbacks) = (false, 0, 0);
        for (crit, diff) in &clauses {
            let oracle = in_memory(&rows, crit, diff);
            for opts in &configs {
                let (scored, unscored) = (SkylineMetrics::shared(), SkylineMetrics::shared());
                let mut got = Vec::new();
                let cols = columns(&rows, crit, diff);
                paged_skyline(cols, opts, Arc::clone(&scored), |id| {
                    got.push(id);
                    ControlFlow::Continue(())
                })
                .unwrap();
                let (want, fell_back) =
                    unscored_reference(columns(&rows, crit, diff), opts, &unscored);
                let label = format!("{crit:?} DIFF {diff:?} {:?}", opts.algo);
                if fell_back {
                    got.sort_unstable();
                    assert_eq!(got, oracle, "{label}");
                    fallbacks += 1;
                    continue;
                }
                assert_eq!(got, want, "{label}");
                assert_eq!(got.len(), oracle.len(), "{label}");
                exact_parallel += usize::from(opts.algo == SkylineAlgo::Parallel);
                let (a, b) = (scored.snapshot(), unscored.snapshot());
                let entry = 8 * (crit.len() + diff.len() + 1) as u64;
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
        assert!(
            exact_parallel > 0 && fallbacks > 0,
            "{exact_parallel} / {fallbacks}"
        );
    }

    #[test]
    fn empty_rows_ok() {
        for algo in ALGOS {
            let opts = ExecOptions::default().with_algo(algo);
            let out = paged(&[], &[(0, false)], &[], &opts).unwrap().unwrap();
            assert!(out.is_empty(), "{algo:?}");
        }
    }
}
