//! Conservation-law gate over the metrics ledger: every record an
//! operator fetches is settled exactly once — `emitted + discarded ==
//! input_records` — for sequential SFS, BNL, and (stage by stage,
//! summing to the aggregate *exactly*) the partitioned parallel
//! filter. These laws are what make the bench gate's comparison
//! counters trustworthy as a regression oracle.
//!
//! The block-kernel counters obey laws of their own: the model
//! comparison charge never exceeds the physical lane work (comparisons
//! stop at the first decisive entry of a non-skipped block; lanes count
//! the whole block), and both counters aggregate exactly across
//! parallel stages like every other counter.

use skyline::core::external::{
    sharded_skyline, sort_narrow, EliminationFilter, ShardConfig, ShardStrategy,
};
use skyline::core::planner::{bnl_over, entropy_stats_of, load_heap, presort, sfs_filter};
use skyline::core::{
    batch_presort, parallel_batch_filter, parallel_sfs_filter, BatchConfig, BatchSfs, EntropyScore,
    KeySumScore, MetricsSnapshot, SfsConfig, SkylineMetrics, SkylineSpec, SortOrder,
};
use skyline::exchange::FRAME_HEADER_BYTES;
use skyline::exec::cancel::{poll, CANCEL_CHECK_INTERVAL};
use skyline::exec::{
    collect, BoxedOperator, CancelToken, ExecError, HeapScan, NarrowLayout, Operator,
};
use skyline::relation::gen::{Distribution, WorkloadSpec};
use skyline::relation::RecordLayout;
use skyline::storage::{BufferLease, BufferPool, Disk, HeapFile, MemDisk};
use skyline_bench::gate::{golden_of, parse_golden, render_golden, run_section, GateSpec};
use std::sync::Arc;

/// An anti-correlated workload (big skyline, guaranteed multipass at
/// small windows) loaded into a fresh MemDisk heap.
fn fixture(
    n: usize,
    d: usize,
    seed: u64,
) -> (Arc<HeapFile>, RecordLayout, SkylineSpec, Arc<MemDisk>) {
    let spec = WorkloadSpec {
        dist: Distribution::AntiCorrelated { jitter: 0.05 },
        domain: (0, 999),
        layout: RecordLayout::new(d, 0),
        ..WorkloadSpec::paper(n, seed)
    };
    let records = spec.generate();
    let disk = MemDisk::shared();
    let heap = Arc::new(
        load_heap(
            Arc::clone(&disk) as _,
            spec.layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap(),
    );
    (heap, spec.layout, SkylineSpec::max_all(d), disk)
}

fn assert_settled(s: &MetricsSnapshot, n: u64, label: &str) {
    assert_eq!(s.input_records, n, "{label}: all inputs fetched");
    assert_eq!(
        s.emitted + s.discarded,
        s.input_records,
        "{label}: every input settled exactly once"
    );
}

#[test]
fn sequential_sfs_settles_every_record_even_multipass() {
    for (n, window) in [(500usize, 1usize), (1_500, 2)] {
        let (heap, layout, spec, disk) = fixture(n, 4, 17);
        let stats = entropy_stats_of(&heap, &layout, &spec).unwrap();
        let sorted = presort(
            heap,
            layout,
            spec.clone(),
            SortOrder::Entropy,
            Some(stats),
            16,
            Arc::clone(&disk) as _,
        )
        .unwrap();
        let metrics = SkylineMetrics::shared();
        let mut op = sfs_filter(
            Arc::new(sorted),
            layout,
            spec,
            SfsConfig::new(window),
            Arc::clone(&disk) as _,
            Arc::clone(&metrics),
        )
        .unwrap();
        let out = collect(&mut op).unwrap();
        let s = metrics.snapshot();
        assert_settled(&s, n as u64, "sfs");
        assert_eq!(s.emitted, out.len() as u64, "emitted counter == output");
        assert!(s.passes >= 1);
        // block-kernel accounting: the model charge stops at the first
        // decisive entry, lane work covers whole non-skipped blocks
        assert!(
            s.comparisons <= s.lanes_compared,
            "sfs: comparisons {} must not exceed lanes {}",
            s.comparisons,
            s.lanes_compared
        );
        assert!(
            s.blocks_skipped > 0,
            "sfs: presorted anti-correlated probes must prune some blocks"
        );
    }
}

#[test]
fn bnl_settles_every_record_even_multipass() {
    let n = 1_200usize;
    let (heap, layout, spec, disk) = fixture(n, 4, 19);
    let metrics = SkylineMetrics::shared();
    let mut op = bnl_over(
        heap,
        layout,
        spec,
        1, // one-page window forces spill passes
        Arc::clone(&disk) as _,
        Arc::clone(&metrics),
    )
    .unwrap();
    let out = collect(&mut op).unwrap();
    let s = metrics.snapshot();
    assert_settled(&s, n as u64, "bnl");
    assert_eq!(s.emitted, out.len() as u64);
    assert!(s.passes > 1, "window of 1 page must force multipass");
    assert!(
        s.comparisons <= s.lanes_compared,
        "bnl: comparisons {} must not exceed lanes {}",
        s.comparisons,
        s.lanes_compared
    );
}

#[test]
fn parallel_filter_aggregate_is_the_exact_sum_of_its_stages() {
    let n = 2_500usize;
    let (heap, layout, spec, disk) = fixture(n, 5, 29);
    let stats = entropy_stats_of(&heap, &layout, &spec).unwrap();
    let sorted = Arc::new(
        presort(
            heap,
            layout,
            spec.clone(),
            SortOrder::Entropy,
            Some(stats),
            16,
            Arc::clone(&disk) as _,
        )
        .unwrap(),
    );
    for threads in [2usize, 4] {
        let metrics = SkylineMetrics::shared();
        let outcome = parallel_sfs_filter(
            Arc::clone(&sorted),
            layout,
            spec.clone(),
            // anti-correlated d=5 local skylines are huge; give the
            // in-memory merge an arena that certainly holds them, since
            // this test checks the per-verifier exactness of that path
            SfsConfig::new(4).with_merge_pages(1024),
            threads,
            Arc::clone(&disk) as _,
            Arc::clone(&metrics),
            None,
            None,
        )
        .unwrap();
        let label = format!("t={threads}");

        // each stage settles its own inputs…
        let mut worker_input = 0u64;
        let mut worker_emitted = 0u64;
        for (w, s) in outcome.worker_metrics.iter().enumerate() {
            assert_settled(s, outcome.stratum_sizes[w], &format!("{label} worker {w}"));
            worker_input += s.input_records;
            worker_emitted += s.emitted;
        }
        // …the strata tile the input…
        assert_eq!(worker_input, n as u64, "{label}: strata tile the input");
        // …the merge's inputs are exactly the local skylines…
        let m = &outcome.merge_metrics;
        assert_eq!(
            m.input_records, worker_emitted,
            "{label}: merge consumes exactly the union of local skylines"
        );
        assert_eq!(
            m.emitted + m.discarded,
            m.input_records,
            "{label}: merge settles"
        );
        assert_eq!(
            m.emitted,
            outcome.skyline.len(),
            "{label}: merge emissions are the skyline"
        );
        // …the in-memory merge total is the exact sum of its verifiers…
        assert!(outcome.merged_in_memory, "{label}");
        let verifier_sum = outcome
            .merge_worker_metrics
            .iter()
            .fold(MetricsSnapshot::default(), |acc, s| acc.plus(s));
        assert_eq!(*m, verifier_sum, "{label}: merge == Σ verifiers, exactly");
        // …and the caller's aggregate is the exact sum of every stage —
        // every counter, not just the conserved ones.
        let parts = outcome
            .worker_metrics
            .iter()
            .fold(outcome.merge_metrics, |acc, s| acc.plus(s));
        assert_eq!(metrics.snapshot(), parts, "{label}: aggregate == Σ stages");
        // the snapshot equality above already covers the block-kernel
        // counters; additionally the run must actually exercise them
        let agg = metrics.snapshot();
        assert!(agg.lanes_compared > 0, "{label}: lanes recorded");
        assert!(
            agg.comparisons <= agg.lanes_compared,
            "{label}: comparisons {} must not exceed lanes {}",
            agg.comparisons,
            agg.lanes_compared
        );
    }
}

/// Key columns as narrow entries, minus what an elimination filter
/// drops: the SQL push-down's producer, rebuilt from its public parts —
/// a chunk of rows is screened against the filter's front column at a
/// time, the survivors are gathered and admitted, and the filter's
/// counters are settled where the token is polled.
struct FilteredKeys {
    columns: Vec<Vec<f64>>,
    narrow: NarrowLayout,
    filter: EliminationFilter,
    cancel: Option<CancelToken>,
    chunk: usize,
    next_chunk: usize,
    survivors: Vec<u32>,
    taken: usize,
    key: Vec<f64>,
    entry: Vec<u8>,
}

impl FilteredKeys {
    /// Over the row-major `keys`, `d` wide.
    fn new(keys: &[f64], d: usize, filter: EliminationFilter) -> Self {
        FilteredKeys {
            columns: (0..d)
                .map(|k| keys.iter().skip(k).step_by(d).copied().collect())
                .collect(),
            narrow: NarrowLayout::new(d),
            filter,
            cancel: None,
            chunk: 0,
            next_chunk: 0,
            survivors: Vec::new(),
            taken: 0,
            key: Vec::new(),
            entry: Vec::new(),
        }
    }
}

impl Operator for FilteredKeys {
    fn open(&mut self) -> Result<(), ExecError> {
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        loop {
            while let Some(&offset) = self.survivors.get(self.taken) {
                self.taken += 1;
                let row = self.chunk + offset as usize;
                self.key.clear();
                self.key.extend(self.columns.iter().map(|c| c[row]));
                if self.filter.admit(&self.key) {
                    self.narrow
                        .encode_into(&self.key, row as u64, &mut self.entry);
                    return Ok(Some(&self.entry));
                }
            }
            self.filter.settle();
            poll(self.cancel.as_ref(), self.next_chunk as u64)?;
            let (lo, hi) = (
                self.next_chunk,
                self.columns[0].len().min(self.next_chunk + CHUNK),
            );
            if lo == hi {
                return Ok(None);
            }
            (self.chunk, self.next_chunk, self.taken) = (lo, hi, 0);
            let columns = &self.columns;
            self.filter
                .screen(hi - lo, |k| (&columns[k][lo..hi], 1.0), &mut self.survivors);
        }
    }

    fn close(&mut self) {}

    fn record_size(&self) -> usize {
        self.narrow.entry_size()
    }
}

/// Rows between the producer's cancellation polls.
const CHUNK: usize = CANCEL_CHECK_INTERVAL as usize;

/// With an elimination filter ahead of the sort, a key is settled in
/// exactly one of three places: dropped by the filter, discarded by SFS,
/// or emitted. The three stages share one `SkylineMetrics`, as they do
/// under SQL, and the sort in between neither adds nor loses a record.
#[test]
fn elimination_filter_then_sort_then_sfs_settle_every_key_exactly_once() {
    let (n, d) = (4_000usize, 3usize);
    for (multipass, window_pages) in [(false, 8), (true, 1)] {
        let label = if multipass {
            "multipass"
        } else {
            "single-pass"
        };
        let mut keys = Vec::with_capacity(n * d);
        skyline_testkit::replay(0x1E55, |rng| {
            for _ in 0..n {
                let x = rng.usize_below(1_000);
                // multipass: `x + y` nearly constant, so a skyline of
                // several hundred keys over a bulk the filter can drop
                let y = if multipass {
                    1_000 - x + rng.usize_below(40)
                } else {
                    rng.usize_below(1_000)
                };
                keys.extend([x as f64, y as f64, rng.usize_below(100) as f64]);
            }
        });
        let disk = MemDisk::shared();
        let metrics = SkylineMetrics::shared();
        let score = Arc::new(EntropyScore::from_keys(&keys, d));
        let narrow = NarrowLayout::new(d);
        let filter = EliminationFilter::new(d, Arc::clone(&score) as _, Arc::clone(&metrics));
        let entries = FilteredKeys::new(&keys, d, filter);
        let sorted = sort_narrow(
            Box::new(entries),
            narrow,
            score,
            3,
            1,
            Arc::clone(&disk) as _,
        )
        .unwrap();
        let forwarded = sorted.len();
        let mut sfs = BatchSfs::new(
            Box::new(HeapScan::new(Arc::new(sorted))),
            narrow,
            BatchConfig::new(window_pages),
            Arc::clone(&disk) as _,
            Arc::clone(&metrics),
        )
        .unwrap();
        let out = collect(&mut sfs).unwrap();
        drop(sfs);
        let s = metrics.snapshot();
        assert!(s.eliminated > 0, "{label}: the filter dropped nothing");
        assert_eq!(
            s.eliminated + forwarded,
            n as u64,
            "{label}: dropped or sorted"
        );
        assert_eq!(s.input_records, n as u64 - s.eliminated, "{label}");
        assert_eq!(s.eliminated + s.emitted + s.discarded, n as u64, "{label}");
        assert_eq!(s.emitted, out.len() as u64, "{label}");
        assert_eq!(s.passes > 1, multipass, "{label}: {} passes", s.passes);
        assert_eq!(disk.allocated_pages(), 0, "{label}: pages leaked");
    }
}

/// An anti-correlated key set — `x + y` nearly constant, so a skyline far
/// larger than a one-page window — through the SQL push-down's pipeline
/// (elimination filter, narrow sort) up to a [`BatchSfs`] that starts on
/// one window page and is charged to `pool`; `wrap` may put something
/// between the sorted scan and the filter. Returns the operator, the
/// shared metrics and the disk.
fn growth_fixture(
    keys: &[f64],
    pool: Option<&BufferPool>,
    wrap: impl FnOnce(Arc<HeapFile>, &Arc<SkylineMetrics>) -> BoxedOperator,
) -> (BatchSfs, Arc<SkylineMetrics>, Arc<MemDisk>) {
    let d = 2usize;
    let disk = MemDisk::shared();
    let metrics = SkylineMetrics::shared();
    let score = Arc::new(EntropyScore::from_keys(keys, d));
    let narrow = NarrowLayout::new(d);
    let filter = EliminationFilter::new(d, Arc::clone(&score) as _, Arc::clone(&metrics));
    let entries = FilteredKeys::new(keys, d, filter);
    let sorted = sort_narrow(
        Box::new(entries),
        narrow,
        score,
        3,
        1,
        Arc::clone(&disk) as _,
    )
    .unwrap();
    let mut sfs = BatchSfs::new(
        wrap(Arc::new(sorted), &metrics),
        narrow,
        BatchConfig::new(1),
        Arc::clone(&disk) as _,
        Arc::clone(&metrics),
    )
    .unwrap();
    if let Some(pool) = pool {
        sfs = sfs.with_pool(pool.clone());
    }
    (sfs, metrics, disk)
}

const GROWTH_ROWS: usize = 8_000;

/// The growth fixture's row-major keys and the ascending row ids of
/// their skyline.
fn growth_keys() -> (Vec<f64>, Vec<u64>) {
    let mut keys = Vec::with_capacity(GROWTH_ROWS * 2);
    skyline_testkit::replay(0x6207, |rng| {
        for _ in 0..GROWTH_ROWS {
            let x = rng.usize_below(4_000);
            keys.extend([x as f64, (4_000 - x + rng.usize_below(12)) as f64]);
        }
    });
    let rows: Vec<&[f64]> = keys.chunks_exact(2).collect();
    let beats = |a: &[f64], b: &[f64]| a != b && a[0] >= b[0] && a[1] >= b[1];
    let oracle = (0..rows.len())
        .filter(|&i| !rows.iter().any(|o| beats(o, rows[i])))
        .map(|i| i as u64)
        .collect();
    (keys, oracle)
}

/// Ascending row ids of narrow entries (two key lanes, then the id).
fn row_ids(entries: &[Vec<u8>]) -> Vec<u64> {
    let narrow = NarrowLayout::new(2);
    let mut ids: Vec<u64> = entries.iter().map(|e| narrow.row_id(e)).collect();
    ids.sort_unstable();
    ids
}

/// The window grows inside the quota before a pass spills, and only
/// there. Pools that allow 0, 1, 2, … doublings of a one-page window and
/// then refuse all return the oracle's rows, settle every key exactly
/// once, stay inside the pool and give everything back; a pool of one
/// page is the pool-less run counter for counter (a refused reservation
/// spills exactly as Figure 7 does), and one that holds the whole
/// skyline takes a single pass and writes no temp record.
#[test]
fn window_growth_inside_the_quota_is_exact_and_conserved() {
    let (keys, oracle) = growth_keys();
    let (mut bare, bare_metrics, _) =
        growth_fixture(&keys, None, |sorted, _| Box::new(HeapScan::new(sorted)));
    assert_eq!(row_ids(&collect(&mut bare).unwrap()), oracle);
    drop(bare);
    let bare = bare_metrics.snapshot();
    let capacity_per_page = skyline::storage::PAGE_SIZE / 16;
    let distinct = bare.window_inserts as usize;
    assert!(
        distinct > 4 * capacity_per_page,
        "fixture: {distinct} window entries must overflow four pages"
    );

    let mut last_passes = u64::MAX;
    for pages in [1usize, 2, 3, 4, 5, 7, 8, 16, 64] {
        let label = format!("pool of {pages}");
        let pool = BufferPool::new(pages);
        let (mut sfs, metrics, disk) = growth_fixture(&keys, Some(&pool), |sorted, _| {
            Box::new(HeapScan::new(sorted))
        });
        let out = collect(&mut sfs).unwrap();
        assert_eq!(pool.used(), 0, "{label}: close returns every lease");
        drop(sfs);
        assert_eq!(row_ids(&out), oracle, "{label}");
        let s = metrics.snapshot();
        assert_eq!(
            s.eliminated + s.emitted + s.discarded,
            GROWTH_ROWS as u64,
            "{label}"
        );
        assert_eq!(
            s.input_records,
            GROWTH_ROWS as u64 - s.eliminated,
            "{label}"
        );
        assert_eq!(s.emitted, out.len() as u64, "{label}");
        assert_eq!(s.window_inserts, bare.window_inserts, "{label}");
        // the window doubled, as far as the pool went, until it held
        // the skyline
        let mut held = 1;
        while held * capacity_per_page < distinct && held < pages {
            held += held.min(pages - held);
        }
        assert_eq!(pool.peak(), held, "{label}: peak");
        assert!(pool.peak() <= pool.total(), "{label}");
        assert_eq!(disk.allocated_pages(), 0, "{label}: pages leaked");
        // a larger window never needs more passes
        assert!(s.passes <= last_passes, "{label}: {} passes", s.passes);
        last_passes = s.passes;
        if pages == 1 {
            assert_eq!(s, bare, "{label}: refused growth is the pool-less run");
        }
        let fits = pages * capacity_per_page >= distinct;
        assert_eq!(
            (s.passes == 1, s.temp_records == 0),
            (fits, fits),
            "{label}: {} passes, {} temp records",
            s.passes,
            s.temp_records
        );
    }
}

/// A scan that gives a lease back when it hands out its `after`-th
/// record, and notes the counters as they stood.
struct ReleaseAfter {
    inner: HeapScan,
    after: u64,
    lease: Option<BufferLease>,
    metrics: Arc<SkylineMetrics>,
    released_at: Arc<std::sync::Mutex<Option<MetricsSnapshot>>>,
}

impl Operator for ReleaseAfter {
    fn open(&mut self) -> Result<(), ExecError> {
        self.inner.open()
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        if self.after == 0 && self.lease.take().is_some() {
            *self.released_at.lock().unwrap() = Some(self.metrics.snapshot());
        }
        self.after = self.after.saturating_sub(1);
        self.inner.next()
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn record_size(&self) -> usize {
        self.inner.record_size()
    }
}

/// Fills → refused → spills → the next pass grows. While another lease
/// holds the rest of the pool the first pass cannot grow and spills; the
/// lease goes back *mid-pass*, after records have spilled, and the pass
/// must not take the pages — a later survivor has not met the records
/// spilled ahead of it, so it may not enter the window. The second pass
/// grows and finishes the job. (Under `check-invariants` the stream
/// auditor checks emitted-set incomparability and per-pass accounting
/// through the same run.)
#[test]
fn a_pass_that_has_spilled_never_grows_and_the_next_one_does() {
    let (keys, oracle) = growth_keys();
    let pool = BufferPool::new(64);
    let blocker = pool.reserve(63).unwrap();
    let released_at = Arc::new(std::sync::Mutex::new(None));
    let (mut sfs, metrics, disk) = growth_fixture(&keys, Some(&pool), |sorted, metrics| {
        Box::new(ReleaseAfter {
            after: sorted.len() / 2,
            inner: HeapScan::new(sorted),
            lease: Some(blocker),
            metrics: Arc::clone(metrics),
            released_at: Arc::clone(&released_at),
        })
    });
    sfs.open().unwrap();
    assert_eq!(
        pool.used(),
        64,
        "the window's first page is charged at open"
    );
    let capacity_per_page = (skyline::storage::PAGE_SIZE / 16) as u64;
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut first_pass_inserts = None;
    while let Some(entry) = sfs.next().unwrap() {
        out.push(entry.to_vec());
        let now = metrics.snapshot();
        if now.passes == 2 && first_pass_inserts.is_none() {
            // this emission is the second pass's first insert
            first_pass_inserts = Some(now.window_inserts - 1);
        }
    }
    sfs.close();
    assert_eq!(pool.used(), 0, "close returns every lease");
    drop(sfs);

    let at_release = released_at
        .lock()
        .unwrap()
        .expect("the lease was never released");
    assert_eq!(at_release.passes, 1, "released during the first pass");
    assert!(
        at_release.temp_records > 0,
        "released after the pass had spilled"
    );
    assert_eq!(
        at_release.window_inserts, capacity_per_page,
        "one full page"
    );
    assert_eq!(
        first_pass_inserts,
        Some(capacity_per_page),
        "the first pass inserted nothing after it spilled, pages or no pages"
    );
    let s = metrics.snapshot();
    assert_eq!(row_ids(&out), oracle);
    assert_eq!(s.passes, 2, "pass 2 grew to hold what pass 1 spilled");
    assert!(s.window_inserts > 4 * capacity_per_page);
    assert_eq!(
        s.eliminated + s.emitted + s.discarded,
        GROWTH_ROWS as u64,
        "every key settled once"
    );
    assert!(pool.peak() <= pool.total());
    assert_eq!(disk.allocated_pages(), 0);
}

/// A producer cancelled mid-stream has settled, by the time the error
/// surfaces, exactly the rows it consumed: what it forwarded plus what
/// the filter — front test and window probe — dropped. Nothing waits in
/// the filter's plain counters for a drop that might never come.
#[test]
fn a_cancelled_producer_has_settled_every_row_it_consumed() {
    let (n, d) = (10 * CHUNK + 17, 3usize);
    let mut keys = Vec::with_capacity(n * d);
    skyline_testkit::replay(0xCA7C, |rng| {
        for _ in 0..n {
            keys.extend((0..d).map(|_| rng.usize_below(1_000) as f64));
        }
    });
    let metrics = SkylineMetrics::shared();
    let score = Arc::new(EntropyScore::from_keys(&keys, d));
    let filter = EliminationFilter::new(d, score, Arc::clone(&metrics));
    let token = CancelToken::new();
    let mut entries = FilteredKeys::new(&keys, d, filter);
    entries.cancel = Some(token.clone());
    let narrow = entries.narrow;
    entries.open().unwrap();
    let mut forwarded = 0u64;
    let mut last_row = 0;
    while last_row < 3 * CHUNK as u64 {
        let entry = entries.next().unwrap().expect("cancelled before the end");
        last_row = narrow.row_id(entry);
        forwarded += 1;
    }
    token.cancel();
    let consumed = loop {
        match entries.next() {
            Ok(Some(_)) => forwarded += 1,
            Ok(None) => panic!("the token was never seen"),
            Err(ExecError::Cancelled { records_processed }) => break records_processed,
            Err(e) => panic!("{e}"),
        }
    };
    assert!(consumed < n as u64 && consumed.is_multiple_of(CHUNK as u64));
    assert!(consumed <= last_row + 1 + CHUNK as u64, "one poll interval");
    let s = metrics.snapshot();
    assert!(s.eliminated > 0, "the filter dropped nothing");
    assert_eq!(s.eliminated + forwarded, consumed);
    // and the drop that follows adds nothing twice
    drop(entries);
    assert_eq!(metrics.snapshot(), s);
}

/// The columnar filter obeys the same conservation laws as the row
/// filter, plus the movement laws that make the new counters meaningful:
/// the payload is touched exactly once per survivor, at the
/// materialization boundary, and nowhere else.
#[test]
fn batch_filter_aggregate_is_exact_and_touches_the_payload_once() {
    let n = 2_000usize;
    let (heap, layout, spec, disk) = fixture(n, 5, 31);
    let record_size = layout.record_size() as u64;
    let sorted = Arc::new(
        batch_presort(
            Arc::clone(&heap),
            &layout,
            &spec,
            Arc::new(KeySumScore),
            128,
            16,
            1,
            Arc::clone(&disk) as _,
            SkylineMetrics::shared(),
            None,
        )
        .unwrap(),
    );
    for threads in [2usize, 4] {
        let metrics = SkylineMetrics::shared();
        let outcome = parallel_batch_filter(
            Arc::clone(&sorted),
            Arc::clone(&heap),
            NarrowLayout::new(5),
            BatchConfig::new(4)
                .with_batch_rows(128)
                .with_merge_pages(1024),
            threads,
            Arc::clone(&disk) as _,
            Arc::clone(&metrics),
            None,
            None,
        )
        .unwrap();
        let label = format!("batch t={threads}");
        let skyline_len = outcome.skyline.len();

        // each worker settles its own stratum and never touches payload…
        let mut worker_input = 0u64;
        let mut worker_emitted = 0u64;
        for (w, s) in outcome.worker_metrics.iter().enumerate() {
            assert_settled(s, outcome.stratum_sizes[w], &format!("{label} worker {w}"));
            assert!(s.batches > 0, "{label} worker {w}: no batches recorded");
            assert_eq!(
                s.rows_materialized, 0,
                "{label} worker {w}: a filter stage materialized payload"
            );
            worker_input += s.input_records;
            worker_emitted += s.emitted;
        }
        // …the strata tile the input…
        assert_eq!(worker_input, n as u64, "{label}: strata tile the input");
        // …the merge consumes exactly the local skylines, still narrow…
        let m = &outcome.merge_metrics;
        assert_eq!(m.input_records, worker_emitted, "{label}: merge input");
        assert_eq!(
            m.emitted + m.discarded,
            m.input_records,
            "{label}: merge settles"
        );
        assert_eq!(
            m.emitted, skyline_len,
            "{label}: merge emissions are the skyline"
        );
        assert_eq!(
            m.rows_materialized, 0,
            "{label}: the merge materialized payload"
        );
        // …and materialization fetches each survivor exactly once.
        let mat = &outcome.materialize_metrics;
        assert_eq!(
            mat.rows_materialized, skyline_len,
            "{label}: one payload fetch per survivor"
        );
        assert_eq!(
            mat.bytes_moved,
            skyline_len * record_size,
            "{label}: materialization charges exactly record_size per row"
        );
        // the caller's aggregate is the exact sum of every stage — every
        // counter, including the three movement counters.
        let parts = outcome.worker_metrics.iter().fold(
            outcome.merge_metrics.plus(&outcome.materialize_metrics),
            |acc, s| acc.plus(s),
        );
        assert_eq!(metrics.snapshot(), parts, "{label}: aggregate == Σ stages");
        let agg = metrics.snapshot();
        assert_eq!(
            agg.rows_materialized, skyline_len,
            "{label}: pipeline-wide payload touches == skyline"
        );
        assert!(
            agg.batches >= n as u64 / 128,
            "{label}: at least one batch per full batch_rows of input"
        );
    }
}

/// The sharded pipeline's ledger closes across the machine boundary:
/// the caller's aggregate is the exact per-counter sum of every shard
/// worker plus the coordinator, the aggregate's exchange counters agree
/// with the wire-level meter, every entry a shard sent is an entry the
/// coordinator merged, and the bytes decompose into whole frames —
/// `frames × header + wire_entries × entry_size`, with no slack for the
/// strategies that never broadcast.
#[test]
fn sharded_aggregate_is_exact_and_the_exchange_meter_closes() {
    let n = 2_400usize;
    let d = 5usize;
    let (heap, layout, spec, disk) = fixture(n, d, 37);
    let entry_size = NarrowLayout::new(d).entry_size() as u64;
    for strategy in [
        ShardStrategy::Naive,
        ShardStrategy::Grid,
        ShardStrategy::Representative,
    ] {
        for shards in [2usize, 4] {
            let label = format!("{} shards={shards}", strategy.name());
            let metrics = SkylineMetrics::shared();
            let shard_disks: Vec<_> = (0..shards)
                .map(|_| MemDisk::shared() as Arc<dyn skyline::storage::Disk>)
                .collect();
            let outcome = sharded_skyline(
                Arc::clone(&heap),
                &layout,
                &spec,
                ShardConfig::new(shards, strategy, 2)
                    .with_batch_rows(128)
                    .with_sort_pages(8),
                &shard_disks,
                Arc::clone(&disk) as _,
                Arc::clone(&metrics),
                None,
            )
            .unwrap();

            // each shard worker settles the records routed to it…
            let mut routed = 0u64;
            let mut sent = 0u64;
            for (i, st) in outcome.shard_stats.iter().enumerate() {
                assert_settled(&st.metrics, st.records, &format!("{label} shard {i}"));
                assert_eq!(
                    st.metrics.emitted, st.local_skyline,
                    "{label} shard {i}: emissions are the local skyline"
                );
                assert!(
                    st.sent_entries <= st.local_skyline,
                    "{label} shard {i}: cannot send more than it kept"
                );
                routed += st.records;
                sent += st.sent_entries;
            }
            // …the routing tiles the input…
            assert_eq!(routed, n as u64, "{label}: routing tiles the input");
            // …every entry sent is an entry the coordinator merged…
            assert_eq!(
                sent, outcome.union_entries,
                "{label}: wire entries == merged union"
            );
            // …the caller's aggregate is the exact per-counter sum of
            // every stage…
            let parts = outcome
                .shard_stats
                .iter()
                .fold(outcome.coordinator_metrics, |acc, st| acc.plus(&st.metrics));
            assert_eq!(
                metrics.snapshot(),
                parts,
                "{label}: aggregate == Σ shards + coordinator"
            );
            // …the aggregate's exchange counters are the wire meter…
            let agg = metrics.snapshot();
            assert_eq!(
                agg.bytes_exchanged, outcome.exchange.bytes_exchanged,
                "{label}: counter vs meter bytes"
            );
            assert_eq!(
                agg.exchange_frames, outcome.exchange.exchange_frames,
                "{label}: counter vs meter frames"
            );
            // …and the bytes decompose into whole frames. Upload frames
            // carry the union; broadcast representative frames (counted
            // once per receiver) add whole entries on top.
            let upload_bytes = agg.exchange_frames * FRAME_HEADER_BYTES as u64
                + outcome.union_entries * entry_size;
            match strategy {
                ShardStrategy::Representative => {
                    assert!(
                        agg.bytes_exchanged >= upload_bytes,
                        "{label}: broadcasts only add bytes"
                    );
                    assert_eq!(
                        (agg.bytes_exchanged - agg.exchange_frames * FRAME_HEADER_BYTES as u64)
                            % entry_size,
                        0,
                        "{label}: wire payloads are whole narrow entries"
                    );
                    assert!(
                        agg.pruned_by_representatives > 0,
                        "{label}: anti-correlated d=5 must prune something"
                    );
                }
                _ => {
                    assert_eq!(
                        agg.bytes_exchanged, upload_bytes,
                        "{label}: bytes == frames × header + union × entry_size, exactly"
                    );
                    assert_eq!(
                        agg.pruned_by_representatives, 0,
                        "{label}: only the representative strategy prunes"
                    );
                }
            }
            // per-shard disks drained; the skyline lives on the
            // coordinator disk.
            for (i, sd) in shard_disks.iter().enumerate() {
                assert_eq!(sd.allocated_pages(), 0, "{label}: shard {i} disk leaked");
            }
        }
    }
}

/// The three movement counters survive the trip into the gate's golden
/// text verbatim — narrow runs serialize the measured values, record runs
/// the analytic model with `batches` pinned to 0.
#[test]
fn movement_counters_round_trip_through_the_gate_report() {
    let runs = run_section(&GateSpec {
        label: "rt",
        n: 600,
        d: 4,
        window_pages: 2,
        threads: &[1],
    });
    let golden = parse_golden(&render_golden(&golden_of(&runs))).expect("own text parses");
    let [record, narrow] = runs.as_slice() else {
        panic!("one run per format, got {runs:?}");
    };
    for key in ["batches", "rows_materialized", "bytes_moved"] {
        let want = narrow.get(key);
        assert!(want > Some(0), "narrow runs must measure a nonzero `{key}`");
        assert_eq!(
            golden.get(&format!("rt/narrow t=1/{key}")).copied(),
            want,
            "`{key}` did not round-trip through the golden text"
        );
        assert_eq!(
            golden.get(&format!("rt/record t=1/{key}")).copied(),
            record.get(key)
        );
    }
    assert_eq!(
        record.get("batches"),
        Some(0),
        "record runs never form batches"
    );
    assert!(
        record.get("rows_materialized") > record.get("skyline"),
        "the record model re-materializes more than the survivors"
    );
}
