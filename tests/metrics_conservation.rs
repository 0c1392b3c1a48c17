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
    sharded_skyline, sort_narrow, GroupedElimination, ShardConfig, ShardStrategy, Survey,
    CHUNK_ROWS,
};
use skyline::core::planner::{bnl_over, entropy_stats_of, load_heap, presort, sfs_filter};
use skyline::core::{
    batch_presort, parallel_batch_filter, parallel_sfs_filter, BatchConfig, BatchSfs, EntropyScore,
    KeySumScore, MetricsSnapshot, SfsConfig, SkylineMetrics, SkylineSpec, SortOrder,
};
use skyline::exchange::FRAME_HEADER_BYTES;
use skyline::exec::cancel::poll_now;
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

/// Key columns as narrow entries, minus what the survey and the
/// elimination filter drop: the SQL push-down's producer, rebuilt from
/// its public parts. `open` surveys the columns (screening nothing under
/// `DIFF`); then the survey's seeds, best sum first, and after them its
/// other kept rows, a chunk at a time in row order, are gathered and
/// offered to their own group's filter, whose counters are settled where
/// the token is polled.
struct SurveyedKeys {
    columns: Vec<Vec<f64>>,
    /// Each row's `DIFF` group; `None` without `DIFF`.
    groups: Option<Vec<usize>>,
    narrow: NarrowLayout,
    filter: GroupedElimination,
    metrics: Arc<SkylineMetrics>,
    cancel: Option<CancelToken>,
    survey: Survey,
    seeded: usize,
    next_chunk: usize,
    rows: Vec<usize>,
    taken: usize,
    /// Rows offered to the filter so far.
    offered: u64,
    lanes: Vec<f64>,
    entry: Vec<u8>,
}

impl SurveyedKeys {
    /// Over the row-major `keys`, `d` wide, in `groups` if given, ranked
    /// by `score` and charging `metrics`.
    fn new(
        keys: &[f64],
        d: usize,
        groups: Option<Vec<usize>>,
        score: Arc<EntropyScore>,
        metrics: &Arc<SkylineMetrics>,
    ) -> Self {
        let g = groups
            .as_ref()
            .map_or(1, |g| g.iter().max().map_or(0, |m| m + 1));
        SurveyedKeys {
            columns: (0..d)
                .map(|k| keys.iter().skip(k).step_by(d).copied().collect())
                .collect(),
            narrow: NarrowLayout::new(d).with_diff(usize::from(groups.is_some())),
            groups,
            filter: GroupedElimination::new(d, g, score, Arc::clone(metrics)),
            metrics: Arc::clone(metrics),
            cancel: None,
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

impl Operator for SurveyedKeys {
    fn open(&mut self) -> Result<(), ExecError> {
        let columns = &self.columns;
        self.survey = Survey::run(
            columns[0].len(),
            columns.len(),
            self.groups.is_none(),
            |k| (&columns[k][..], 1.0),
            self.cancel.as_ref(),
            &self.metrics,
        )?;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        loop {
            while let Some(&row) = self.rows.get(self.taken) {
                self.taken += 1;
                self.offered += 1;
                self.lanes.clear();
                self.lanes.extend(self.columns.iter().map(|c| c[row]));
                let group = self.groups.as_ref().map(|g| g[row]);
                if self.filter.admit(group.unwrap_or(0), &self.lanes) {
                    self.lanes.extend(group.map(|g| g as f64));
                    self.narrow
                        .encode_into(&self.lanes, row as u64, &mut self.entry);
                    return Ok(Some(&self.entry));
                }
            }
            self.filter.settle();
            poll_now(self.cancel.as_ref(), self.survey.dropped() + self.offered)?;
            let (seeds, n) = (self.survey.seeds(), self.columns[0].len());
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

/// With a survey and an elimination filter ahead of the sort, a key is
/// settled in exactly one of three places: dropped by the survey or the
/// filter, discarded by SFS, or emitted. The three stages share one
/// `SkylineMetrics`, as they do under SQL, and the sort in between
/// neither adds nor loses a record — also on a correlated table, where
/// the survey drops nearly every row before the filter sees it.
#[test]
fn elimination_filter_then_sort_then_sfs_settle_every_key_exactly_once() {
    let (n, d) = (4_000usize, 3usize);
    for (label, window_pages) in [("single-pass", 8), ("multipass", 1), ("correlated", 8)] {
        let multipass = label == "multipass";
        let mut keys = Vec::with_capacity(n * d);
        skyline_testkit::replay(0x1E55, |rng| {
            for _ in 0..n {
                let x = rng.usize_below(1_000);
                // multipass: `x + y` nearly constant, so a skyline of
                // several hundred keys over a bulk the filter can drop;
                // correlated: every criterion within 20 of `x`
                let (y, z) = match label {
                    "multipass" => (1_000 - x + rng.usize_below(40), rng.usize_below(100)),
                    "correlated" => (x + rng.usize_below(20), x + rng.usize_below(20)),
                    _ => (rng.usize_below(1_000), rng.usize_below(100)),
                };
                keys.extend([x as f64, y as f64, z as f64]);
            }
        });
        let disk = MemDisk::shared();
        let metrics = SkylineMetrics::shared();
        let score = Arc::new(EntropyScore::from_keys(&keys, d));
        let narrow = NarrowLayout::new(d);
        let entries = SurveyedKeys::new(&keys, d, None, Arc::clone(&score), &metrics);
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
        if label == "correlated" {
            assert!(s.input_records < n as u64 / 100, "{label}: {s:?}");
        }
        assert_eq!(disk.allocated_pages(), 0, "{label}: pages leaked");
    }
}

/// Under `DIFF` too, a key is settled in exactly one place — dropped by
/// its group's filter, discarded by SFS, or emitted — and the filter
/// drops only what its own group dominates: every `DIFF` shape (one
/// group; 8 groups; more groups than the filter's page holds, the rest
/// unscreened; one-row groups; 8 groups of a correlated table, whose
/// seeds drop nearly everything), single-pass and multipass, keeps
/// `eliminated + forwarded == rows` and `eliminated + emitted +
/// discarded == rows`, emits each group's skyline, and settles nothing
/// twice when the pipeline drops.
#[test]
fn grouped_filter_then_sort_then_sfs_settle_every_key_exactly_once() {
    let (n, d) = (4_000usize, 3usize);
    let page = skyline::storage::PAGE_SIZE / (8 * d);
    let (mut anti, mut correlated) = (Vec::with_capacity(n * d), Vec::with_capacity(n * d));
    skyline_testkit::replay(0xD1FE, |rng| {
        for _ in 0..n {
            let x = rng.usize_below(1_000);
            // `x + y` nearly constant: skylines of many keys per group
            let y = 1_000 - x + rng.usize_below(60);
            anti.extend([x as f64, y as f64, rng.usize_below(100) as f64]);
            let (y, z) = (x + rng.usize_below(20), x + rng.usize_below(20));
            correlated.extend([x as f64, y as f64, z as f64]);
        }
    });
    for (label, groups, window_pages) in [
        ("one group", vec![0; n], 8),
        ("8 groups", (0..n).map(|i| i * 7 % 8).collect(), 8),
        (
            "8 groups, multipass",
            (0..n).map(|i| i * 7 % 8).collect(),
            1,
        ),
        ("past the page", (0..n).map(|i| i % (3 * page)).collect(), 8),
        ("one-row groups", (0..n).collect(), 8),
        (
            "8 groups, correlated",
            (0..n).map(|i| i * 7 % 8).collect(),
            8,
        ),
    ] {
        let is_correlated = label.ends_with("correlated");
        let keys = if is_correlated { &correlated } else { &anti };
        let g = groups.iter().max().unwrap() + 1;
        let disk = MemDisk::shared();
        let metrics = SkylineMetrics::shared();
        let score = Arc::new(EntropyScore::from_keys(keys, d));
        let narrow = NarrowLayout::new(d).with_diff(1);
        let groups_of = Some(groups.clone());
        let entries = SurveyedKeys::new(keys, d, groups_of, Arc::clone(&score), &metrics);
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
        let rows = n as u64;
        assert_eq!(s.eliminated + forwarded, rows, "{label}: dropped or sorted");
        assert_eq!(s.input_records, rows - s.eliminated, "{label}");
        assert_eq!(s.eliminated + s.emitted + s.discarded, rows, "{label}");
        assert_eq!(s.emitted, out.len() as u64, "{label}");
        assert_eq!(
            s.passes > 1,
            window_pages == 1,
            "{label}: {} passes",
            s.passes
        );
        if g <= page {
            assert!(s.eliminated > 0, "{label}: the filter dropped nothing");
        }
        if g == n {
            assert_eq!(
                s.eliminated, 0,
                "{label}: a one-row group has nothing to drop"
            );
        }
        if is_correlated {
            assert!(s.input_records < rows / 20, "{label}: {s:?}");
        }
        // each group's skyline, and nothing else
        let key = |i: usize| &keys[i * d..(i + 1) * d];
        let mut got: Vec<usize> = out.iter().map(|e| narrow.row_id(e) as usize).collect();
        got.sort_unstable();
        let want: Vec<usize> = (0..n)
            .filter(|&i| {
                !(0..n).any(|j| groups[j] == groups[i] && skyline::core::dominates(key(j), key(i)))
            })
            .collect();
        assert_eq!(got, want, "{label}");
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
    let entries = SurveyedKeys::new(keys, d, None, Arc::clone(&score), &metrics);
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
/// the survey and the filter — front test and window probe — dropped,
/// and the error's progress count says so. Nothing waits in the filter's
/// plain counters for a drop that might never come, and the token is
/// seen within one chunk of rows offered.
#[test]
fn a_cancelled_producer_has_settled_every_row_it_consumed() {
    let (n, d) = (10 * CHUNK_ROWS + 17, 3usize);
    let mut keys = Vec::with_capacity(n * d);
    skyline_testkit::replay(0xCA7C, |rng| {
        for _ in 0..n {
            keys.extend((0..d).map(|_| rng.usize_below(1_000) as f64));
        }
    });
    let metrics = SkylineMetrics::shared();
    let score = Arc::new(EntropyScore::from_keys(&keys, d));
    let token = CancelToken::new();
    let mut entries = SurveyedKeys::new(&keys, d, None, score, &metrics);
    entries.cancel = Some(token.clone());
    entries.open().unwrap();
    let dropped = entries.survey.dropped();
    let mut forwarded = 0u64;
    while entries.offered <= CHUNK_ROWS as u64 {
        entries.next().unwrap().expect("cancelled before the end");
        forwarded += 1;
    }
    let offered = entries.offered;
    token.cancel();
    let consumed = loop {
        match entries.next() {
            Ok(Some(_)) => forwarded += 1,
            Ok(None) => panic!("the token was never seen"),
            Err(ExecError::Cancelled { records_processed }) => break records_processed,
            Err(e) => panic!("{e}"),
        }
    };
    assert!(consumed < n as u64);
    assert!(
        consumed <= dropped + offered + CHUNK_ROWS as u64,
        "one poll interval"
    );
    let s = metrics.snapshot();
    assert!(s.eliminated > dropped, "the filter dropped nothing");
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
