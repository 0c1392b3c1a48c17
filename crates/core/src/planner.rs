//! Plan construction helpers: wiring generators, sorts, and skyline
//! operators the way the paper's experimental setup (and a real optimizer)
//! would.
//!
//! The paper treats SFS's sort and filter as **separately scheduled
//! operations** with separate buffer allocations (§5) — so the canonical
//! pipeline here materializes the sorted relation into a heap file, then
//! runs the filter phase over a scan of it. That also makes the paper's
//! "extra pages" metric directly observable: every page the *filter phase*
//! reads or writes beyond the initial scan is temp-file traffic.

use crate::dominance::SkylineSpec;
use crate::external::{Bnl, Sfs, SfsConfig};
use crate::metrics::SkylineMetrics;
use crate::score::{oriented_stats, EntropyScore, SkylineOrderCmp, SortOrder};
use skyline_exec::{ExecError, ExternalSort, HeapScan, Operator, SortBudget};
use skyline_relation::RecordLayout;
use skyline_storage::{Disk, HeapFile, StorageError};
use std::sync::Arc;

/// Drain an operator into a fresh heap file on `disk` (the sorted-relation
/// materialization step). The pages live as long as the returned handle;
/// an error unwind drops the partial file and frees them.
///
/// # Errors
/// Propagates operator errors and storage errors from the heap writer.
pub fn materialize(op: &mut dyn Operator, disk: Arc<dyn Disk>) -> Result<HeapFile, ExecError> {
    let mut out = HeapFile::create(disk, op.record_size())?;
    op.open()?;
    {
        let mut w = out.writer()?;
        while let Some(r) = op.next()? {
            w.push(r)?;
        }
        w.finish()?;
    }
    op.close();
    Ok(out)
}

/// Compute the entropy-score statistics for `spec` by scanning a heap file
/// (what a catalog would already know; scans cost one pass).
///
/// # Errors
/// Propagates storage errors from the scan.
pub fn entropy_stats_of(
    heap: &Arc<HeapFile>,
    layout: &RecordLayout,
    spec: &SkylineSpec,
) -> Result<EntropyScore, ExecError> {
    let mut scan = heap.scan();
    let mut cols = vec![skyline_relation::ColumnStats::empty(); spec.dims()];
    let mut key = Vec::with_capacity(spec.dims());
    while let Some(r) = scan.next_record()? {
        spec.key_of(layout, r, &mut key);
        for (c, &v) in cols.iter_mut().zip(&key) {
            c.observe(v);
        }
    }
    Ok(EntropyScore::new(
        skyline_relation::TableStats::from_columns(cols),
    ))
}

/// Compute entropy stats straight from in-memory records (generation time —
/// free, like catalog statistics).
pub fn entropy_stats_of_records<'a, I>(
    layout: &RecordLayout,
    spec: &SkylineSpec,
    records: I,
) -> EntropyScore
where
    I: IntoIterator<Item = &'a [u8]>,
{
    EntropyScore::new(oriented_stats(layout, spec, records))
}

/// The sort phase: sort `heap` by the requested monotone order and
/// materialize the result. Returns the sorted heap file.
///
/// # Errors
/// Propagates operator errors; config errors if entropy stats are missing
/// for an entropy order.
pub fn presort(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    order: SortOrder,
    entropy: Option<EntropyScore>,
    sort_pages: usize,
    disk: Arc<dyn Disk>,
) -> Result<HeapFile, ExecError> {
    if matches!(order, SortOrder::Entropy | SortOrder::ReverseEntropy) && entropy.is_none() {
        return Err(ExecError::Config("entropy order requires stats".into()));
    }
    let cmp = Arc::new(SkylineOrderCmp::new(layout, spec, order, entropy));
    let scan = Box::new(HeapScan::new(heap));
    let mut sort = ExternalSort::new(scan, cmp, Arc::clone(&disk), SortBudget::pages(sort_pages));
    materialize(&mut sort, disk)
}

/// [`presort`] with the sort's run formation and intermediate merge
/// passes spread over `threads` worker threads (0 = one per core). Same
/// sorted output — run boundaries differ, the order does not.
///
/// # Errors
/// Same as [`presort`], plus [`ExecError::Worker`] if a sort worker
/// panics.
#[allow(clippy::too_many_arguments)]
pub fn presort_threaded(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    order: SortOrder,
    entropy: Option<EntropyScore>,
    sort_pages: usize,
    threads: usize,
    disk: Arc<dyn Disk>,
) -> Result<HeapFile, ExecError> {
    if matches!(order, SortOrder::Entropy | SortOrder::ReverseEntropy) && entropy.is_none() {
        return Err(ExecError::Config("entropy order requires stats".into()));
    }
    let cmp = Arc::new(SkylineOrderCmp::new(layout, spec, order, entropy));
    let scan = Box::new(HeapScan::new(heap));
    let mut sort = ExternalSort::new(scan, cmp, Arc::clone(&disk), SortBudget::pages(sort_pages))
        .with_threads(threads);
    materialize(&mut sort, disk)
}

/// The whole external pipeline, parallel end to end: threaded presort,
/// then the partitioned filter of
/// [`crate::external::parallel_sfs_filter`]. One `threads` knob drives
/// both phases (0 = one per available core); worker and merge metrics
/// are folded into `metrics` and returned per stage in the outcome.
///
/// # Errors
/// Propagates sort/filter errors; see [`presort_threaded`] and
/// [`crate::external::parallel_sfs_filter`].
#[allow(clippy::too_many_arguments)]
pub fn parallel_skyline_pipeline(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    order: SortOrder,
    entropy: Option<EntropyScore>,
    cfg: SfsConfig,
    sort_pages: usize,
    threads: usize,
    disk: Arc<dyn Disk>,
    metrics: Arc<SkylineMetrics>,
    pool: Option<&skyline_storage::BufferPool>,
    cancel: Option<skyline_exec::CancelToken>,
) -> Result<crate::external::ParFilterOutcome, ExecError> {
    let sorted = presort_threaded(
        heap,
        layout,
        spec.clone(),
        order,
        entropy,
        sort_pages,
        threads,
        Arc::clone(&disk),
    )?;
    crate::external::parallel_sfs_filter(
        Arc::new(sorted),
        layout,
        spec,
        cfg,
        threads,
        disk,
        metrics,
        pool,
        cancel,
    )
}

/// The narrow-entry pipeline end-to-end: batch presort of key/row-id
/// entries by the oriented key sum, the partitioned filter on the narrow
/// format, and one late-materialization pass against the base heap —
/// [`parallel_skyline_pipeline`] with the other entry format.
///
/// # Errors
/// Configuration (DIFF specs are rejected — [`crate::external::batch_presort`]
/// extracts criteria only), storage, buffer, worker, and cancellation
/// errors propagate.
#[allow(clippy::too_many_arguments)]
pub fn batch_skyline_pipeline(
    heap: Arc<HeapFile>,
    layout: &RecordLayout,
    spec: &SkylineSpec,
    cfg: crate::external::BatchConfig,
    sort_pages: usize,
    threads: usize,
    disk: Arc<dyn Disk>,
    metrics: Arc<SkylineMetrics>,
    pool: Option<&skyline_storage::BufferPool>,
    cancel: Option<skyline_exec::CancelToken>,
) -> Result<crate::external::BatchFilterOutcome, ExecError> {
    let narrow = skyline_exec::NarrowLayout::new(spec.dims());
    let sorted = crate::external::batch_presort(
        Arc::clone(&heap),
        layout,
        spec,
        Arc::new(crate::external::KeySumScore),
        cfg.batch_rows,
        sort_pages,
        threads,
        Arc::clone(&disk),
        Arc::clone(&metrics),
        cancel.clone(),
    )?;
    crate::external::parallel_batch_filter(
        Arc::new(sorted),
        heap,
        narrow,
        cfg,
        threads,
        disk,
        metrics,
        pool,
        cancel,
    )
}

/// The sharded pipeline end-to-end on fresh in-memory shard disks:
/// route records to `cfg.shards` workers, run local presort + batch SFS
/// per shard, exchange partial skylines as metered frames, and merge on
/// the coordinator — the distributed mirror of
/// [`batch_skyline_pipeline`]. Callers that need fault injection or
/// per-shard durability hand their own disks to
/// [`crate::external::sharded_skyline`] directly.
///
/// # Errors
/// The same errors as [`crate::external::sharded_skyline`].
pub fn sharded_skyline_pipeline(
    heap: Arc<HeapFile>,
    layout: &RecordLayout,
    spec: &SkylineSpec,
    cfg: crate::external::ShardConfig,
    disk: Arc<dyn Disk>,
    metrics: Arc<SkylineMetrics>,
    cancel: Option<skyline_exec::CancelToken>,
) -> Result<crate::external::ShardOutcome, ExecError> {
    let shard_disks: Vec<Arc<dyn Disk>> = (0..cfg.shards)
        .map(|_| skyline_storage::MemDisk::shared() as Arc<dyn Disk>)
        .collect();
    crate::external::sharded_skyline(heap, layout, spec, cfg, &shard_disks, disk, metrics, cancel)
}

/// The filter phase: SFS over an already-sorted heap file.
///
/// # Errors
/// Config errors from [`Sfs::new`].
pub fn sfs_filter(
    sorted: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    cfg: SfsConfig,
    disk: Arc<dyn Disk>,
    metrics: Arc<SkylineMetrics>,
) -> Result<Sfs, ExecError> {
    let scan = Box::new(HeapScan::new(sorted));
    Sfs::new(scan, layout, spec, cfg, disk, metrics)
}

/// Presort by a *user preference* (any monotone scoring — §4.4): the
/// resulting SFS emits skyline tuples in preference order, so a LIMIT on
/// top yields the preferred top-N with early termination.
///
/// # Errors
/// Propagates operator errors.
pub fn presort_by_preference(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    score: Arc<dyn crate::score::MonotoneScore>,
    sort_pages: usize,
    disk: Arc<dyn Disk>,
) -> Result<HeapFile, ExecError> {
    let cmp = Arc::new(crate::score::PreferenceCmp::new(layout, spec, score));
    let scan = Box::new(HeapScan::new(heap));
    let mut sort = ExternalSort::new(scan, cmp, Arc::clone(&disk), SortBudget::pages(sort_pages));
    materialize(&mut sort, disk)
}

/// BNL over a heap file in its natural (heap) order.
///
/// # Errors
/// Config errors from [`Bnl::new`].
pub fn bnl_over(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    window_pages: usize,
    disk: Arc<dyn Disk>,
    metrics: Arc<SkylineMetrics>,
) -> Result<Bnl, ExecError> {
    let scan = Box::new(HeapScan::new(heap));
    Bnl::new(scan, layout, spec, window_pages, disk, metrics)
}

/// Load records into a fresh heap file (workload setup). A failed load
/// drops the file and frees its pages.
///
/// # Errors
/// Storage errors from file creation or the appends.
pub fn load_heap<'a, I>(
    disk: Arc<dyn Disk>,
    record_size: usize,
    records: I,
) -> Result<HeapFile, StorageError>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut heap = HeapFile::create(disk, record_size)?;
    heap.append_all(records)?;
    Ok(heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use crate::keys::KeyMatrix;
    use skyline_exec::collect;
    use skyline_relation::gen::WorkloadSpec;
    use skyline_storage::MemDisk;

    fn oracle_count(records: &[Vec<u8>], layout: &RecordLayout, d: usize) -> usize {
        let mut rows = Vec::with_capacity(records.len());
        for r in records {
            rows.push(
                (0..d)
                    .map(|i| f64::from(layout.attr(r, i)))
                    .collect::<Vec<_>>(),
            );
        }
        algo::naive(&KeyMatrix::from_rows(&rows)).indices.len()
    }

    #[test]
    fn full_sfs_pipeline_matches_oracle() {
        let spec_w = WorkloadSpec::paper(2_000, 42);
        let records = spec_w.generate();
        let layout = spec_w.layout;
        let d = 4;
        let spec = SkylineSpec::max_all(d);
        let disk = MemDisk::shared();
        let heap = Arc::new(
            load_heap(
                Arc::clone(&disk) as _,
                layout.record_size(),
                records.iter().map(Vec::as_slice),
            )
            .unwrap(),
        );
        let stats = entropy_stats_of(&heap, &layout, &spec).unwrap();
        let sorted = presort(
            Arc::clone(&heap),
            layout,
            spec.clone(),
            SortOrder::Entropy,
            Some(stats),
            50,
            Arc::clone(&disk) as _,
        )
        .unwrap();
        let metrics = SkylineMetrics::shared();
        let mut sfs = sfs_filter(
            Arc::new(sorted),
            layout,
            spec,
            SfsConfig::new(4).with_projection(),
            Arc::clone(&disk) as _,
            Arc::clone(&metrics),
        )
        .unwrap();
        let out = collect(&mut sfs).unwrap();
        assert_eq!(out.len(), oracle_count(&records, &layout, d));
        assert_eq!(metrics.snapshot().emitted as usize, out.len());
    }

    #[test]
    fn bnl_pipeline_matches_sfs_pipeline() {
        let spec_w = WorkloadSpec::paper(3_000, 7);
        let records = spec_w.generate();
        let layout = spec_w.layout;
        let spec = SkylineSpec::max_all(5);
        let disk = MemDisk::shared();
        let heap = Arc::new(
            load_heap(
                Arc::clone(&disk) as _,
                layout.record_size(),
                records.iter().map(Vec::as_slice),
            )
            .unwrap(),
        );
        let metrics = SkylineMetrics::shared();
        let mut bnl = bnl_over(
            Arc::clone(&heap),
            layout,
            spec.clone(),
            2,
            Arc::clone(&disk) as _,
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut bnl_out = collect(&mut bnl).unwrap();

        let sorted = presort(
            heap,
            layout,
            spec.clone(),
            SortOrder::Nested,
            None,
            50,
            Arc::clone(&disk) as _,
        )
        .unwrap();
        let mut sfs = sfs_filter(
            Arc::new(sorted),
            layout,
            spec,
            SfsConfig::new(2),
            Arc::clone(&disk) as _,
            SkylineMetrics::shared(),
        )
        .unwrap();
        let mut sfs_out = collect(&mut sfs).unwrap();
        bnl_out.sort();
        sfs_out.sort();
        assert_eq!(bnl_out, sfs_out);
    }

    #[test]
    fn materialize_round_trips() {
        let disk = MemDisk::shared();
        let recs: Vec<Vec<u8>> = (0..100u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let mut src = skyline_exec::MemSource::new(recs.clone(), 8);
        let heap = materialize(&mut src, Arc::clone(&disk) as _).unwrap();
        assert_eq!(heap.read_all().unwrap(), recs);
    }
}
