//! The operator trait and the leaf sources.

use crate::error::ExecError;
use skyline_storage::{HeapFile, SharedScanner};
use std::sync::Arc;

/// A physical operator producing a stream of fixed-width records.
///
/// Protocol: `open` once, then `next` until it returns `Ok(None)`, then
/// `close`. The slice returned by `next` is valid only until the following
/// `next`/`close` call (lending-iterator style), which keeps the hot path
/// allocation-free.
pub trait Operator {
    /// Prepare the stream. Blocking operators (sort) do their work here.
    ///
    /// # Errors
    /// Whatever preparing the stream hits: storage faults, an exhausted page
    /// budget, cancellation.
    fn open(&mut self) -> Result<(), ExecError>;

    /// Produce the next record, or `Ok(None)` at end of stream.
    ///
    /// # Errors
    /// Storage faults, cancellation, or [`ExecError::Protocol`] for a `next`
    /// before `open`.
    fn next(&mut self) -> Result<Option<&[u8]>, ExecError>;

    /// Release resources (temp files, buffer leases). Idempotent.
    fn close(&mut self);

    /// Size in bytes of the records this operator emits.
    fn record_size(&self) -> usize;
}

/// Boxed operator, the unit of plan composition.
pub type BoxedOperator = Box<dyn Operator>;

/// Drain an operator into owned records (runs open/next*/close).
/// Convenience for tests, examples, and top-of-plan collection.
///
/// # Errors
/// Propagates whatever [`Operator::open`] / [`Operator::next`] return;
/// the operator is *not* closed on error (its own drop handles cleanup).
pub fn collect(op: &mut dyn Operator) -> Result<Vec<Vec<u8>>, ExecError> {
    op.open()?;
    let mut out = Vec::new();
    while let Some(r) = op.next()? {
        out.push(r.to_vec());
    }
    op.close();
    Ok(out)
}

/// Leaf operator scanning a heap file front to back.
pub struct HeapScan {
    heap: Arc<HeapFile>,
    scan: Option<SharedScanner>,
}

impl HeapScan {
    /// Scan `heap`.
    pub fn new(heap: Arc<HeapFile>) -> Self {
        HeapScan { heap, scan: None }
    }
}

impl Operator for HeapScan {
    fn open(&mut self) -> Result<(), ExecError> {
        self.scan = Some(SharedScanner::new(Arc::clone(&self.heap)));
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        let scan = self
            .scan
            .as_mut()
            .ok_or(ExecError::Protocol("HeapScan::next before open"))?;
        Ok(scan.next_record()?)
    }

    fn close(&mut self) {
        self.scan = None;
    }

    fn record_size(&self) -> usize {
        self.heap.record_size()
    }
}

/// Leaf operator scanning a contiguous record range `[lo, hi)` of a heap
/// file — one worker's partition of the parallel filter phase. Because a
/// range of a presorted file is itself presorted, the downstream SFS
/// window stays provably correct on each partition.
pub struct HeapRangeScan {
    heap: Arc<HeapFile>,
    lo: u64,
    hi: u64,
    scan: Option<SharedScanner>,
}

impl HeapRangeScan {
    /// Scan records `lo..hi` (0-based, half-open, clamped to the file).
    pub fn new(heap: Arc<HeapFile>, lo: u64, hi: u64) -> Self {
        HeapRangeScan {
            heap,
            lo,
            hi,
            scan: None,
        }
    }
}

impl Operator for HeapRangeScan {
    fn open(&mut self) -> Result<(), ExecError> {
        let mut scan = SharedScanner::new(Arc::clone(&self.heap));
        scan.seek(self.lo);
        self.scan = Some(scan);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        let scan = self
            .scan
            .as_mut()
            .ok_or(ExecError::Protocol("HeapRangeScan::next before open"))?;
        if scan.position() >= self.hi {
            return Ok(None);
        }
        Ok(scan.next_record()?)
    }

    fn close(&mut self) {
        self.scan = None;
    }

    fn record_size(&self) -> usize {
        self.heap.record_size()
    }
}

/// Leaf operator yielding every `stride`-th record starting at `offset`
/// — one stratum of a round-robin partitioning. A strided subsequence of
/// a presorted file is itself presorted, so a downstream SFS window stays
/// provably correct per stratum; unlike a contiguous range, each stratum
/// is a stratified sample of the whole file, so strata of a score-sorted
/// input have comparable skyline density (a contiguous tail range of a
/// presorted file concentrates exactly the records whose dominators live
/// in earlier ranges, and its local skyline explodes).
///
/// Every stratum scan reads the pages it crosses, so `t` strided scans
/// cost up to `t×` the page reads of one full scan — the price of
/// balance, paid in sequential I/O.
pub struct StridedHeapScan {
    heap: Arc<HeapFile>,
    offset: u64,
    stride: u64,
    scan: Option<SharedScanner>,
}

impl StridedHeapScan {
    /// Scan records at positions `offset, offset+stride, offset+2·stride…`.
    ///
    /// # Panics
    /// Panics when `stride == 0` or `offset >= stride`.
    pub fn new(heap: Arc<HeapFile>, offset: u64, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(offset < stride, "offset must be below the stride");
        StridedHeapScan {
            heap,
            offset,
            stride,
            scan: None,
        }
    }
}

impl Operator for StridedHeapScan {
    fn open(&mut self) -> Result<(), ExecError> {
        let mut scan = SharedScanner::new(Arc::clone(&self.heap));
        scan.seek(self.offset);
        self.scan = Some(scan);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        // Skip-then-lend split, as in ChainScan: a record lent from
        // inside the loop would hold its borrow across iterations, so
        // the loop only advances past foreign positions and the single
        // lending call sits after it.
        loop {
            let scan = self
                .scan
                .as_mut()
                .ok_or(ExecError::Protocol("StridedHeapScan::next before open"))?;
            if scan.position() >= self.heap.len() {
                return Ok(None);
            }
            if scan.position() % self.stride == self.offset {
                break;
            }
            if scan.next_record()?.is_none() {
                return Ok(None);
            }
        }
        let scan = self
            .scan
            .as_mut()
            .ok_or(ExecError::Protocol("StridedHeapScan scanner vanished"))?;
        Ok(scan.next_record()?)
    }

    fn close(&mut self) {
        self.scan = None;
    }

    fn record_size(&self) -> usize {
        self.heap.record_size()
    }
}

/// Leaf operator concatenating several heap files front to back — the
/// merge phase's view of the per-partition local skylines, which (being
/// ranges of one presorted file, filtered order-preservingly) are
/// globally sorted when read in partition order.
pub struct ChainScan {
    heaps: Vec<Arc<HeapFile>>,
    record_size: usize,
    current: usize,
    scan: Option<SharedScanner>,
}

impl ChainScan {
    /// Scan `heaps` in order; all must share one record size.
    ///
    /// # Panics
    /// Panics if `heaps` is empty or the record sizes disagree.
    pub fn new(heaps: Vec<Arc<HeapFile>>) -> Self {
        assert!(!heaps.is_empty(), "ChainScan needs at least one file");
        let record_size = heaps[0].record_size();
        for h in &heaps {
            assert_eq!(h.record_size(), record_size, "record size mismatch");
        }
        ChainScan {
            heaps,
            record_size,
            current: 0,
            scan: None,
        }
    }
}

impl Operator for ChainScan {
    fn open(&mut self) -> Result<(), ExecError> {
        self.current = 0;
        self.scan = Some(SharedScanner::new(Arc::clone(&self.heaps[0])));
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        loop {
            // Scoped end-of-file probe first, lending re-borrow second:
            // returning a lent record from the same borrow that the loop
            // later mutates does not pass the borrow checker.
            let exhausted = {
                let scan = self
                    .scan
                    .as_ref()
                    .ok_or(ExecError::Protocol("ChainScan::next before open"))?;
                scan.position() >= scan.heap().len()
            };
            if !exhausted {
                let scan = self
                    .scan
                    .as_mut()
                    .ok_or(ExecError::Protocol("ChainScan scanner vanished"))?;
                return Ok(scan.next_record()?);
            }
            self.current += 1;
            if self.current >= self.heaps.len() {
                return Ok(None);
            }
            self.scan = Some(SharedScanner::new(Arc::clone(&self.heaps[self.current])));
        }
    }

    fn close(&mut self) {
        self.scan = None;
        self.current = 0;
    }

    fn record_size(&self) -> usize {
        self.record_size
    }
}

/// Leaf operator scanning a clustered B+-tree in key order — the
/// "clustered (tree) index" input ordering the paper's §4.2 warns makes
/// BNL's run time unpredictable.
pub struct IndexScan {
    tree: Arc<skyline_storage::BTree>,
    scan: Option<skyline_storage::SharedBTreeScan>,
    record_size: usize,
}

impl IndexScan {
    /// Scan `tree` front to back in key order.
    pub fn new(tree: Arc<skyline_storage::BTree>, record_size: usize) -> Self {
        IndexScan {
            tree,
            scan: None,
            record_size,
        }
    }
}

impl Operator for IndexScan {
    fn open(&mut self) -> Result<(), ExecError> {
        self.scan = Some(skyline_storage::SharedBTreeScan::new(Arc::clone(
            &self.tree,
        ))?);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        let scan = self
            .scan
            .as_mut()
            .ok_or(ExecError::Protocol("IndexScan::next before open"))?;
        Ok(scan.next_record()?)
    }

    fn close(&mut self) {
        self.scan = None;
    }

    fn record_size(&self) -> usize {
        self.record_size
    }
}

/// Leaf operator over in-memory records (tests, small tables pushed down
/// from the query layer).
pub struct MemSource {
    records: Vec<Vec<u8>>,
    record_size: usize,
    pos: usize,
    opened: bool,
}

impl MemSource {
    /// Build from owned records; all must share one size.
    ///
    /// # Panics
    /// Panics if records disagree on size or `record_size` is zero.
    pub fn new(records: Vec<Vec<u8>>, record_size: usize) -> Self {
        assert!(record_size > 0, "record size must be positive");
        for r in &records {
            assert_eq!(r.len(), record_size, "record size mismatch");
        }
        MemSource {
            records,
            record_size,
            pos: 0,
            opened: false,
        }
    }
}

impl Operator for MemSource {
    fn open(&mut self) -> Result<(), ExecError> {
        self.pos = 0;
        self.opened = true;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        if !self.opened {
            return Err(ExecError::Protocol("MemSource::next before open"));
        }
        if self.pos >= self.records.len() {
            return Ok(None);
        }
        let r = &self.records[self.pos];
        self.pos += 1;
        Ok(Some(r))
    }

    fn close(&mut self) {
        self.opened = false;
    }

    fn record_size(&self) -> usize {
        self.record_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_storage::MemDisk;

    #[test]
    fn mem_source_streams_in_order() {
        let recs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 4]).collect();
        let mut src = MemSource::new(recs.clone(), 4);
        assert_eq!(collect(&mut src).unwrap(), recs);
    }

    #[test]
    fn next_before_open_is_protocol_error() {
        let mut src = MemSource::new(vec![], 4);
        assert!(matches!(src.next(), Err(ExecError::Protocol(_))));
    }

    #[test]
    fn heap_scan_round_trip() {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(disk, 8).unwrap();
        let recs: Vec<Vec<u8>> = (0..600u64).map(|i| i.to_le_bytes().to_vec()).collect();
        h.append_all(recs.iter().map(Vec::as_slice)).unwrap();
        let mut scan = HeapScan::new(Arc::new(h));
        assert_eq!(collect(&mut scan).unwrap(), recs);
        // reopen works
        assert_eq!(collect(&mut scan).unwrap().len(), 600);
    }

    #[test]
    #[should_panic(expected = "record size mismatch")]
    fn mem_source_checks_sizes() {
        MemSource::new(vec![vec![0; 3], vec![0; 4]], 3);
    }

    fn heap_of(n: u64) -> Arc<HeapFile> {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(disk, 8).unwrap();
        let recs: Vec<Vec<u8>> = (0..n).map(|i| i.to_le_bytes().to_vec()).collect();
        h.append_all(recs.iter().map(Vec::as_slice)).unwrap();
        Arc::new(h)
    }

    fn ids(out: &[Vec<u8>]) -> Vec<u64> {
        out.iter()
            .map(|r| u64::from_le_bytes(r.as_slice().try_into().expect("8-byte record")))
            .collect()
    }

    #[test]
    fn heap_range_scan_covers_exact_range() {
        let heap = heap_of(600);
        // mid-range, page-unaligned boundaries
        let mut scan = HeapRangeScan::new(Arc::clone(&heap), 123, 457);
        assert_eq!(
            ids(&collect(&mut scan).unwrap()),
            (123..457).collect::<Vec<_>>()
        );
        // clamped past the end
        let mut scan = HeapRangeScan::new(Arc::clone(&heap), 590, 10_000);
        assert_eq!(
            ids(&collect(&mut scan).unwrap()),
            (590..600).collect::<Vec<_>>()
        );
        // empty range
        let mut scan = HeapRangeScan::new(Arc::clone(&heap), 400, 400);
        assert!(collect(&mut scan).unwrap().is_empty());
        // ranges tile the file exactly
        let mut all = Vec::new();
        for (lo, hi) in [(0, 200), (200, 401), (401, 600)] {
            let mut scan = HeapRangeScan::new(Arc::clone(&heap), lo, hi);
            all.extend(ids(&collect(&mut scan).unwrap()));
        }
        assert_eq!(all, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn strided_scan_partitions_into_strata() {
        let heap = heap_of(601); // deliberately not a multiple of the stride
        for stride in [1u64, 2, 3, 4, 7] {
            let mut all: Vec<u64> = Vec::new();
            for offset in 0..stride {
                let mut scan = StridedHeapScan::new(Arc::clone(&heap), offset, stride);
                let got = ids(&collect(&mut scan).unwrap());
                assert!(got.iter().all(|i| i % stride == offset), "stride {stride}");
                // reopen rescans from the top
                assert_eq!(ids(&collect(&mut scan).unwrap()), got);
                all.extend(got);
            }
            all.sort_unstable();
            assert_eq!(all, (0..601).collect::<Vec<_>>(), "strata must tile");
        }
        // stride 1 is a plain full scan
        let mut scan = StridedHeapScan::new(Arc::clone(&heap), 0, 1);
        assert_eq!(collect(&mut scan).unwrap().len(), 601);
        // empty file
        let mut scan = StridedHeapScan::new(heap_of(0), 1, 3);
        assert!(collect(&mut scan).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "offset must be below the stride")]
    fn strided_scan_rejects_offset_at_stride() {
        let _ = StridedHeapScan::new(heap_of(3), 2, 2);
    }

    #[test]
    fn chain_scan_concatenates_in_order() {
        let a = heap_of(600);
        let b = heap_of(0); // empty file in the middle
        let c = heap_of(5);
        let mut scan = ChainScan::new(vec![a, b, c]);
        let out = ids(&collect(&mut scan).unwrap());
        let expect: Vec<u64> = (0..600).chain(0..5).collect();
        assert_eq!(out, expect);
        // reopen rescans from the top
        assert_eq!(ids(&collect(&mut scan).unwrap()), expect);
    }

    #[test]
    fn range_and_chain_protocol_errors() {
        let heap = heap_of(3);
        let mut scan = HeapRangeScan::new(Arc::clone(&heap), 0, 3);
        assert!(matches!(scan.next(), Err(ExecError::Protocol(_))));
        let mut strided = StridedHeapScan::new(Arc::clone(&heap), 0, 2);
        assert!(matches!(strided.next(), Err(ExecError::Protocol(_))));
        let mut chain = ChainScan::new(vec![heap]);
        assert!(matches!(chain.next(), Err(ExecError::Protocol(_))));
    }

    #[test]
    fn index_scan_streams_in_key_order() -> Result<(), Box<dyn std::error::Error>> {
        use skyline_storage::btree::key_codec::i32_key;
        let disk = MemDisk::shared();
        let mut tree = skyline_storage::BTree::new(disk as Arc<dyn skyline_storage::Disk>, 4, 8)?;
        for v in [9i32, 3, 7, 1, 5] {
            let mut r = [0u8; 8];
            r[..4].copy_from_slice(&v.to_le_bytes());
            tree.insert(&i32_key(v), &r)?;
        }
        let mut scan = IndexScan::new(Arc::new(tree), 8);
        let out = collect(&mut scan)?;
        let got: Vec<i32> = out
            .iter()
            .map(|r| i32::from_le_bytes(r[..4].try_into().expect("4-byte key prefix")))
            .collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
        Ok(())
    }
}
