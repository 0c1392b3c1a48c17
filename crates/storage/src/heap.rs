//! Dense fixed-width-record heap files.
//!
//! Records never span pages (the paper's layout: 40 × 100-byte tuples per
//! 4096-byte page, with 96 bytes of per-page slack). The writer buffers one
//! page; the scanner reads one page at a time, so a full scan of `n`
//! records costs exactly `⌈n / records_per_page⌉` page reads. Every page
//! transfer is fallible: scanner and writer methods surface the disk's
//! typed [`StorageError`] instead of panicking.

use crate::disk::{Disk, FileId};
use crate::error::StorageError;
use crate::PAGE_SIZE;
use std::sync::Arc;

/// A fixed-width-record file on a [`Disk`].
///
/// The handle owns the file's pages: dropping it frees them, on every
/// path — success, `?`, unwind. There is no way to reopen a file by id,
/// so a file outliving its handle could only ever be a leak; keep the
/// handle (or an `Arc` of it) for as long as the records are needed.
pub struct HeapFile {
    disk: Arc<dyn Disk>,
    file: FileId,
    record_size: usize,
    n_records: u64,
}

impl HeapFile {
    /// Create an empty heap file for `record_size`-byte records.
    ///
    /// # Errors
    /// [`StorageError`] when the disk cannot create a file.
    ///
    /// # Panics
    /// Panics if `record_size` is zero or exceeds a page.
    pub fn create(disk: Arc<dyn Disk>, record_size: usize) -> Result<Self, StorageError> {
        assert!(
            record_size > 0 && record_size <= PAGE_SIZE,
            "bad record size"
        );
        let file = disk.create()?;
        Ok(HeapFile {
            disk,
            file,
            record_size,
            n_records: 0,
        })
    }

    /// Does nothing: every heap file frees its pages on drop. Kept only
    /// for `benchmark/src/replay.rs`, which still calls it and changes in
    /// benchmark PRs alone; nothing in this workspace does, and it goes
    /// with that caller.
    pub fn mark_temp(&mut self) {}

    /// Records per page for this file's record size.
    pub fn records_per_page(&self) -> usize {
        PAGE_SIZE / self.record_size
    }

    /// Number of records in the file.
    pub fn len(&self) -> u64 {
        self.n_records
    }

    /// True when the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Number of pages the records occupy. Computed from the record
    /// count — no disk stat needed.
    pub fn num_pages(&self) -> u64 {
        self.n_records.div_ceil(self.records_per_page() as u64)
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    /// Bulk-load records (each exactly `record_size` bytes).
    ///
    /// # Errors
    /// [`StorageError`] when a page transfer fails; already-pushed pages
    /// remain in the file.
    pub fn append_all<'a, I>(&mut self, records: I) -> Result<(), StorageError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut w = self.writer()?;
        for r in records {
            w.push(r)?;
        }
        w.finish()
    }

    /// Page-buffered writer appending at the end of the file.
    ///
    /// # Errors
    /// [`StorageError`] when re-reading a partially filled tail page fails.
    pub fn writer(&mut self) -> Result<HeapWriter<'_>, StorageError> {
        let rpp = self.records_per_page();
        let start_page = self.n_records / rpp as u64;
        let in_page = (self.n_records % rpp as u64) as usize;
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        if in_page > 0 {
            // resume a partially filled tail page
            self.disk.read_page(self.file, start_page, &mut buf)?;
            buf.truncate(in_page * self.record_size);
        }
        Ok(HeapWriter {
            heap: self,
            page_no: start_page,
            buf,
            in_page,
            dirty: false,
        })
    }

    /// Streaming scanner from the first record.
    pub fn scan(&self) -> HeapScanner<'_> {
        HeapScanner {
            heap: self,
            next_record: 0,
            page_no: u64::MAX,
            page: Vec::new(),
        }
    }

    /// Truncate to zero records, freeing the old pages (the handle stays
    /// valid). Used when a multi-pass algorithm recycles its temp file.
    ///
    /// # Errors
    /// [`StorageError`] when the replacement file cannot be created; the
    /// old pages are already freed by then.
    pub fn truncate(&mut self) -> Result<(), StorageError> {
        self.disk.delete(self.file);
        self.file = self.disk.create()?;
        self.n_records = 0;
        Ok(())
    }

    /// Read all records into memory (tests and small inputs only).
    ///
    /// # Errors
    /// [`StorageError`] when a page read fails.
    pub fn read_all(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut out = Vec::with_capacity(self.n_records as usize);
        let mut scan = self.scan();
        while let Some(r) = scan.next_record()? {
            out.push(r.to_vec());
        }
        Ok(out)
    }
}

impl Drop for HeapFile {
    fn drop(&mut self) {
        self.disk.delete(self.file);
    }
}

/// Owning scanner over an `Arc<HeapFile>` — same traversal as
/// [`HeapScanner`] but suitable for operators that outlive local borrows.
pub struct SharedScanner {
    heap: Arc<HeapFile>,
    next_record: u64,
    page_no: u64,
    page: Vec<u8>,
}

impl SharedScanner {
    /// Start a scan of `heap` from the first record.
    pub fn new(heap: Arc<HeapFile>) -> Self {
        SharedScanner {
            heap,
            next_record: 0,
            page_no: u64::MAX,
            page: Vec::new(),
        }
    }

    /// Borrow the next record, or `None` at end of file.
    ///
    /// # Errors
    /// [`StorageError`] when the page read fails.
    pub fn next_record(&mut self) -> Result<Option<&[u8]>, StorageError> {
        if self.next_record >= self.heap.n_records {
            return Ok(None);
        }
        let rpp = self.heap.records_per_page() as u64;
        let page_no = self.next_record / rpp;
        let slot = (self.next_record % rpp) as usize;
        if page_no != self.page_no {
            self.heap
                .disk
                .read_page(self.heap.file, page_no, &mut self.page)?;
            self.page_no = page_no;
        }
        self.next_record += 1;
        let off = slot * self.heap.record_size;
        Ok(Some(&self.page[off..off + self.heap.record_size]))
    }

    /// Restart the scan from the beginning.
    pub fn rewind(&mut self) {
        self.next_record = 0;
        self.page_no = u64::MAX;
    }

    /// Position the scan so the next record returned is `record`
    /// (0-based). Seeking at or past the end makes the scan report
    /// end-of-file. Range scans over a partition of the heap start here.
    /// The buffered page stays valid (the file is immutable behind its
    /// `Arc`), so seeking within it costs no read.
    pub fn seek(&mut self, record: u64) {
        self.next_record = record.min(self.heap.n_records);
    }

    /// The record index [`SharedScanner::next_record`] will return next.
    pub fn position(&self) -> u64 {
        self.next_record
    }

    /// The scanned heap file.
    pub fn heap(&self) -> &Arc<HeapFile> {
        &self.heap
    }
}

/// Page-buffered appender returned by [`HeapFile::writer`].
///
/// Call [`HeapWriter::finish`] to flush the tail page and observe any
/// write error; dropping the writer flushes best-effort (errors ignored).
pub struct HeapWriter<'a> {
    heap: &'a mut HeapFile,
    page_no: u64,
    buf: Vec<u8>,
    in_page: usize,
    dirty: bool,
}

impl HeapWriter<'_> {
    /// Append one record.
    ///
    /// # Errors
    /// [`StorageError`] when flushing a filled page fails.
    ///
    /// # Panics
    /// Panics if `record.len()` differs from the file's record size.
    pub fn push(&mut self, record: &[u8]) -> Result<(), StorageError> {
        assert_eq!(record.len(), self.heap.record_size, "record size mismatch");
        self.buf.extend_from_slice(record);
        self.in_page += 1;
        self.dirty = true;
        self.heap.n_records += 1;
        if self.in_page == self.heap.records_per_page() {
            self.flush_page()?;
        }
        Ok(())
    }

    fn flush_page(&mut self) -> Result<(), StorageError> {
        if self.dirty {
            self.heap
                .disk
                .write_page(self.heap.file, self.page_no, &self.buf)?;
        }
        if self.in_page == self.heap.records_per_page() {
            self.page_no += 1;
            self.in_page = 0;
            self.buf.clear();
        }
        self.dirty = false;
        Ok(())
    }

    /// Flush the tail page and end the append.
    ///
    /// # Errors
    /// [`StorageError`] when the final page write fails; the writer is
    /// consumed either way and will not re-attempt the flush on drop.
    pub fn finish(mut self) -> Result<(), StorageError> {
        let result = self.flush_page();
        self.dirty = false; // Drop must not re-flush, even after an error
        result
    }
}

impl Drop for HeapWriter<'_> {
    fn drop(&mut self) {
        // Best-effort: a failed flush here has no caller to report to, and
        // the surrounding error unwind is already deleting temp files.
        #[allow(clippy::let_underscore_must_use, reason = "Drop cannot report")]
        let _ = self.flush_page();
    }
}

/// Streaming record reader returned by [`HeapFile::scan`].
pub struct HeapScanner<'a> {
    heap: &'a HeapFile,
    next_record: u64,
    page_no: u64,
    page: Vec<u8>,
}

impl HeapScanner<'_> {
    /// Borrow the next record, or `None` at end of file. The slice is valid
    /// until the next call (lending-iterator style — no per-record
    /// allocation).
    ///
    /// # Errors
    /// [`StorageError`] when the page read fails.
    pub fn next_record(&mut self) -> Result<Option<&[u8]>, StorageError> {
        if self.next_record >= self.heap.n_records {
            return Ok(None);
        }
        let rpp = self.heap.records_per_page() as u64;
        let page_no = self.next_record / rpp;
        let slot = (self.next_record % rpp) as usize;
        if page_no != self.page_no {
            self.heap
                .disk
                .read_page(self.heap.file, page_no, &mut self.page)?;
            self.page_no = page_no;
        }
        self.next_record += 1;
        let off = slot * self.heap.record_size;
        Ok(Some(&self.page[off..off + self.heap.record_size]))
    }

    /// Records remaining.
    pub fn remaining(&self) -> u64 {
        self.heap.n_records - self.next_record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn mk_records(n: usize, size: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut r = vec![0u8; size];
                let tag = (i as u64).to_le_bytes();
                let k = tag.len().min(size);
                r[..k].copy_from_slice(&tag[..k]);
                r
            })
            .collect()
    }

    #[test]
    fn write_then_scan_round_trip() {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(disk, 100).unwrap();
        let recs = mk_records(95, 100); // 40/page → 3 pages (40+40+15)
        h.append_all(recs.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(h.len(), 95);
        assert_eq!(h.num_pages(), 3);
        assert_eq!(h.read_all().unwrap(), recs);
    }

    #[test]
    fn seeking_within_the_buffered_page_costs_no_read() {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(Arc::clone(&disk) as Arc<dyn Disk>, 100).unwrap();
        let recs = mk_records(100, 100); // 40/page
        h.append_all(recs.iter().map(Vec::as_slice)).unwrap();
        let before = disk.stats().snapshot();
        let mut scan = SharedScanner::new(Arc::new(h));
        for at in [3u64, 30, 7, 45, 41, 5] {
            scan.seek(at);
            assert_eq!(scan.next_record().unwrap().unwrap(), recs[at as usize]);
        }
        // pages touched: 0, 0, 0, 1, 1, 0 — three loads, not six
        assert_eq!(disk.stats().snapshot().since(&before).reads, 3);
    }

    #[test]
    fn scan_costs_exactly_ceil_pages_reads() {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(Arc::clone(&disk) as Arc<dyn Disk>, 100).unwrap();
        let recs = mk_records(1000, 100); // 25 pages
        h.append_all(recs.iter().map(Vec::as_slice)).unwrap();
        let before = disk.stats().snapshot();
        let mut scan = h.scan();
        let mut n = 0;
        while scan.next_record().unwrap().is_some() {
            n += 1;
        }
        let delta = disk.stats().snapshot().since(&before);
        assert_eq!(n, 1000);
        assert_eq!(delta.reads, 25);
        assert_eq!(delta.writes, 0);
    }

    #[test]
    fn resumed_writer_continues_tail_page() {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(disk, 100).unwrap();
        let recs = mk_records(50, 100);
        h.append_all(recs[..45].iter().map(Vec::as_slice)).unwrap();
        h.append_all(recs[45..].iter().map(Vec::as_slice)).unwrap();
        assert_eq!(h.read_all().unwrap(), recs);
        assert_eq!(h.num_pages(), 2); // 50 records at 40/page
    }

    #[test]
    fn empty_file_scans_empty() {
        let disk = MemDisk::shared();
        let h = HeapFile::create(disk, 64).unwrap();
        assert!(h.is_empty());
        assert!(h.scan().next_record().unwrap().is_none());
    }

    #[test]
    fn record_size_equal_to_page_is_allowed() {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(disk, PAGE_SIZE).unwrap();
        let recs = mk_records(3, PAGE_SIZE);
        h.append_all(recs.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(h.records_per_page(), 1);
        assert_eq!(h.read_all().unwrap(), recs);
    }

    #[test]
    #[should_panic(expected = "record size mismatch")]
    fn wrong_record_size_rejected() {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(disk, 10).unwrap();
        let mut w = h.writer().unwrap();
        let _ = w.push(&[0u8; 9]);
    }

    #[test]
    fn file_deleted_on_drop() {
        let disk = MemDisk::shared();
        {
            let mut h = HeapFile::create(Arc::clone(&disk) as Arc<dyn Disk>, 100).unwrap();
            h.append_all(mk_records(80, 100).iter().map(Vec::as_slice))
                .unwrap();
            assert!(disk.allocated_pages() > 0);
        }
        assert_eq!(disk.allocated_pages(), 0);
    }

    /// Writes two pages, then fails on a read past EOF (a permanent error
    /// on every device): the handle drops on the `?`.
    fn build_then_fail(disk: Arc<dyn Disk>) -> Result<HeapFile, StorageError> {
        let mut h = HeapFile::create(disk, 100)?;
        h.append_all(mk_records(80, 100).iter().map(Vec::as_slice))?;
        h.disk.read_page(h.file, 99, &mut Vec::new())?;
        Ok(h)
    }

    #[test]
    fn handle_dropped_on_an_early_return_frees_its_pages_on_every_disk() {
        // on the `FaultDisk` the second page write faults, with the
        // first already on disk
        crate::fault::assert_failed_build_frees_every_page("heap-raii", 1, build_then_fail);
    }

    #[test]
    fn truncate_frees_pages_and_resets() {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(Arc::clone(&disk) as Arc<dyn Disk>, 100).unwrap();
        h.append_all(mk_records(80, 100).iter().map(Vec::as_slice))
            .unwrap();
        h.truncate().unwrap();
        assert_eq!(disk.allocated_pages(), 0);
        assert!(h.is_empty());
        h.append_all(mk_records(5, 100).iter().map(Vec::as_slice))
            .unwrap();
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn shared_scanner_matches_borrowing_scanner() {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(disk, 100).unwrap();
        let recs = mk_records(123, 100);
        h.append_all(recs.iter().map(Vec::as_slice)).unwrap();
        let h = Arc::new(h);
        let mut s = SharedScanner::new(Arc::clone(&h));
        let mut got = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            got.push(r.to_vec());
        }
        assert_eq!(got, recs);
        s.rewind();
        assert_eq!(s.next_record().unwrap().unwrap(), recs[0].as_slice());
    }

    #[test]
    fn round_trip_any_shape() {
        skyline_testkit::cases(64, 0x4EA9_0001, |rng| {
            let n = rng.usize_below(300);
            let record_size = 1 + rng.usize_below(199);
            let split = rng.usize_below(300).min(n);
            let disk = MemDisk::shared();
            let mut h = HeapFile::create(disk, record_size).unwrap();
            let recs = mk_records(n, record_size);
            h.append_all(recs[..split].iter().map(Vec::as_slice))
                .unwrap();
            h.append_all(recs[split..].iter().map(Vec::as_slice))
                .unwrap();
            assert_eq!(h.read_all().unwrap(), recs);
            let rpp = PAGE_SIZE / record_size;
            assert_eq!(h.num_pages(), n.div_ceil(rpp) as u64);
        });
    }
}
