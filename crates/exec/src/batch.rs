//! Column-major key batches: the vectorized substrate of the pipeline.
//!
//! The row path re-assembles dominance keys into full-width records
//! between every stage. The batch path instead carries a [`KeyBatch`] —
//! one `Vec<f64>` per dominance dimension plus a row-id column — and
//! defers touching the full payload until emission (late
//! materialization).
//!
//! Between blocking stages a batch flattens into fixed-width *narrow
//! entries* (`d` little-endian f64 keys followed by a u64 row id, with
//! optional DIFF and presort-score lanes between them, [`NarrowLayout`])
//! so the existing external sort, spill files, and Volcano seams compose
//! unchanged; [`BatchEncode`] is that bridge. The narrow entry IS the
//! batch row in row-major clothing — decoding one back into columns is a
//! copy, never a re-derivation, so keys computed once at the scan are
//! never re-extracted downstream.

use crate::cancel::CancelToken;
use crate::error::ExecError;
use crate::op::Operator;
use skyline_storage::{HeapFile, SharedScanner};
use std::sync::Arc;

/// Default number of rows per batch. Large enough to amortize per-batch
/// bookkeeping (cancel polls, virtual dispatch), small enough that a
/// 10-dimension batch (88 B/row) stays comfortably inside L2.
pub const BATCH_ROWS: usize = 1024;

/// A column-major batch of dominance keys plus a row-id column.
/// Append-only ([`KeyBatch::push`]) between [`KeyBatch::clear`]s.
#[derive(Debug, Clone)]
pub struct KeyBatch {
    d: usize,
    cols: Vec<Vec<f64>>,
    row_ids: Vec<u64>,
}

impl KeyBatch {
    /// An empty batch of `d` key columns.
    ///
    /// # Panics
    /// Panics when `d == 0`.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "a key batch needs at least one dimension");
        KeyBatch {
            d,
            cols: vec![Vec::new(); d],
            row_ids: Vec::new(),
        }
    }

    /// Number of key columns.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Modeled size of the rows in bytes: `len · 8(d+1)`.
    pub fn bytes(&self) -> u64 {
        (self.len() * 8 * (self.d + 1)) as u64
    }

    /// Drop all rows; keeps `d` and column capacity.
    pub fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.row_ids.clear();
    }

    /// [`KeyBatch::clear`], additionally re-shaping to `d` columns —
    /// lets one allocation serve sources of different widths.
    ///
    /// # Panics
    /// Panics when `d == 0`.
    pub fn reset(&mut self, d: usize) {
        assert!(d > 0, "a key batch needs at least one dimension");
        self.clear();
        if d != self.d {
            self.cols.resize(d, Vec::new());
            self.cols.truncate(d);
            self.d = d;
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics when `key.len() != d`.
    pub fn push(&mut self, key: &[f64], row_id: u64) {
        assert_eq!(key.len(), self.d, "key width mismatch");
        for (c, v) in self.cols.iter_mut().zip(key) {
            c.push(*v);
        }
        self.row_ids.push(row_id);
    }

    /// Key value of row `i` in dimension `j`.
    pub fn value(&self, j: usize, i: usize) -> f64 {
        self.cols[j][i]
    }

    /// Row id of row `i`.
    pub fn row_id_at(&self, i: usize) -> u64 {
        self.row_ids[i]
    }

    /// Copy row `i`'s key into `out` (cleared first).
    pub fn key_at(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        for c in &self.cols {
            out.push(c[i]);
        }
    }

    /// Dimension `j` of every row, in row order.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.cols[j]
    }
}

/// Extracts a row's dominance key (already oriented so smaller-is-better
/// or whatever convention the caller fixed) from a full-width record.
/// The core crate implements this from its schema + preference spec; the
/// exec crate stays schema-agnostic.
pub trait KeyExtract: Send + Sync {
    /// Number of key dimensions produced.
    fn dims(&self) -> usize;

    /// Append exactly [`KeyExtract::dims`] values to `out` (caller
    /// clears).
    fn extract(&self, record: &[u8], out: &mut Vec<f64>);
}

/// A producer of [`KeyBatch`]es — the batch path's analogue of
/// [`Operator`]. `open` once, then `next_batch` until it returns
/// `Ok(false)`, then `close`.
pub trait BatchSource {
    /// Prepare the stream.
    ///
    /// # Errors
    /// Whatever the underlying storage raises.
    fn open(&mut self) -> Result<(), ExecError>;

    /// Fill `out` (re-shaped by the callee) with the next batch. Returns
    /// `Ok(true)` when at least one row was produced, `Ok(false)` at end
    /// of stream.
    ///
    /// # Errors
    /// Storage errors, or [`ExecError::Cancelled`] at a batch boundary.
    fn next_batch(&mut self, out: &mut KeyBatch) -> Result<bool, ExecError>;

    /// Release resources. Idempotent.
    fn close(&mut self);

    /// Number of key dimensions per row.
    fn dims(&self) -> usize;
}

/// Batched heap scan: reads full-width records page by page, extracts
/// dominance keys once, and emits them as [`KeyBatch`]es with the record
/// position as row id. The full payload is *not* carried — downstream
/// stages work on keys and row ids until materialization.
///
/// Cancellation polls fire at batch boundaries (not per row): one atomic
/// load per [`BATCH_ROWS`] rows.
pub struct BatchHeapScan {
    heap: Arc<HeapFile>,
    extract: Arc<dyn KeyExtract>,
    batch_rows: usize,
    cancel: Option<CancelToken>,
    scan: Option<SharedScanner>,
    fetched: u64,
    key: Vec<f64>,
}

impl BatchHeapScan {
    /// Scan `heap`, extracting keys with `extract`, `batch_rows` rows at
    /// a time.
    ///
    /// # Panics
    /// Panics when `batch_rows == 0`.
    pub fn new(heap: Arc<HeapFile>, extract: Arc<dyn KeyExtract>, batch_rows: usize) -> Self {
        assert!(batch_rows > 0, "batch_rows must be positive");
        BatchHeapScan {
            heap,
            extract,
            batch_rows,
            cancel: None,
            scan: None,
            fetched: 0,
            key: Vec::new(),
        }
    }

    /// Attach a cancellation token, polled once per batch boundary.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

impl BatchSource for BatchHeapScan {
    fn open(&mut self) -> Result<(), ExecError> {
        self.scan = Some(SharedScanner::new(Arc::clone(&self.heap)));
        self.fetched = 0;
        Ok(())
    }

    fn next_batch(&mut self, out: &mut KeyBatch) -> Result<bool, ExecError> {
        let scan = self
            .scan
            .as_mut()
            .ok_or(ExecError::Protocol("BatchHeapScan::next_batch before open"))?;
        if let Some(c) = &self.cancel {
            c.check(self.fetched)?;
        }
        out.reset(self.extract.dims());
        while out.len() < self.batch_rows {
            let row_id = scan.position();
            match scan.next_record()? {
                Some(rec) => {
                    self.key.clear();
                    self.extract.extract(rec, &mut self.key);
                    out.push(&self.key, row_id);
                }
                None => break,
            }
        }
        self.fetched += out.len() as u64;
        Ok(!out.is_empty())
    }

    fn close(&mut self) {
        self.scan = None;
    }

    fn dims(&self) -> usize {
        self.extract.dims()
    }
}

/// Fixed-width serialization of one batch row: `d` little-endian f64
/// key lanes, then `g` DIFF group lanes (none unless
/// [`NarrowLayout::with_diff`]), then the presort score lane (absent
/// unless [`NarrowLayout::with_score`]), then a little-endian u64 row
/// id — `8(d+g+1)` bytes, `8(d+g+2)` with the score. This is what flows
/// through the external sort and spill files on the batch path instead
/// of full records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NarrowLayout {
    d: usize,
    diff: usize,
    score: bool,
}

impl NarrowLayout {
    /// Layout for `d` key dimensions and no DIFF lanes.
    ///
    /// # Panics
    /// Panics when `d == 0`.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "a narrow entry needs at least one dimension");
        NarrowLayout {
            d,
            diff: 0,
            score: false,
        }
    }

    /// Carry `g` DIFF group lanes between the key lanes and the row id
    /// (the paper's §4.3 "Diff": entries compare only within a group).
    #[must_use]
    pub fn with_diff(mut self, g: usize) -> Self {
        self.diff = g;
        self
    }

    /// Carry one f64 lane, between the DIFF lanes and the row id, for the
    /// presort score of the entry's key: computed once where the entry is
    /// made, and read back by the sort instead of scored again.
    #[must_use]
    pub fn with_score(mut self) -> Self {
        self.score = true;
        self
    }

    /// Number of key dimensions.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Number of DIFF group lanes.
    pub fn diff_dims(&self) -> usize {
        self.diff
    }

    /// Entry size in bytes: `8(d+g+1)`, or `8(d+g+2)` with the score lane.
    pub fn entry_size(&self) -> usize {
        8 * (self.lanes() + 1)
    }

    /// f64 lanes ahead of the row id: key, group lanes, score lane.
    fn lanes(&self) -> usize {
        self.d + self.diff + usize::from(self.score)
    }

    /// Serialize `lanes` (the key, then any group lanes, then the score
    /// when the layout has its lane) + `row_id` into `out` (cleared
    /// first).
    ///
    /// # Panics
    /// Panics when `lanes.len()` is not `dims() + diff_dims()`, plus one
    /// with the score lane.
    pub fn encode_into(&self, lanes: &[f64], row_id: u64, out: &mut Vec<u8>) {
        assert_eq!(lanes.len(), self.lanes(), "key width mismatch");
        out.clear();
        for v in lanes {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&row_id.to_le_bytes());
    }

    /// Key value in dimension `j` of a serialized entry.
    pub fn key_dim(&self, entry: &[u8], j: usize) -> f64 {
        debug_assert_eq!(entry.len(), self.entry_size(), "entry size mismatch");
        let mut lane = [0u8; 8];
        lane.copy_from_slice(&entry[8 * j..8 * (j + 1)]);
        f64::from_le_bytes(lane)
    }

    /// Copy an entry's key into `out` (cleared first).
    pub fn key_into(&self, entry: &[u8], out: &mut Vec<f64>) {
        out.clear();
        for j in 0..self.d {
            out.push(self.key_dim(entry, j));
        }
    }

    /// The raw bytes of an entry's DIFF group lanes (empty without
    /// DIFF): equal bytes ⇔ same group.
    pub fn group_of<'a>(&self, entry: &'a [u8]) -> &'a [u8] {
        debug_assert_eq!(entry.len(), self.entry_size(), "entry size mismatch");
        &entry[8 * self.d..8 * (self.d + self.diff)]
    }

    /// The presort score a serialized entry carries; `None` when the
    /// layout has no score lane.
    pub fn score_of(&self, entry: &[u8]) -> Option<f64> {
        debug_assert_eq!(entry.len(), self.entry_size(), "entry size mismatch");
        self.score.then(|| {
            let at = 8 * (self.d + self.diff);
            let mut lane = [0u8; 8];
            lane.copy_from_slice(&entry[at..at + 8]);
            f64::from_le_bytes(lane)
        })
    }

    /// Row id of a serialized entry.
    pub fn row_id(&self, entry: &[u8]) -> u64 {
        debug_assert_eq!(entry.len(), self.entry_size(), "entry size mismatch");
        let at = 8 * self.lanes();
        let mut lane = [0u8; 8];
        lane.copy_from_slice(&entry[at..at + 8]);
        u64::from_le_bytes(lane)
    }
}

/// Adapter lending a [`BatchSource`]'s rows as narrow entries through the
/// [`Operator`] seam — how a batch stream enters the external sort (and
/// any other row-protocol consumer) without re-deriving keys. Counts the
/// batches it drained for the caller's metrics ([`BatchEncode::batches`];
/// the exec crate carries no counters of its own).
pub struct BatchEncode {
    source: Box<dyn BatchSource>,
    narrow: NarrowLayout,
    batch: KeyBatch,
    pos: usize,
    key: Vec<f64>,
    buf: Vec<u8>,
    batches: u64,
    done: bool,
}

impl BatchEncode {
    /// Wrap `source`.
    pub fn new(source: Box<dyn BatchSource>) -> Self {
        let narrow = NarrowLayout::new(source.dims());
        let batch = KeyBatch::new(source.dims());
        BatchEncode {
            source,
            narrow,
            batch,
            pos: 0,
            key: Vec::new(),
            buf: Vec::new(),
            batches: 0,
            done: false,
        }
    }

    /// The narrow layout of the emitted entries.
    pub fn narrow(&self) -> NarrowLayout {
        self.narrow
    }

    /// Batches drained from the source so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }
}

impl Operator for BatchEncode {
    fn open(&mut self) -> Result<(), ExecError> {
        self.source.open()?;
        self.batch.reset(self.narrow.dims());
        self.pos = 0;
        self.batches = 0;
        self.done = false;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        if self.done {
            return Ok(None);
        }
        while self.pos >= self.batch.len() {
            if !self.source.next_batch(&mut self.batch)? {
                self.done = true;
                return Ok(None);
            }
            self.batches += 1;
            self.pos = 0;
        }
        self.batch.key_at(self.pos, &mut self.key);
        let row_id = self.batch.row_id_at(self.pos);
        self.narrow.encode_into(&self.key, row_id, &mut self.buf);
        self.pos += 1;
        Ok(Some(&self.buf))
    }

    fn close(&mut self) {
        self.source.close();
    }

    fn record_size(&self) -> usize {
        self.narrow.entry_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect;
    use skyline_storage::MemDisk;

    fn sample_batch() -> KeyBatch {
        let mut b = KeyBatch::new(2);
        for i in 0..6u64 {
            b.push(&[i as f64, (10 - i) as f64], 100 + i);
        }
        b
    }

    #[test]
    fn push_and_read_back() {
        let b = sample_batch();
        assert_eq!(b.len(), 6);
        assert!(!b.is_empty());
        assert_eq!(b.value(0, 3), 3.0);
        assert_eq!(b.value(1, 3), 7.0);
        assert_eq!(b.row_id_at(3), 103);
        let mut key = Vec::new();
        b.key_at(5, &mut key);
        assert_eq!(key, vec![5.0, 5.0]);
        assert_eq!(b.bytes(), 6 * 24);
    }

    #[test]
    fn reset_reshapes_and_empties() {
        let mut b = sample_batch();
        b.reset(5);
        assert_eq!(b.dims(), 5);
        assert!(b.is_empty());
        b.push(&[0.0; 5], 9);
        assert_eq!(b.len(), 1);
        assert_eq!(b.row_id_at(0), 9);
        assert_eq!(b.col(4), [0.0]);
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn push_checks_the_key_width() {
        sample_batch().push(&[1.0], 0);
    }

    #[test]
    fn narrow_layout_round_trip() {
        let n = NarrowLayout::new(3);
        assert_eq!(n.entry_size(), 32);
        let mut buf = Vec::new();
        n.encode_into(&[1.5, -0.25, f64::MAX], 0xDEAD_BEEF, &mut buf);
        assert_eq!(buf.len(), 32);
        assert_eq!(n.key_dim(&buf, 1), -0.25);
        assert_eq!(n.row_id(&buf), 0xDEAD_BEEF);
        let mut key = Vec::new();
        n.key_into(&buf, &mut key);
        assert_eq!(key, vec![1.5, -0.25, f64::MAX]);
        assert!(n.group_of(&buf).is_empty());
    }

    #[test]
    fn narrow_layout_diff_lanes_sit_between_key_and_row_id() {
        let n = NarrowLayout::new(2).with_diff(1);
        assert_eq!((n.dims(), n.diff_dims(), n.entry_size()), (2, 1, 32));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        n.encode_into(&[1.0, 2.0, 7.0], 11, &mut a);
        n.encode_into(&[3.0, 4.0, 7.0], 12, &mut b);
        assert_eq!(n.group_of(&a), n.group_of(&b));
        assert_eq!(n.group_of(&a), 7.0f64.to_le_bytes().as_slice());
        let mut key = Vec::new();
        n.key_into(&b, &mut key);
        assert_eq!(key, vec![3.0, 4.0]);
        assert_eq!(n.row_id(&b), 12);
    }

    #[test]
    fn narrow_layout_score_lane_sits_between_diff_lanes_and_row_id() {
        for (d, g) in [(1usize, 0usize), (2, 1), (3, 3)] {
            let plain = NarrowLayout::new(d).with_diff(g);
            let n = plain.with_score();
            assert_eq!(n.entry_size(), 8 * (d + g + 2));
            assert_eq!((n.dims(), n.diff_dims()), (d, g));
            let lanes: Vec<f64> = (0..d + g).map(|j| j as f64 + 0.5).collect();
            let (mut with, mut without) = (Vec::new(), Vec::new());
            let mut scored = lanes.clone();
            scored.push(-0.0);
            n.encode_into(&scored, 0xFEED, &mut with);
            plain.encode_into(&lanes, 0xFEED, &mut without);
            assert_eq!(with.len(), n.entry_size());
            // the score's bytes sit right after the group lanes
            let at = 8 * (d + g);
            assert_eq!(with[at..at + 8], (-0.0f64).to_le_bytes());
            assert_eq!(
                n.score_of(&with).map(f64::to_bits),
                Some((-0.0f64).to_bits())
            );
            assert_eq!(plain.score_of(&without), None);
            // everything else reads as it does without the lane
            assert_eq!(n.row_id(&with), plain.row_id(&without));
            assert_eq!(n.group_of(&with), plain.group_of(&without));
            for j in 0..d {
                assert_eq!(n.key_dim(&with, j), plain.key_dim(&without, j));
            }
            assert_eq!(with[..at], without[..at]);
            assert_eq!(with[at + 8..], without[at..]);
        }
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn narrow_layout_with_score_asserts_the_wider_width() {
        let n = NarrowLayout::new(2).with_diff(1).with_score();
        n.encode_into(&[1.0, 2.0, 7.0], 0, &mut Vec::new());
    }

    /// Records are two LE f64s; the key is both, second negated — enough
    /// to see extraction happen exactly once.
    struct PairKeys;

    impl KeyExtract for PairKeys {
        fn dims(&self) -> usize {
            2
        }

        fn extract(&self, record: &[u8], out: &mut Vec<f64>) {
            let a = f64::from_le_bytes(record[..8].try_into().expect("lane 0"));
            let b = f64::from_le_bytes(record[8..16].try_into().expect("lane 1"));
            out.push(a);
            out.push(-b);
        }
    }

    fn pair_heap(n: u64) -> Arc<HeapFile> {
        let disk = MemDisk::shared();
        let mut h = HeapFile::create(disk, 16).unwrap();
        let recs: Vec<[u8; 16]> = (0..n)
            .map(|i| {
                let mut rec = [0u8; 16];
                rec[..8].copy_from_slice(&(i as f64).to_le_bytes());
                rec[8..].copy_from_slice(&(i as f64 + 0.5).to_le_bytes());
                rec
            })
            .collect();
        h.append_all(recs.iter().map(|r| r.as_slice())).unwrap();
        Arc::new(h)
    }

    #[test]
    fn batch_heap_scan_covers_file_with_row_ids() {
        let heap = pair_heap(10);
        let mut scan = BatchHeapScan::new(heap, Arc::new(PairKeys), 4);
        scan.open().unwrap();
        let mut batch = KeyBatch::new(2);
        let mut rows = Vec::new();
        while scan.next_batch(&mut batch).unwrap() {
            for i in 0..batch.len() {
                rows.push((batch.row_id_at(i), batch.value(0, i), batch.value(1, i)));
            }
        }
        scan.close();
        assert_eq!(rows.len(), 10);
        for (i, (rid, a, b)) in rows.iter().enumerate() {
            assert_eq!(*rid, i as u64, "row id is the scan position");
            assert_eq!(*a, i as f64);
            assert_eq!(*b, -(i as f64 + 0.5));
        }
    }

    #[test]
    fn batch_scan_polls_cancel_at_batch_boundary() {
        let token = CancelToken::new();
        token.cancel();
        let mut scan = BatchHeapScan::new(pair_heap(10), Arc::new(PairKeys), 4).with_cancel(token);
        scan.open().unwrap();
        let mut batch = KeyBatch::new(2);
        assert!(matches!(
            scan.next_batch(&mut batch),
            Err(ExecError::Cancelled {
                records_processed: 0
            })
        ));
    }

    #[test]
    fn batch_encode_lends_narrow_entries() {
        let heap = pair_heap(10);
        let mut enc = BatchEncode::new(Box::new(BatchHeapScan::new(heap, Arc::new(PairKeys), 4)));
        assert_eq!(enc.record_size(), 24);
        let out = collect(&mut enc).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(enc.batches(), 3, "10 rows at 4/batch");
        let n = enc.narrow();
        for (i, e) in out.iter().enumerate() {
            assert_eq!(n.row_id(e), i as u64);
            assert_eq!(n.key_dim(e, 0), i as f64);
            assert_eq!(n.key_dim(e, 1), -(i as f64 + 0.5));
        }
    }

    #[test]
    fn next_before_open_is_protocol_error() {
        let mut scan = BatchHeapScan::new(pair_heap(1), Arc::new(PairKeys), 4);
        let mut batch = KeyBatch::new(2);
        assert!(matches!(
            scan.next_batch(&mut batch),
            Err(ExecError::Protocol(_))
        ));
    }
}
