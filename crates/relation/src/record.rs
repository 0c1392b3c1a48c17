//! Fixed-width record codec — the representation that moves through pages.
//!
//! The paper's experimental tuple is ten 4-byte integers followed by a
//! 60-byte string: 100 bytes, so 40 tuples fit a 4096-byte page
//! ([`RecordLayout::PAPER`]). We generalize to `dims` little-endian `i32`
//! attributes followed by `payload` opaque bytes.

/// Page size used throughout the workspace (the paper's 4096 bytes).
pub const PAGE_SIZE: usize = 4096;

/// Fixed-width record layout: `dims` i32 attributes + `payload` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLayout {
    /// Number of leading i32 attributes (potential skyline criteria).
    pub dims: usize,
    /// Trailing opaque payload bytes (the paper's 60-byte string).
    pub payload: usize,
}

impl RecordLayout {
    /// The paper's layout: 10 × i32 + 60 bytes = 100-byte records,
    /// 40 records per page.
    pub const PAPER: RecordLayout = RecordLayout {
        dims: 10,
        payload: 60,
    };

    /// Construct a layout.
    pub const fn new(dims: usize, payload: usize) -> Self {
        RecordLayout { dims, payload }
    }

    /// Total record size in bytes.
    pub const fn record_size(&self) -> usize {
        4 * self.dims + self.payload
    }

    /// How many whole records fit in one page.
    pub const fn records_per_page(&self) -> usize {
        PAGE_SIZE / self.record_size()
    }

    /// Layout of a window entry after the paper's *projection* optimization:
    /// only the `k` skyline-criterion attributes are retained (no payload).
    pub const fn projected(k: usize) -> RecordLayout {
        RecordLayout {
            dims: k,
            payload: 0,
        }
    }

    /// Encode attributes + payload into a fresh record buffer.
    ///
    /// `attrs.len()` must equal `dims` and `payload.len()` must equal
    /// `self.payload`.
    ///
    /// # Panics
    /// When either length is off.
    pub fn encode(&self, attrs: &[i32], payload: &[u8]) -> Vec<u8> {
        assert_eq!(attrs.len(), self.dims, "attribute arity mismatch");
        assert_eq!(payload.len(), self.payload, "payload size mismatch");
        let mut buf = Vec::with_capacity(self.record_size());
        for &a in attrs {
            buf.extend_from_slice(&a.to_le_bytes());
        }
        buf.extend_from_slice(payload);
        buf
    }

    /// Decode all attributes of a record.
    pub fn decode_attrs(&self, record: &[u8]) -> Vec<i32> {
        debug_assert_eq!(record.len(), self.record_size());
        (0..self.dims).map(|i| self.attr(record, i)).collect()
    }

    /// Decode a single attribute without touching the rest of the record.
    ///
    /// # Panics
    /// When `record` is too short to hold attribute `i`.
    #[inline]
    pub fn attr(&self, record: &[u8], i: usize) -> i32 {
        debug_assert!(i < self.dims);
        let off = 4 * i;
        i32::from_le_bytes(record[off..off + 4].try_into().unwrap())
    }

    /// Overwrite a single attribute in place.
    #[inline]
    pub fn set_attr(&self, record: &mut [u8], i: usize, v: i32) {
        debug_assert!(i < self.dims);
        let off = 4 * i;
        record[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The payload slice of a record.
    pub fn payload_of<'a>(&self, record: &'a [u8]) -> &'a [u8] {
        &record[4 * self.dims..]
    }

    /// Extract the first `k` attributes as `f64`s into `out` (cleared
    /// first). This is the skyline key-extraction hot path; `out` is reused
    /// by callers to avoid per-record allocation.
    #[inline]
    pub fn key_into(&self, record: &[u8], k: usize, out: &mut Vec<f64>) {
        debug_assert!(k <= self.dims);
        out.clear();
        for i in 0..k {
            out.push(f64::from(self.attr(record, i)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_dimensions() {
        assert_eq!(RecordLayout::PAPER.record_size(), 100);
        assert_eq!(RecordLayout::PAPER.records_per_page(), 40);
    }

    #[test]
    fn projected_layout_fits_more_per_page() {
        // Paper: with 10 i32 attrs and no string, 100 records fit per page.
        let p = RecordLayout::projected(10);
        assert_eq!(p.record_size(), 40);
        assert_eq!(p.records_per_page(), 102);
        // The paper quotes 100/page because it keeps all ten ints; the exact
        // figure depends on slot bookkeeping — our pages are dense arrays.
    }

    #[test]
    fn encode_decode_round_trip() {
        let l = RecordLayout::new(3, 5);
        let rec = l.encode(&[i32::MIN, 0, i32::MAX], b"hello");
        assert_eq!(rec.len(), 17);
        assert_eq!(l.decode_attrs(&rec), vec![i32::MIN, 0, i32::MAX]);
        assert_eq!(l.payload_of(&rec), b"hello");
        assert_eq!(l.attr(&rec, 0), i32::MIN);
        assert_eq!(l.attr(&rec, 2), i32::MAX);
    }

    #[test]
    fn set_attr_in_place() {
        let l = RecordLayout::new(2, 0);
        let mut rec = l.encode(&[1, 2], b"");
        l.set_attr(&mut rec, 1, 42);
        assert_eq!(l.decode_attrs(&rec), vec![1, 42]);
    }

    #[test]
    fn key_into_reuses_buffer() {
        let l = RecordLayout::new(4, 0);
        let rec = l.encode(&[10, -20, 30, 40], b"");
        let mut key = Vec::new();
        l.key_into(&rec, 3, &mut key);
        assert_eq!(key, vec![10.0, -20.0, 30.0]);
        l.key_into(&rec, 2, &mut key);
        assert_eq!(key, vec![10.0, -20.0]);
    }

    #[test]
    #[should_panic(expected = "attribute arity mismatch")]
    fn encode_checks_arity() {
        RecordLayout::new(2, 0).encode(&[1], b"");
    }
}
