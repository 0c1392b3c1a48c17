//! A page-based B+-tree (index-organized table).
//!
//! Why a skyline workspace carries a B+-tree: the paper's §4.2 warns that
//! BNL's run time depends on input order, and "if a table has a clustered
//! (tree) index, which is quite likely, its tuples are ordered in the
//! heapfile … It is impossible to ensure that the skyline operation
//! receives its input in a 'random' ordering." This structure produces
//! exactly that clustered order — with honest page-level I/O accounting —
//! so the experiments can feed skyline operators realistic
//! index-ordered inputs.
//!
//! Design: fixed-length order-preserving byte keys (see [`key_codec`]),
//! fixed-length records; leaves chained for range scans; standard
//! recursive insert with splits; bottom-up bulk load from sorted input.
//! Every node visit is one counted page read; every node write one page
//! write, and every one of them can fail with a typed
//! [`StorageError`]. Tree metadata (root, height, count) lives in the
//! handle, like [`crate::HeapFile`]'s.

use crate::disk::{Disk, FileId};
use crate::error::StorageError;
use crate::PAGE_SIZE;
use std::sync::Arc;

/// Order-preserving key encodings (memcmp order == value order).
pub mod key_codec {
    /// Encode an `i32` so unsigned byte-wise comparison matches numeric
    /// order (flip the sign bit, big-endian).
    pub fn i32_key(v: i32) -> [u8; 4] {
        ((v as u32) ^ 0x8000_0000).to_be_bytes()
    }

    /// Decode [`i32_key`].
    ///
    /// # Panics
    /// Panics if `k` is shorter than 4 bytes.
    pub fn i32_from_key(k: &[u8]) -> i32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&k[..4]);
        (u32::from_be_bytes(b) ^ 0x8000_0000) as i32
    }

    /// Composite key from several `i32`s (lexicographic, order-preserving).
    pub fn composite_i32_key(vals: &[i32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 * vals.len());
        for &v in vals {
            out.extend_from_slice(&i32_key(v));
        }
        out
    }
}

const HDR: usize = 16;
const T_LEAF: u8 = 1;
const T_INTERNAL: u8 = 0;
/// Sentinel for "no page".
const NIL: u64 = u64::MAX;

/// Read a little-endian u64 from the first 8 bytes of `b`.
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// A B+-tree over `(key, record)` pairs with fixed sizes. Duplicate keys
/// are allowed. The handle owns the tree's pages: dropping it frees them
/// (see [`crate::HeapFile`]).
pub struct BTree {
    disk: Arc<dyn Disk>,
    file: FileId,
    key_len: usize,
    record_size: usize,
    root: u64,
    next_page: u64,
    height: u32,
    n_records: u64,
}

struct Node {
    page_no: u64,
    buf: Vec<u8>,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.buf[0] == T_LEAF
    }

    fn count(&self) -> usize {
        u16::from_le_bytes([self.buf[1], self.buf[2]]) as usize
    }

    fn set_count(&mut self, c: usize) {
        let b = (c as u16).to_le_bytes();
        self.buf[1] = b[0];
        self.buf[2] = b[1];
    }

    /// Leaf: next-leaf pointer. Internal: leftmost child.
    fn link(&self) -> u64 {
        le_u64(&self.buf[8..16])
    }

    fn set_link(&mut self, v: u64) {
        self.buf[8..16].copy_from_slice(&v.to_le_bytes());
    }
}

impl BTree {
    // Capacities leave one entry of slack below the physical page limit:
    // inserts go in first and split after, so a node transiently holds
    // cap + 1 entries, which must still fit the page buffer.
    fn leaf_cap(&self) -> usize {
        (PAGE_SIZE - HDR) / (self.key_len + self.record_size) - 1
    }

    fn internal_cap(&self) -> usize {
        (PAGE_SIZE - HDR) / (self.key_len + 8) - 1
    }

    fn leaf_entry(&self) -> usize {
        self.key_len + self.record_size
    }

    fn internal_entry(&self) -> usize {
        self.key_len + 8
    }

    /// Create an empty tree.
    ///
    /// # Errors
    /// [`StorageError`] when creating the file or writing the root fails.
    ///
    /// # Panics
    /// Panics unless at least 2 leaf entries and 2 internal entries fit a
    /// page, and sizes are positive.
    pub fn new(
        disk: Arc<dyn Disk>,
        key_len: usize,
        record_size: usize,
    ) -> Result<Self, StorageError> {
        assert!(key_len > 0 && record_size > 0);
        let file = disk.create()?;
        let mut t = BTree {
            disk,
            file,
            key_len,
            record_size,
            root: 0,
            next_page: 0,
            height: 1,
            n_records: 0,
        };
        assert!(t.leaf_cap() >= 2, "records too large for a page");
        assert!(t.internal_cap() >= 2, "keys too large for a page");
        let root = t.alloc_node(T_LEAF);
        t.root = root.page_no;
        t.write_node(&root)?;
        Ok(t)
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.n_records
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pages allocated.
    pub fn num_pages(&self) -> u64 {
        self.next_page
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    fn alloc_node(&mut self, ty: u8) -> Node {
        let page_no = self.next_page;
        self.next_page += 1;
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = ty;
        let mut n = Node { page_no, buf };
        n.set_link(NIL);
        n
    }

    fn read_node(&self, page_no: u64) -> Result<Node, StorageError> {
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        self.disk.read_page(self.file, page_no, &mut buf)?;
        Ok(Node { page_no, buf })
    }

    fn write_node(&self, node: &Node) -> Result<(), StorageError> {
        self.disk.write_page(self.file, node.page_no, &node.buf)
    }

    fn leaf_key<'a>(&self, n: &'a Node, i: usize) -> &'a [u8] {
        let off = HDR + i * self.leaf_entry();
        &n.buf[off..off + self.key_len]
    }

    fn leaf_record<'a>(&self, n: &'a Node, i: usize) -> &'a [u8] {
        let off = HDR + i * self.leaf_entry() + self.key_len;
        &n.buf[off..off + self.record_size]
    }

    fn internal_key<'a>(&self, n: &'a Node, i: usize) -> &'a [u8] {
        let off = HDR + i * self.internal_entry();
        &n.buf[off..off + self.key_len]
    }

    fn internal_child(&self, n: &Node, i: usize) -> u64 {
        let off = HDR + i * self.internal_entry() + self.key_len;
        le_u64(&n.buf[off..off + 8])
    }

    /// Index of the child to follow for `key`: entries store separator
    /// keys; child `i` holds keys ≥ key_i (leftmost holds keys < key_0).
    fn route(&self, n: &Node, key: &[u8]) -> u64 {
        let c = n.count();
        let mut child = n.link(); // leftmost
        for i in 0..c {
            if self.internal_key(n, i) <= key {
                child = self.internal_child(n, i);
            } else {
                break;
            }
        }
        child
    }

    fn insert_into_leaf(&self, n: &mut Node, pos: usize, key: &[u8], record: &[u8]) {
        let e = self.leaf_entry();
        let c = n.count();
        let start = HDR + pos * e;
        let end = HDR + c * e;
        n.buf.copy_within(start..end, start + e);
        n.buf[start..start + self.key_len].copy_from_slice(key);
        n.buf[start + self.key_len..start + e].copy_from_slice(record);
        n.set_count(c + 1);
    }

    fn insert_into_internal(&self, n: &mut Node, pos: usize, key: &[u8], child: u64) {
        let e = self.internal_entry();
        let c = n.count();
        let start = HDR + pos * e;
        let end = HDR + c * e;
        n.buf.copy_within(start..end, start + e);
        n.buf[start..start + self.key_len].copy_from_slice(key);
        n.buf[start + self.key_len..start + e].copy_from_slice(&child.to_le_bytes());
        n.set_count(c + 1);
    }

    /// Insert one `(key, record)` pair.
    ///
    /// # Errors
    /// [`StorageError`] when a node read or write fails; the tree may have
    /// written some split pages already — treat the handle as poisoned.
    ///
    /// # Panics
    /// Panics on size mismatches.
    pub fn insert(&mut self, key: &[u8], record: &[u8]) -> Result<(), StorageError> {
        assert_eq!(key.len(), self.key_len, "key size mismatch");
        assert_eq!(record.len(), self.record_size, "record size mismatch");
        if let Some((sep, right)) = self.insert_rec(self.root, key, record)? {
            // root split
            let old_root = self.root;
            let mut new_root = self.alloc_node(T_INTERNAL);
            new_root.set_link(old_root);
            self.insert_into_internal(&mut new_root, 0, &sep, right);
            self.root = new_root.page_no;
            self.write_node(&new_root)?;
            self.height += 1;
        }
        self.n_records += 1;
        Ok(())
    }

    /// Recursive insert; returns `(separator, new right page)` on split.
    fn insert_rec(
        &mut self,
        page: u64,
        key: &[u8],
        record: &[u8],
    ) -> Result<Option<(Vec<u8>, u64)>, StorageError> {
        let mut node = self.read_node(page)?;
        if node.is_leaf() {
            let c = node.count();
            // position after existing equal keys (stable for duplicates)
            let mut pos = 0;
            while pos < c && self.leaf_key(&node, pos) <= key {
                pos += 1;
            }
            self.insert_into_leaf(&mut node, pos, key, record);
            if node.count() <= self.leaf_cap() {
                self.write_node(&node)?;
                return Ok(None);
            }
            // split
            let total = node.count();
            let keep = total / 2;
            let mut right = self.alloc_node(T_LEAF);
            let e = self.leaf_entry();
            let src = HDR + keep * e..HDR + total * e;
            right.buf[HDR..HDR + (total - keep) * e].copy_from_slice(&node.buf[src]);
            right.set_count(total - keep);
            right.set_link(node.link());
            node.set_count(keep);
            node.set_link(right.page_no);
            let sep = self.leaf_key(&right, 0).to_vec();
            self.write_node(&node)?;
            self.write_node(&right)?;
            Ok(Some((sep, right.page_no)))
        } else {
            let child = self.route(&node, key);
            let Some((sep, right_page)) = self.insert_rec(child, key, record)? else {
                return Ok(None);
            };
            // re-read: child recursion may have been deep but this node
            // unchanged; still re-read for simplicity and correctness
            let mut node = self.read_node(page)?;
            let c = node.count();
            let mut pos = 0;
            while pos < c && self.internal_key(&node, pos) <= sep.as_slice() {
                pos += 1;
            }
            self.insert_into_internal(&mut node, pos, &sep, right_page);
            if node.count() <= self.internal_cap() {
                self.write_node(&node)?;
                return Ok(None);
            }
            // split internal: promote the middle separator
            let total = node.count();
            let mid = total / 2;
            let e = self.internal_entry();
            let promoted = self.internal_key(&node, mid).to_vec();
            let promoted_child = self.internal_child(&node, mid);
            let mut right = self.alloc_node(T_INTERNAL);
            right.set_link(promoted_child);
            let entries_right = total - mid - 1;
            let src = HDR + (mid + 1) * e..HDR + total * e;
            right.buf[HDR..HDR + entries_right * e].copy_from_slice(&node.buf[src]);
            right.set_count(entries_right);
            node.set_count(mid);
            self.write_node(&node)?;
            self.write_node(&right)?;
            Ok(Some((promoted, right.page_no)))
        }
    }

    /// First record with exactly `key`, if any.
    ///
    /// # Errors
    /// [`StorageError`] when a node read fails.
    ///
    /// # Panics
    /// Panics if `key.len()` differs from the tree's key length.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StorageError> {
        assert_eq!(key.len(), self.key_len);
        let mut scan = self.range_from(key)?;
        match scan.next_entry()? {
            Some((k, r)) if k == key => Ok(Some(r.to_vec())),
            _ => Ok(None),
        }
    }

    /// Range scan starting at the first entry with key ≥ `from`.
    ///
    /// # Errors
    /// [`StorageError`] when the descent reads fail.
    ///
    /// # Panics
    /// Panics if `from.len()` differs from the tree's key length.
    pub fn range_from(&self, from: &[u8]) -> Result<BTreeScan<'_>, StorageError> {
        assert_eq!(from.len(), self.key_len);
        let mut page = self.root;
        for _ in 1..self.height {
            let node = self.read_node(page)?;
            debug_assert!(!node.is_leaf());
            page = self.route(&node, from);
        }
        let leaf = self.read_node(page)?;
        debug_assert!(leaf.is_leaf());
        let c = leaf.count();
        let mut pos = 0;
        while pos < c && self.leaf_key(&leaf, pos) < from {
            pos += 1;
        }
        Ok(BTreeScan {
            tree: self,
            leaf: Some(leaf),
            pos,
        })
    }

    /// Full scan in key order (the clustered-index order).
    ///
    /// # Errors
    /// [`StorageError`] when the descent reads fail.
    pub fn scan(&self) -> Result<BTreeScan<'_>, StorageError> {
        // descend along leftmost children
        let mut page = self.root;
        for _ in 1..self.height {
            let node = self.read_node(page)?;
            page = node.link();
        }
        let leaf = self.read_node(page)?;
        Ok(BTreeScan {
            tree: self,
            leaf: Some(leaf),
            pos: 0,
        })
    }

    /// Bulk-load from `(key, record)` pairs that are already sorted by
    /// key — builds leaves left to right and index levels bottom-up,
    /// leaving every node ~full.
    ///
    /// # Errors
    /// [`StorageError`] when a node write fails mid-build; the
    /// half-built tree drops on the way out and frees every page written
    /// so far.
    ///
    /// # Panics
    /// Panics on size mismatches or unsorted input (debug assertions).
    pub fn bulk_load<'a, I>(
        disk: Arc<dyn Disk>,
        key_len: usize,
        record_size: usize,
        sorted: I,
    ) -> Result<Self, StorageError>
    where
        I: IntoIterator<Item = (&'a [u8], &'a [u8])>,
    {
        let mut t = BTree::new(disk, key_len, record_size)?;
        // discard the empty root; rebuild from scratch
        t.next_page = 0;
        let leaf_cap = t.leaf_cap();

        // build leaves
        let mut leaves: Vec<(Vec<u8>, u64)> = Vec::new(); // (first key, page)
        let mut cur = t.alloc_node(T_LEAF);
        let mut first_key: Option<Vec<u8>> = None;
        let mut prev_key: Option<Vec<u8>> = None;
        let mut n_records = 0u64;
        for (key, record) in sorted {
            assert_eq!(key.len(), key_len);
            assert_eq!(record.len(), record_size);
            if let Some(p) = &prev_key {
                debug_assert!(p.as_slice() <= key, "bulk_load input must be sorted");
            }
            prev_key = Some(key.to_vec());
            if cur.count() == leaf_cap {
                let next = t.alloc_node(T_LEAF);
                cur.set_link(next.page_no);
                t.write_node(&cur)?;
                // a full leaf always recorded its first key
                leaves.push((first_key.take().unwrap_or_default(), cur.page_no));
                cur = next;
            }
            if cur.count() == 0 {
                first_key = Some(key.to_vec());
            }
            let pos = cur.count();
            t.insert_into_leaf(&mut cur, pos, key, record);
            n_records += 1;
        }
        t.write_node(&cur)?;
        leaves.push((first_key.unwrap_or_default(), cur.page_no));

        // build index levels
        let mut level = leaves;
        let mut height = 1;
        while level.len() > 1 {
            let cap = t.internal_cap();
            let mut next_level: Vec<(Vec<u8>, u64)> = Vec::new();
            // each internal node takes 1 leftmost child + up to cap keyed
            // children
            let mut current: Option<(Node, Vec<u8>)> = None;
            for (first, page) in level {
                let start_new = match &mut current {
                    None => true,
                    Some((node, _)) if node.count() == cap => true,
                    Some((node, _)) => {
                        let pos = node.count();
                        t.insert_into_internal(node, pos, &first, page);
                        false
                    }
                };
                if start_new {
                    if let Some((done, done_first)) = current.take() {
                        t.write_node(&done)?;
                        next_level.push((done_first, done.page_no));
                    }
                    let mut node = t.alloc_node(T_INTERNAL);
                    node.set_link(page);
                    current = Some((node, first));
                }
            }
            if let Some((node, node_first)) = current {
                t.write_node(&node)?;
                next_level.push((node_first, node.page_no));
            }
            level = next_level;
            height += 1;
        }
        t.root = level[0].1;
        t.height = height;
        t.n_records = n_records;
        Ok(t)
    }
}

impl Drop for BTree {
    fn drop(&mut self) {
        self.disk.delete(self.file);
    }
}

/// Leaf-chain scanner over a [`BTree`].
pub struct BTreeScan<'a> {
    tree: &'a BTree,
    leaf: Option<Node>,
    pos: usize,
}

/// A borrowed `(key, record)` pair yielded by a B-tree scan.
pub type Entry<'a> = (&'a [u8], &'a [u8]);

impl BTreeScan<'_> {
    /// Next `(key, record)`, or `None` at the end.
    ///
    /// # Errors
    /// [`StorageError`] when reading the next leaf fails.
    pub fn next_entry(&mut self) -> Result<Option<Entry<'_>>, StorageError> {
        loop {
            let Some(leaf) = &self.leaf else {
                return Ok(None);
            };
            if self.pos < leaf.count() {
                break;
            }
            let next = leaf.link();
            if next == NIL {
                self.leaf = None;
                return Ok(None);
            }
            self.leaf = Some(self.tree.read_node(next)?);
            self.pos = 0;
        }
        let i = self.pos;
        self.pos += 1;
        match &self.leaf {
            Some(leaf) => Ok(Some((
                self.tree.leaf_key(leaf, i),
                self.tree.leaf_record(leaf, i),
            ))),
            // the loop above only exits with a leaf in hand
            None => Ok(None),
        }
    }

    /// Next record only.
    ///
    /// # Errors
    /// [`StorageError`] when reading the next leaf fails.
    pub fn next_record(&mut self) -> Result<Option<&[u8]>, StorageError> {
        Ok(self.next_entry()?.map(|(_, r)| r))
    }
}

/// Owning scanner over an `Arc<BTree>` — full key-order scan suitable for
/// operators (mirrors [`crate::SharedScanner`]).
pub struct SharedBTreeScan {
    tree: Arc<BTree>,
    leaf: Option<(u64, Vec<u8>)>,
    pos: usize,
}

impl SharedBTreeScan {
    /// Start a full scan of `tree` in key order.
    ///
    /// # Errors
    /// [`StorageError`] when the descent to the leftmost leaf fails.
    pub fn new(tree: Arc<BTree>) -> Result<Self, StorageError> {
        let mut page = tree.root;
        for _ in 1..tree.height {
            let node = tree.read_node(page)?;
            page = node.link();
        }
        let leaf = tree.read_node(page)?;
        Ok(SharedBTreeScan {
            tree: Arc::clone(&tree),
            leaf: Some((leaf.page_no, leaf.buf)),
            pos: 0,
        })
    }

    /// Next record, or `None` at end of tree.
    ///
    /// # Errors
    /// [`StorageError`] when reading the next leaf fails.
    pub fn next_record(&mut self) -> Result<Option<&[u8]>, StorageError> {
        loop {
            let Some((_, buf)) = &self.leaf else {
                return Ok(None);
            };
            let count = u16::from_le_bytes([buf[1], buf[2]]) as usize;
            if self.pos < count {
                break;
            }
            let next = le_u64(&buf[8..16]);
            if next == NIL {
                self.leaf = None;
                return Ok(None);
            }
            let leaf = self.tree.read_node(next)?;
            self.leaf = Some((leaf.page_no, leaf.buf));
            self.pos = 0;
        }
        let i = self.pos;
        self.pos += 1;
        match &self.leaf {
            Some((_, buf)) => {
                let off = HDR + i * self.tree.leaf_entry() + self.tree.key_len;
                Ok(Some(&buf[off..off + self.tree.record_size]))
            }
            // the loop above only exits with a leaf in hand
            None => Ok(None),
        }
    }

    /// The scanned tree.
    pub fn tree(&self) -> &Arc<BTree> {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::key_codec::*;
    use super::*;
    use crate::disk::MemDisk;

    fn mk(disk: &Arc<MemDisk>) -> BTree {
        BTree::new(Arc::clone(disk) as Arc<dyn Disk>, 4, 8).unwrap()
    }

    #[test]
    fn failed_root_write_does_not_orphan_the_file() {
        use crate::fault::{FaultDisk, FaultSchedule};
        let inner = MemDisk::shared();
        let disk = FaultDisk::shared(
            Arc::clone(&inner) as Arc<dyn Disk>,
            FaultSchedule::nth_write(0),
        );
        assert!(BTree::new(disk, 4, 8).is_err(), "first write must fault");
        // the unwound tree deleted its file, so the id is gone (not
        // merely empty)
        let mut buf = Vec::new();
        let err = inner.read_page(0, 0, &mut buf).unwrap_err();
        assert!(err.to_string().contains("unknown or deleted file"), "{err}");
        assert_eq!(inner.allocated_pages(), 0);
    }

    fn rec(v: i32) -> [u8; 8] {
        let mut r = [0u8; 8];
        r[..4].copy_from_slice(&v.to_le_bytes());
        r
    }

    fn drain_keys(t: &BTree) -> Vec<i32> {
        let mut out = Vec::new();
        let mut scan = t.scan().unwrap();
        while let Some((k, _)) = scan.next_entry().unwrap() {
            out.push(i32_from_key(k));
        }
        out
    }

    #[test]
    fn key_codec_preserves_order() {
        let vals = [i32::MIN, -1_000_000, -1, 0, 1, 42, i32::MAX];
        for w in vals.windows(2) {
            assert!(i32_key(w[0]) < i32_key(w[1]), "{} vs {}", w[0], w[1]);
            assert_eq!(i32_from_key(&i32_key(w[0])), w[0]);
        }
        assert!(composite_i32_key(&[1, 5]) < composite_i32_key(&[2, 0]));
        assert!(composite_i32_key(&[1, 5]) < composite_i32_key(&[1, 6]));
    }

    #[test]
    fn insert_scan_sorted_with_splits() {
        let disk = MemDisk::shared();
        let mut t = mk(&disk);
        // enough to force several levels: leaf cap = (4096-16)/12 = 340
        let mut vals: Vec<i32> = (0..5_000)
            .map(|i| (i * 2_654_435_761u64 as i64 % 100_000) as i32)
            .collect();
        for &v in &vals {
            t.insert(&i32_key(v), &rec(v)).unwrap();
        }
        assert_eq!(t.len(), 5_000);
        assert!(t.height() >= 2);
        vals.sort_unstable();
        assert_eq!(drain_keys(&t), vals);
    }

    #[test]
    fn duplicates_survive() {
        let disk = MemDisk::shared();
        let mut t = mk(&disk);
        for _ in 0..700 {
            t.insert(&i32_key(7), &rec(7)).unwrap();
        }
        t.insert(&i32_key(3), &rec(3)).unwrap();
        t.insert(&i32_key(9), &rec(9)).unwrap();
        let keys = drain_keys(&t);
        assert_eq!(keys.len(), 702);
        assert_eq!(keys[0], 3);
        assert_eq!(*keys.last().unwrap(), 9);
        assert!(keys[1..701].iter().all(|&k| k == 7));
    }

    #[test]
    fn point_get_and_range() {
        let disk = MemDisk::shared();
        let mut t = mk(&disk);
        for v in (0..1000).step_by(2) {
            t.insert(&i32_key(v), &rec(v * 10)).unwrap();
        }
        assert_eq!(t.get(&i32_key(500)).unwrap(), Some(rec(5000).to_vec()));
        assert_eq!(t.get(&i32_key(501)).unwrap(), None);
        // range from 995 → 996, 998
        let mut scan = t.range_from(&i32_key(995)).unwrap();
        let mut got = Vec::new();
        while let Some((k, _)) = scan.next_entry().unwrap() {
            got.push(i32_from_key(k));
        }
        assert_eq!(got, vec![996, 998]);
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let disk = MemDisk::shared();
        let mut vals: Vec<i32> = (0..10_000).map(|i| (i * 37) % 5_000).collect();
        vals.sort_unstable();
        let pairs: Vec<([u8; 4], [u8; 8])> = vals.iter().map(|&v| (i32_key(v), rec(v))).collect();
        let t = BTree::bulk_load(
            Arc::clone(&disk) as Arc<dyn Disk>,
            4,
            8,
            pairs.iter().map(|(k, r)| (k.as_slice(), r.as_slice())),
        )
        .unwrap();
        assert_eq!(t.len(), 10_000);
        assert_eq!(drain_keys(&t), vals);
        // bulk-loaded trees are compact: ~n/leaf_cap leaves
        let leaf_cap = (PAGE_SIZE - HDR) / 12;
        assert!(t.num_pages() <= (10_000 / leaf_cap + 3) as u64 * 2);
    }

    #[test]
    fn empty_and_single() {
        let disk = MemDisk::shared();
        let mut t = mk(&disk);
        assert!(t.is_empty());
        assert!(t.scan().unwrap().next_entry().unwrap().is_none());
        assert_eq!(t.get(&i32_key(1)).unwrap(), None);
        t.insert(&i32_key(1), &rec(1)).unwrap();
        assert_eq!(drain_keys(&t), vec![1]);
    }

    #[test]
    fn empty_bulk_load() {
        let disk = MemDisk::shared();
        let t =
            BTree::bulk_load(Arc::clone(&disk) as Arc<dyn Disk>, 4, 8, std::iter::empty()).unwrap();
        assert!(t.is_empty());
        assert!(t.scan().unwrap().next_entry().unwrap().is_none());
    }

    #[test]
    fn scan_costs_one_read_per_leaf_page_plus_descent() {
        let disk = MemDisk::shared();
        let mut vals: Vec<i32> = (0..20_000).collect();
        vals.sort_unstable();
        let pairs: Vec<([u8; 4], [u8; 8])> = vals.iter().map(|&v| (i32_key(v), rec(v))).collect();
        let t = BTree::bulk_load(
            Arc::clone(&disk) as Arc<dyn Disk>,
            4,
            8,
            pairs.iter().map(|(k, r)| (k.as_slice(), r.as_slice())),
        )
        .unwrap();
        let before = disk.stats().snapshot();
        assert_eq!(drain_keys(&t).len(), 20_000);
        let delta = disk.stats().snapshot().since(&before);
        let leaf_cap = ((PAGE_SIZE - HDR) / 12) as u64;
        let leaves = 20_000u64.div_ceil(leaf_cap);
        assert!(
            delta.reads <= leaves + t.height() as u64 + 1,
            "reads {} vs leaves {leaves}",
            delta.reads
        );
    }

    #[test]
    fn shared_scan_matches_borrowing_scan() {
        let disk = MemDisk::shared();
        let mut t = mk(&disk);
        for v in [5, 1, 9, 3, 7, 7, 2] {
            t.insert(&i32_key(v), &rec(v)).unwrap();
        }
        let t = Arc::new(t);
        let mut s = SharedBTreeScan::new(Arc::clone(&t)).unwrap();
        let mut got = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            got.push(i32::from_le_bytes(r[..4].try_into().unwrap()));
        }
        assert_eq!(got, vec![1, 2, 3, 5, 7, 7, 9]);
    }

    #[test]
    fn tree_freed_on_drop() {
        let disk = MemDisk::shared();
        {
            let mut t = mk(&disk);
            for v in 0..100 {
                t.insert(&i32_key(v), &rec(v)).unwrap();
            }
            assert!(disk.allocated_pages() > 0);
        }
        assert_eq!(disk.allocated_pages(), 0);
    }

    /// Grows a tree past its first split, then fails on a read past EOF
    /// (a permanent error on every device): the handle drops on the `?`.
    fn build_then_fail(disk: Arc<dyn Disk>) -> Result<BTree, StorageError> {
        let mut t = BTree::new(disk, 4, 8)?;
        for v in 0..1000 {
            t.insert(&i32_key(v), &rec(v))?;
        }
        t.read_node(t.next_page + 99)?;
        Ok(t)
    }

    #[test]
    fn handle_dropped_on_an_early_return_frees_its_pages_on_every_disk() {
        // on the `FaultDisk` an insert's write faults with earlier nodes
        // already on disk
        crate::fault::assert_failed_build_frees_every_page("btree-raii", 5, build_then_fail);
    }

    #[test]
    fn bulk_load_failure_frees_every_page() {
        use crate::fault::{FaultDisk, FaultSchedule};
        // 2000 entries at 339 per leaf: write 0 is `new`'s root, 1..=6 the
        // leaves, 7 the index node above them
        let pairs: Vec<([u8; 4], [u8; 8])> = (0..2000).map(|v| (i32_key(v), rec(v))).collect();
        let load = |disk: Arc<dyn Disk>| {
            BTree::bulk_load(
                disk,
                4,
                8,
                pairs.iter().map(|(k, r)| (k.as_slice(), r.as_slice())),
            )
        };
        for n in [1, 2, 6, 7] {
            let inner = MemDisk::shared();
            let disk = FaultDisk::shared(
                Arc::clone(&inner) as Arc<dyn Disk>,
                FaultSchedule::nth_write(n),
            );
            assert!(load(Arc::clone(&disk) as Arc<dyn Disk>).is_err(), "n={n}");
            assert_eq!(disk.injected_faults(), 1, "n={n}");
            assert_eq!(inner.allocated_pages(), 0, "n={n}: pages orphaned");
        }
        // one write further and the load completes: 7 was the last
        let disk = FaultDisk::shared(MemDisk::shared(), FaultSchedule::nth_write(8));
        assert_eq!(load(disk).unwrap().num_pages(), 7);
    }

    fn random_vals(rng: &mut skyline_testkit::Rng) -> Vec<i32> {
        let n = rng.usize_below(800);
        (0..n).map(|_| rng.i32_inclusive(-500, 499)).collect()
    }

    #[test]
    fn random_inserts_scan_sorted() {
        skyline_testkit::cases(32, 0xB7EE_0001, |rng| {
            let vals = random_vals(rng);
            let disk = MemDisk::shared();
            let mut t = mk(&disk);
            for &v in &vals {
                t.insert(&i32_key(v), &rec(v)).unwrap();
            }
            let mut expect = vals.clone();
            expect.sort_unstable();
            assert_eq!(drain_keys(&t), expect);
            assert_eq!(t.len(), vals.len() as u64);
        });
    }

    #[test]
    fn bulk_load_equals_insert_order() {
        skyline_testkit::cases(32, 0xB7EE_0002, |rng| {
            let mut sorted = random_vals(rng);
            sorted.sort_unstable();
            let disk = MemDisk::shared();
            let pairs: Vec<([u8; 4], [u8; 8])> =
                sorted.iter().map(|&v| (i32_key(v), rec(v))).collect();
            let t = BTree::bulk_load(
                Arc::clone(&disk) as Arc<dyn Disk>,
                4,
                8,
                pairs.iter().map(|(k, r)| (k.as_slice(), r.as_slice())),
            )
            .unwrap();
            assert_eq!(drain_keys(&t), sorted);
        });
    }
}
