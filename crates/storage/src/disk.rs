//! Page devices: the in-memory simulator and a real-file implementation.
//!
//! This is the only module allowed to touch `std::fs` — every page that
//! moves through here is counted in [`IoStats`], and every failure —
//! including reading past EOF — surfaces as a typed [`StorageError`]
//! instead of a panic, so multipass operators can always unwind their
//! temp files.
//!
//! [`FileDisk`] does *positioned* I/O (`pread`/`pwrite`): the file-handle
//! map lock is only held long enough to clone out an `Arc<File>`, never
//! across a syscall, so page I/O on different files proceeds in parallel
//! (and the `lock-across-io` lint of `cargo xtask analyze` stays clean).

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the io_stats-counted layer is where file I/O belongs"
)]

use crate::error::{ErrorKind, IoOp, StorageError};
use crate::io_stats::IoStats;
use crate::sync::lock;
use crate::PAGE_SIZE;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identifier of a file on a [`Disk`].
pub type FileId = u64;

/// A page-granular storage device. All I/O is in whole [`PAGE_SIZE`] pages
/// and every transfer is counted in the disk's shared [`IoStats`].
pub trait Disk: Send + Sync {
    /// Create a new empty file and return its id.
    ///
    /// # Errors
    /// [`StorageError`] when the device cannot create the file.
    fn create(&self) -> Result<FileId, StorageError>;

    /// Delete a file, releasing its pages. Deleting an unknown id is a
    /// no-op (files may be deleted once by owner and once by a manager);
    /// deletion is best-effort and infallible so `Drop` cleanup paths can
    /// always run.
    fn delete(&self, file: FileId);

    /// Write one page. `data` may be shorter than a page; it is
    /// zero-padded. Writing page `n` of a file with fewer than `n` pages
    /// extends it (intervening pages become zero pages, each counted as a
    /// write).
    ///
    /// # Errors
    /// [`StorageError`] when the device rejects the write or the file does
    /// not exist.
    fn write_page(&self, file: FileId, page_no: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Read one page into `buf` (resized to [`PAGE_SIZE`]).
    ///
    /// # Errors
    /// [`StorageError`] when the device fails the read, the file does
    /// not exist, or `page_no` is past EOF (a `Permanent` error on every
    /// device — retrying a structurally out-of-range read cannot help).
    fn read_page(&self, file: FileId, page_no: u64, buf: &mut Vec<u8>) -> Result<(), StorageError>;

    /// Number of pages currently in the file.
    ///
    /// # Errors
    /// [`StorageError`] when the file cannot be stat-ed.
    fn num_pages(&self, file: FileId) -> Result<u64, StorageError>;

    /// The disk-wide I/O counters.
    fn stats(&self) -> &IoStats;

    /// Total pages currently allocated across all live files — the leak
    /// check: after every temp file is dropped this must return to its
    /// pre-run value. Best-effort (stat failures count as zero pages).
    fn allocated_pages(&self) -> u64;
}

/// Deterministic in-memory disk. The default device for experiments: page
/// traffic is still counted, but wall-clock is dominated by the algorithms'
/// CPU work — mirroring the paper's observation that skyline computation is
/// CPU-bound.
#[derive(Default)]
pub struct MemDisk {
    files: Mutex<HashMap<FileId, Vec<Box<[u8]>>>>,
    next_id: AtomicU64,
    stats: IoStats,
}

impl MemDisk {
    /// Fresh empty disk.
    pub fn new() -> Self {
        MemDisk::default()
    }

    /// Convenience: a shareable handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(MemDisk::new())
    }
}

fn padded(data: &[u8]) -> Box<[u8]> {
    assert!(
        data.len() <= PAGE_SIZE,
        "page overflow: {} bytes",
        data.len()
    );
    let mut page = vec![0u8; PAGE_SIZE].into_boxed_slice();
    page[..data.len()].copy_from_slice(data);
    page
}

fn page_index(op: IoOp, file: FileId, page_no: u64) -> Result<usize, StorageError> {
    usize::try_from(page_no).map_err(|_| {
        StorageError::new(op, file, ErrorKind::Permanent, "page number overflow").at_page(page_no)
    })
}

impl Disk for MemDisk {
    fn create(&self) -> Result<FileId, StorageError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        lock(&self.files).insert(id, Vec::new());
        Ok(id)
    }

    fn delete(&self, file: FileId) {
        lock(&self.files).remove(&file);
    }

    fn write_page(&self, file: FileId, page_no: u64, data: &[u8]) -> Result<(), StorageError> {
        let mut files = lock(&self.files);
        let pages = files
            .get_mut(&file)
            .ok_or_else(|| StorageError::unknown_file(IoOp::Write, file).at_page(page_no))?;
        let idx = page_index(IoOp::Write, file, page_no)?;
        while pages.len() < idx {
            pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
            self.stats.record_write();
        }
        if idx == pages.len() {
            pages.push(padded(data));
        } else {
            pages[idx] = padded(data);
        }
        self.stats.record_write();
        Ok(())
    }

    fn read_page(&self, file: FileId, page_no: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        let files = lock(&self.files);
        let pages = files
            .get(&file)
            .ok_or_else(|| StorageError::unknown_file(IoOp::Read, file).at_page(page_no))?;
        let idx = page_index(IoOp::Read, file, page_no)?;
        let page = pages.get(idx).ok_or_else(|| {
            StorageError::new(
                IoOp::Read,
                file,
                ErrorKind::Permanent,
                format!("read past EOF: page {page_no} of {} pages", pages.len()),
            )
            .at_page(page_no)
        })?;
        buf.clear();
        buf.extend_from_slice(page);
        self.stats.record_read();
        Ok(())
    }

    fn num_pages(&self, file: FileId) -> Result<u64, StorageError> {
        Ok(lock(&self.files).get(&file).map_or(0, |p| p.len() as u64))
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn allocated_pages(&self) -> u64 {
        lock(&self.files).values().map(|f| f.len() as u64).sum()
    }
}

/// How many zero pages one syscall covers while gap-extending a file.
const GAP_CHUNK_PAGES: usize = 16;

/// A disk backed by real files in a directory (one file per [`FileId`]).
/// Useful for runs whose temp data exceeds memory; accounting is identical
/// to [`MemDisk`]. The directory is owned exclusively: construction sweeps
/// stale `skyline-*.pages` files left behind by a crashed prior process.
///
/// Handles are `Arc<File>` and all transfers are positioned
/// (`pread`/`pwrite`), so the map lock is released before any syscall and
/// concurrent page I/O never serializes on it. Writers to the *same* file
/// are expected to be exclusive (heap writers take `&mut`); concurrent
/// gap-extensions of one file would double-count gap pages in [`IoStats`].
pub struct FileDisk {
    dir: PathBuf,
    files: Mutex<HashMap<FileId, Arc<File>>>,
    next_id: AtomicU64,
    stats: IoStats,
    /// One zeroed gap-write buffer, shared by every gap-extending write.
    zeros: Box<[u8]>,
}

/// Positioned write of the whole buffer at `offset` — no shared cursor,
/// no lock. The non-unix fallback seeks on a borrowed handle and is not
/// cursor-safe under concurrency; unix (the supported platform) is.
fn write_all_at(f: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    return std::os::unix::fs::FileExt::write_all_at(f, buf, offset);
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = f;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)
    }
}

/// Positioned read filling the whole buffer from `offset`.
fn read_exact_at(f: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    return std::os::unix::fs::FileExt::read_exact_at(f, buf, offset);
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = f;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// Write a text artifact to `path` verbatim, creating any missing
/// parent directories first.
///
/// This is the typed doorway for non-page file output — bench CSVs,
/// JSON baselines, rendered reports. Every other crate is barred from
/// `std::fs` by the `raw-io` lint, so artifact writes funnel through
/// the one module that already owns file I/O.
///
/// # Errors
/// Propagates directory-creation and write failures.
pub fn write_text(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// Read a text artifact written by [`write_text`] (or by hand) — the
/// matching doorway for the `raw-io` lint.
///
/// # Errors
/// Propagates open and read failures, including invalid UTF-8.
pub fn read_text(path: &Path) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}

impl FileDisk {
    /// Create a disk rooted at `dir` (created if missing). Files are named
    /// `skyline-<id>.pages` and removed on [`Disk::delete`]; any such file
    /// already present — an orphan from a crashed prior process — is
    /// removed first.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Self::sweep_stale(&dir);
        Ok(FileDisk {
            dir,
            files: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            stats: IoStats::new(),
            zeros: vec![0u8; GAP_CHUNK_PAGES * PAGE_SIZE].into_boxed_slice(),
        })
    }

    /// Best-effort removal of `skyline-*.pages` orphans in `dir`.
    fn sweep_stale(dir: &PathBuf) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("skyline-") && name.ends_with(".pages") {
                #[allow(clippy::let_underscore_must_use, reason = "best-effort sweep")]
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    fn path(&self, id: FileId) -> PathBuf {
        self.dir.join(format!("skyline-{id}.pages"))
    }

    fn io_err(op: IoOp, file: FileId, e: &std::io::Error) -> StorageError {
        use std::io::ErrorKind as Io;
        let kind = match e.kind() {
            Io::Interrupted | Io::TimedOut | Io::WouldBlock => ErrorKind::Transient,
            _ => ErrorKind::Permanent,
        };
        StorageError::new(op, file, kind, e.to_string())
    }

    /// Clone the handle for `file` out of the map — the lock is held for
    /// this lookup only, never across I/O.
    fn handle(&self, op: IoOp, file: FileId) -> Result<Arc<File>, StorageError> {
        lock(&self.files)
            .get(&file)
            .cloned()
            .ok_or_else(|| StorageError::unknown_file(op, file))
    }
}

impl Disk for FileDisk {
    fn create(&self) -> Result<FileId, StorageError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let f = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(self.path(id))
            .map_err(|e| Self::io_err(IoOp::Create, id, &e))?;
        lock(&self.files).insert(id, Arc::new(f));
        Ok(id)
    }

    fn delete(&self, file: FileId) {
        if lock(&self.files).remove(&file).is_some() {
            #[allow(clippy::let_underscore_must_use, reason = "delete is infallible")]
            let _ = std::fs::remove_file(self.path(file));
        }
    }

    fn write_page(&self, file: FileId, page_no: u64, data: &[u8]) -> Result<(), StorageError> {
        let page = padded(data);
        let f = self
            .handle(IoOp::Write, file)
            .map_err(|e| e.at_page(page_no))?;
        let err = |e: &std::io::Error| Self::io_err(IoOp::Write, file, e).at_page(page_no);
        let len = f
            .metadata()
            .map_err(|e| Self::io_err(IoOp::Stat, file, &e))?
            .len();
        let existing = len / PAGE_SIZE as u64;
        if existing < page_no {
            // Gap-extend with zero pages: contiguous positioned chunk
            // writes from the shared zero buffer (still one counted write
            // per gap page — accounting is page-granular, syscalls are not).
            let mut at = existing * PAGE_SIZE as u64;
            let mut remaining = page_no - existing;
            while remaining > 0 {
                let chunk = remaining.min(GAP_CHUNK_PAGES as u64);
                write_all_at(&f, &self.zeros[..chunk as usize * PAGE_SIZE], at)
                    .map_err(|e| err(&e))?;
                for _ in 0..chunk {
                    self.stats.record_write();
                }
                at += chunk * PAGE_SIZE as u64;
                remaining -= chunk;
            }
        }
        write_all_at(&f, &page, page_no * PAGE_SIZE as u64).map_err(|e| err(&e))?;
        self.stats.record_write();
        Ok(())
    }

    fn read_page(&self, file: FileId, page_no: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        let f = self
            .handle(IoOp::Read, file)
            .map_err(|e| e.at_page(page_no))?;
        let err = |e: &std::io::Error| Self::io_err(IoOp::Read, file, e).at_page(page_no);
        buf.clear();
        buf.resize(PAGE_SIZE, 0);
        read_exact_at(&f, buf, page_no * PAGE_SIZE as u64).map_err(|e| err(&e))?;
        self.stats.record_read();
        Ok(())
    }

    fn num_pages(&self, file: FileId) -> Result<u64, StorageError> {
        let f = self.handle(IoOp::Stat, file)?;
        let len = f
            .metadata()
            .map_err(|e| Self::io_err(IoOp::Stat, file, &e))?
            .len();
        Ok(len / PAGE_SIZE as u64)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn allocated_pages(&self) -> u64 {
        let handles: Vec<Arc<File>> = lock(&self.files).values().cloned().collect();
        handles
            .iter()
            .map(|f| f.metadata().map_or(0, |m| m.len() / PAGE_SIZE as u64))
            .sum()
    }
}

impl Drop for FileDisk {
    fn drop(&mut self) {
        let ids: Vec<FileId> = lock(&self.files).keys().copied().collect();
        for id in ids {
            self.delete(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn Disk) {
        let f = disk.create().unwrap();
        assert_eq!(disk.num_pages(f).unwrap(), 0);
        disk.write_page(f, 0, b"hello").unwrap();
        disk.write_page(f, 1, &[7u8; PAGE_SIZE]).unwrap();
        assert_eq!(disk.num_pages(f).unwrap(), 2);

        let mut buf = Vec::new();
        disk.read_page(f, 0, &mut buf).unwrap();
        assert_eq!(&buf[..5], b"hello");
        assert!(buf[5..].iter().all(|&b| b == 0), "padding must be zero");
        disk.read_page(f, 1, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; PAGE_SIZE]);

        // overwrite
        disk.write_page(f, 0, b"bye").unwrap();
        disk.read_page(f, 0, &mut buf).unwrap();
        assert_eq!(&buf[..3], b"bye");

        // gap-extending write
        disk.write_page(f, 4, b"far").unwrap();
        assert_eq!(disk.num_pages(f).unwrap(), 5);
        disk.read_page(f, 3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));

        let snap = disk.stats().snapshot();
        // writes: p0, p1, p0 again, gap p2, gap p3, p4 = 6; reads: 4
        assert_eq!(snap.writes, 6);
        assert_eq!(snap.reads, 4);

        disk.delete(f);
        disk.delete(f); // idempotent
    }

    #[test]
    fn memdisk_behaviour() {
        let d = MemDisk::new();
        exercise(&d);
        assert_eq!(d.allocated_pages(), 0);
    }

    #[test]
    fn filedisk_behaviour() {
        let dir = std::env::temp_dir().join(format!("skyline-disk-test-{}", std::process::id()));
        let d = FileDisk::new(&dir).unwrap();
        exercise(&d);
        assert_eq!(d.allocated_pages(), 0);
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filedisk_long_gap_is_zero_filled() {
        let dir = std::env::temp_dir().join(format!("skyline-gap-test-{}", std::process::id()));
        let d = FileDisk::new(&dir).unwrap();
        let f = d.create().unwrap();
        // gap longer than one zero chunk: exercises the chunked loop
        let far = GAP_CHUNK_PAGES as u64 * 2 + 3;
        d.write_page(f, far, b"tail").unwrap();
        assert_eq!(d.num_pages(f).unwrap(), far + 1);
        assert_eq!(d.stats().writes(), far + 1, "each gap page counted");
        let mut buf = Vec::new();
        for p in 0..far {
            d.read_page(f, p, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0), "page {p} must be zero");
        }
        d.read_page(f, far, &mut buf).unwrap();
        assert_eq!(&buf[..4], b"tail");
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filedisk_sweeps_stale_page_files_at_startup() {
        let dir = std::env::temp_dir().join(format!("skyline-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // simulate a crashed prior process: an orphaned page file plus an
        // unrelated file that must survive the sweep
        std::fs::write(dir.join("skyline-17.pages"), vec![1u8; PAGE_SIZE]).unwrap();
        std::fs::write(dir.join("keep.txt"), b"unrelated").unwrap();
        let d = FileDisk::new(&dir).unwrap();
        assert!(
            !dir.join("skyline-17.pages").exists(),
            "stale page file must be swept"
        );
        assert!(dir.join("keep.txt").exists(), "unrelated files survive");
        // the fresh disk reuses low ids without tripping over the orphan
        let f = d.create().unwrap();
        d.write_page(f, 0, b"fresh").unwrap();
        let mut buf = Vec::new();
        d.read_page(f, 0, &mut buf).unwrap();
        assert_eq!(&buf[..5], b"fresh");
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memdisk_read_past_eof_is_typed_error() {
        let d = MemDisk::new();
        let f = d.create().unwrap();
        d.write_page(f, 0, b"only").unwrap();
        let mut buf = Vec::new();
        let err = d.read_page(f, 1, &mut buf).unwrap_err();
        assert_eq!(err.page, Some(1));
        assert!(!err.is_transient(), "past-EOF reads will recur");
        assert!(err.to_string().contains("read past EOF"), "{err}");
    }

    #[test]
    fn filedisk_concurrent_io_on_distinct_files() {
        let dir = std::env::temp_dir().join(format!("skyline-par-test-{}", std::process::id()));
        let d = Arc::new(FileDisk::new(&dir).unwrap());
        let files: Vec<FileId> = (0..4).map(|_| d.create().unwrap()).collect();
        std::thread::scope(|s| {
            for (i, &f) in files.iter().enumerate() {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    let pattern = vec![i as u8 + 1; PAGE_SIZE];
                    for p in 0..8 {
                        d.write_page(f, p, &pattern).unwrap();
                    }
                    let mut buf = Vec::new();
                    for p in 0..8 {
                        d.read_page(f, p, &mut buf).unwrap();
                        assert_eq!(buf, pattern, "file {f} page {p}");
                    }
                });
            }
        });
        assert_eq!(d.stats().snapshot().writes, 4 * 8);
        for f in files {
            d.delete(f);
        }
        assert_eq!(d.allocated_pages(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memdisk_unknown_file_is_typed_error() {
        let d = MemDisk::new();
        let mut buf = Vec::new();
        let err = d.read_page(999, 0, &mut buf).unwrap_err();
        assert!(!err.is_transient());
        let err = d.write_page(999, 0, b"x").unwrap_err();
        assert_eq!(err.file, 999);
    }

    #[test]
    fn filedisk_read_past_eof_is_typed_error() {
        let dir = std::env::temp_dir().join(format!("skyline-eof-test-{}", std::process::id()));
        let d = FileDisk::new(&dir).unwrap();
        let f = d.create().unwrap();
        let mut buf = Vec::new();
        let err = d.read_page(f, 0, &mut buf).unwrap_err();
        assert_eq!(err.page, Some(0));
        assert!(!err.is_transient(), "EOF on a real file will recur");
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn files_are_independent() {
        let d = MemDisk::new();
        let a = d.create().unwrap();
        let b = d.create().unwrap();
        d.write_page(a, 0, b"aaa").unwrap();
        d.write_page(b, 0, b"bbb").unwrap();
        let mut buf = Vec::new();
        d.read_page(a, 0, &mut buf).unwrap();
        assert_eq!(&buf[..3], b"aaa");
        d.read_page(b, 0, &mut buf).unwrap();
        assert_eq!(&buf[..3], b"bbb");
    }
}
