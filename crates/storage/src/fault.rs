//! Deterministic fault injection for the storage layer.
//!
//! [`FaultDisk`] wraps any [`Disk`] and fails operations on a seed-driven
//! schedule: the decision for the Nth read (or write) is a pure hash of
//! `(seed, kind, N)`, so a given [`FaultSchedule`] replays the exact same
//! fault sequence on every run — the property the fault-injection
//! differential suite depends on. Faults are typed [`StorageError`]s,
//! never panics; *torn* writes additionally persist a half-page prefix to
//! the inner disk before failing, modelling a power cut mid-write. Because
//! page writes are idempotent full-page stores, a retry of a torn write
//! recovers cleanly.

use crate::disk::{Disk, FileId};
use crate::error::{ErrorKind, IoOp, StorageError};
use crate::io_stats::IoStats;
use crate::PAGE_SIZE;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When faults fire and what kind they are. All decisions derive from
/// `seed` — two runs with equal schedules see identical faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed for the per-operation hash.
    pub seed: u64,
    /// Fail roughly one in `read_period` reads (0 = never fail reads).
    pub read_period: u64,
    /// Fail roughly one in `write_period` writes (0 = never fail writes).
    pub write_period: u64,
    /// Percentage (0..=100) of injected faults that are transient.
    pub transient_pct: u64,
    /// When set, a failing write first persists a torn half-page to the
    /// inner disk before reporting a transient error.
    pub torn_writes: bool,
    /// Skip injection for the first `arm_after` operations of each kind,
    /// letting setup I/O complete before faults arm.
    pub arm_after: u64,
}

impl FaultSchedule {
    /// A schedule that never fires — `FaultDisk` becomes a transparent
    /// pass-through.
    pub fn none() -> Self {
        FaultSchedule {
            seed: 0,
            read_period: 0,
            write_period: 0,
            transient_pct: 0,
            torn_writes: false,
            arm_after: 0,
        }
    }

    /// Fail exactly the `n`th read (0-based) with a permanent error.
    /// Period 1 + seed 0 encodes a one-shot: after the first armed fault
    /// fires, the schedule goes quiet.
    pub fn nth_read(n: u64) -> Self {
        FaultSchedule {
            seed: 0,
            read_period: 1,
            write_period: 0,
            transient_pct: 0,
            torn_writes: false,
            arm_after: n,
        }
    }

    /// Fail exactly the `n`th write (0-based) with a permanent error.
    /// One-shot, like [`FaultSchedule::nth_read`].
    pub fn nth_write(n: u64) -> Self {
        FaultSchedule {
            seed: 0,
            read_period: 0,
            write_period: 1,
            transient_pct: 0,
            torn_writes: false,
            arm_after: n,
        }
    }

    fn fires(&self, kind: IoOp, index: u64, fired_already: bool) -> Option<ErrorKind> {
        let period = match kind {
            IoOp::Read => self.read_period,
            IoOp::Write => self.write_period,
            _ => 0,
        };
        if period == 0 || index < self.arm_after {
            return None;
        }
        // One-shot schedules (nth_read/nth_write): period 1 with seed 0
        // fires on every armed op, so suppress repeats after the first.
        if period == 1 && self.seed == 0 && fired_already {
            return None;
        }
        let h = mix(self.seed, kind as u64, index);
        if !h.is_multiple_of(period) {
            return None;
        }
        if (h >> 32) % 100 < self.transient_pct {
            Some(ErrorKind::Transient)
        } else {
            Some(ErrorKind::Permanent)
        }
    }
}

/// splitmix64-style avalanche of `(seed, kind, index)`.
fn mix(seed: u64, kind: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(kind.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`Disk`] decorator that injects deterministic faults per a
/// [`FaultSchedule`]. Reads and writes consult the schedule; create,
/// delete, and stat operations always pass through, so cleanup paths
/// (Drop-deleting temp files) cannot themselves fault.
pub struct FaultDisk {
    inner: Arc<dyn Disk>,
    schedule: FaultSchedule,
    reads: AtomicU64,
    writes: AtomicU64,
    injected: AtomicU64,
    read_fired: AtomicU64,
    write_fired: AtomicU64,
}

impl FaultDisk {
    /// Wrap `inner`, failing operations per `schedule`.
    pub fn new(inner: Arc<dyn Disk>, schedule: FaultSchedule) -> Self {
        FaultDisk {
            inner,
            schedule,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            read_fired: AtomicU64::new(0),
            write_fired: AtomicU64::new(0),
        }
    }

    /// Shareable handle around `inner` with `schedule`.
    pub fn shared(inner: Arc<dyn Disk>, schedule: FaultSchedule) -> Arc<Self> {
        Arc::new(FaultDisk::new(inner, schedule))
    }

    /// Faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn decide(&self, kind: IoOp) -> Option<ErrorKind> {
        let (counter, fired) = match kind {
            IoOp::Read => (&self.reads, &self.read_fired),
            _ => (&self.writes, &self.write_fired),
        };
        let index = counter.fetch_add(1, Ordering::Relaxed);
        let verdict = self
            .schedule
            .fires(kind, index, fired.load(Ordering::Relaxed) > 0);
        if verdict.is_some() {
            fired.fetch_add(1, Ordering::Relaxed);
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }
}

impl Disk for FaultDisk {
    fn create(&self) -> Result<FileId, StorageError> {
        self.inner.create()
    }

    fn delete(&self, file: FileId) {
        self.inner.delete(file);
    }

    fn write_page(&self, file: FileId, page_no: u64, data: &[u8]) -> Result<(), StorageError> {
        if let Some(kind) = self.decide(IoOp::Write) {
            if self.schedule.torn_writes && kind == ErrorKind::Transient {
                // Power-cut model: half the page reaches the device, then
                // the write reports failure. A full-page retry recovers.
                let torn = &data[..data.len().min(PAGE_SIZE / 2)];
                self.inner.write_page(file, page_no, torn)?;
            }
            return Err(
                StorageError::new(IoOp::Write, file, kind, "injected fault").at_page(page_no)
            );
        }
        self.inner.write_page(file, page_no, data)
    }

    fn read_page(&self, file: FileId, page_no: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        if let Some(kind) = self.decide(IoOp::Read) {
            return Err(
                StorageError::new(IoOp::Read, file, kind, "injected fault").at_page(page_no)
            );
        }
        self.inner.read_page(file, page_no, buf)
    }

    fn num_pages(&self, file: FileId) -> Result<u64, StorageError> {
        self.inner.num_pages(file)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn allocated_pages(&self) -> u64 {
        self.inner.allocated_pages()
    }
}

/// Test support for the owning handles (`HeapFile`, `BTree`): run
/// `build` — which must write pages and then fail — on a `MemDisk`, a
/// `FileDisk` and a `FaultDisk` failing its `nth_write`-th write, and
/// assert each disk is left with no allocated page.
#[cfg(test)]
pub(crate) fn assert_failed_build_frees_every_page<T>(
    tag: &str,
    nth_write: u64,
    build: impl Fn(Arc<dyn Disk>) -> Result<T, StorageError>,
) {
    use crate::disk::{FileDisk, MemDisk};
    let dir = std::env::temp_dir().join(format!("skyline-{tag}-{}", std::process::id()));
    let disks: [Arc<dyn Disk>; 3] = [
        MemDisk::shared(),
        Arc::new(FileDisk::new(&dir).unwrap()),
        FaultDisk::shared(MemDisk::shared(), FaultSchedule::nth_write(nth_write)),
    ];
    for disk in disks {
        assert!(build(Arc::clone(&disk)).is_err());
        assert!(disk.stats().snapshot().writes > 0, "nothing was written");
        assert_eq!(disk.allocated_pages(), 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn faulty(schedule: FaultSchedule) -> FaultDisk {
        FaultDisk::new(MemDisk::shared(), schedule)
    }

    #[test]
    fn none_schedule_is_transparent() {
        let d = faulty(FaultSchedule::none());
        let f = d.create().unwrap();
        for p in 0..20 {
            d.write_page(f, p, b"x").unwrap();
        }
        let mut buf = Vec::new();
        for p in 0..20 {
            d.read_page(f, p, &mut buf).unwrap();
        }
        assert_eq!(d.injected_faults(), 0);
    }

    #[test]
    fn nth_read_fails_exactly_once() {
        let d = faulty(FaultSchedule::nth_read(2));
        let f = d.create().unwrap();
        for p in 0..5 {
            d.write_page(f, p, b"x").unwrap();
        }
        let mut buf = Vec::new();
        d.read_page(f, 0, &mut buf).unwrap(); // read 0
        d.read_page(f, 1, &mut buf).unwrap(); // read 1
        let err = d.read_page(f, 2, &mut buf).unwrap_err(); // read 2: boom
        assert!(!err.is_transient());
        assert_eq!(err.page, Some(2));
        d.read_page(f, 3, &mut buf).unwrap(); // one-shot: later reads pass
        assert_eq!(d.injected_faults(), 1);
    }

    #[test]
    fn nth_write_fails_exactly_once() {
        let d = faulty(FaultSchedule::nth_write(1));
        let f = d.create().unwrap();
        d.write_page(f, 0, b"a").unwrap();
        let err = d.write_page(f, 1, b"b").unwrap_err();
        assert_eq!(err.op, IoOp::Write);
        d.write_page(f, 1, b"b").unwrap();
        assert_eq!(d.injected_faults(), 1);
    }

    #[test]
    fn schedule_is_deterministic_across_runs() {
        let schedule = FaultSchedule {
            seed: 42,
            read_period: 3,
            write_period: 4,
            transient_pct: 50,
            torn_writes: false,
            arm_after: 2,
        };
        let run = || {
            let d = faulty(schedule);
            let f = d.create().unwrap();
            let mut outcomes = Vec::new();
            for p in 0..30 {
                outcomes.push(d.write_page(f, p % 3, b"x").map_err(|e| e.kind));
            }
            let mut buf = Vec::new();
            for p in 0..3 {
                for _ in 0..10 {
                    outcomes.push(d.read_page(f, p, &mut buf).map_err(|e| e.kind));
                }
            }
            (outcomes, d.injected_faults())
        };
        let (a, fa) = run();
        let (b, fb) = run();
        assert_eq!(a, b, "same seed must replay the same fault sequence");
        assert_eq!(fa, fb);
        assert!(fa > 0, "a periodic schedule over 60 ops should fire");
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| FaultSchedule {
            seed,
            read_period: 2,
            write_period: 2,
            transient_pct: 50,
            torn_writes: false,
            arm_after: 0,
        };
        let outcomes = |schedule| {
            let d = faulty(schedule);
            let f = d.create().unwrap();
            (0..40)
                .map(|_| d.write_page(f, 0, b"x").is_ok())
                .collect::<Vec<_>>()
        };
        assert_ne!(outcomes(mk(1)), outcomes(mk(2)));
    }

    #[test]
    fn torn_write_persists_half_page_then_errors() {
        let inner = MemDisk::shared();
        let schedule = FaultSchedule {
            seed: 0,
            read_period: 0,
            write_period: 1,
            transient_pct: 100,
            torn_writes: true,
            arm_after: 0,
        };
        let d = FaultDisk::new(Arc::clone(&inner) as Arc<dyn Disk>, schedule);
        let f = d.create().unwrap();
        let full = vec![0xABu8; PAGE_SIZE];
        let err = d.write_page(f, 0, &full).unwrap_err();
        assert!(err.is_transient(), "torn writes are transient");
        // inner disk saw the torn prefix
        let mut buf = Vec::new();
        inner.read_page(f, 0, &mut buf).unwrap();
        assert!(buf[..PAGE_SIZE / 2].iter().all(|&b| b == 0xAB));
        assert!(buf[PAGE_SIZE / 2..].iter().all(|&b| b == 0));
    }
}
