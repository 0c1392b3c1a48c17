#![warn(missing_docs, clippy::missing_errors_doc, clippy::missing_panics_doc)]
// Hot path: typed errors only, nothing discarded (DESIGN.md §8.1).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

//! Page-granular storage substrate with I/O accounting.
//!
//! The paper measures its algorithms in **pages**: 4096-byte pages, 40
//! 100-byte tuples each, and reports "extra pages" — pages written to (and
//! re-read from) temp files beyond the initial scan (Figures 10, 14, 15).
//! This crate provides exactly that accounting surface:
//!
//! * [`Disk`] — a page device. [`MemDisk`] keeps pages in memory for
//!   deterministic, fast experiments; [`FileDisk`] spills to real files.
//!   Every page read/write increments shared [`IoStats`] counters.
//! * [`HeapFile`] — a dense, fixed-width-record file over a disk, with a
//!   page-buffered writer and a page-at-a-time scanner.
//! * [`BufferPool`] — a page-budget ledger. The paper's algorithms manage
//!   their own windows; what the engine enforces is *how many pages* each
//!   operator may pin, which is what this ledger models.
//!
//! Every page transfer is fallible: device failures surface as typed
//! [`StorageError`]s (transient vs permanent), [`FaultDisk`] injects
//! deterministic seed-driven faults for testing, and [`RetryDisk`]
//! re-attempts transient failures under a bounded [`RetryPolicy`].

pub mod btree;
pub mod buffer;
pub mod disk;
pub mod error;
pub mod fault;
pub mod heap;
pub mod io_stats;
pub mod retry;
mod sync;

pub use btree::{BTree, BTreeScan, SharedBTreeScan};
pub use buffer::{BufferLease, BufferPool};
pub use disk::{read_text, write_text, Disk, FileDisk, FileId, MemDisk};
pub use error::{ErrorKind, IoOp, StorageError};
pub use fault::{FaultDisk, FaultSchedule};
pub use heap::{HeapFile, HeapScanner, HeapWriter, SharedScanner};
pub use io_stats::{DiskCostModel, IoSnapshot, IoStats};
pub use retry::{RetryDisk, RetryPolicy};

/// Page size in bytes (matches `skyline_relation::PAGE_SIZE`).
pub const PAGE_SIZE: usize = 4096;
