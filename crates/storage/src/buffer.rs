//! Buffer-pool page-budget ledger.
//!
//! The paper's operators each receive a page budget from the optimizer —
//! the skyline *window* (the x-axis of every figure), and the sort's
//! ~1000-page workspace. The algorithms manage their own page contents;
//! what the engine enforces is the budget. [`BufferPool`] is that ledger:
//! reservations are RAII [`BufferLease`]s, over-reservation fails, and peak
//! usage is tracked so experiments can report true memory footprints.

use crate::sync::lock;
use std::fmt;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Ledger {
    used: usize,
    peak: usize,
}

/// A fixed pool of buffer pages shared by the operators of a plan.
#[derive(Debug, Clone)]
pub struct BufferPool {
    total: usize,
    ledger: Arc<Mutex<Ledger>>,
}

impl BufferPool {
    /// A pool of `total` pages.
    pub fn new(total: usize) -> Self {
        BufferPool {
            total,
            ledger: Arc::new(Mutex::new(Ledger::default())),
        }
    }

    /// Pool capacity in pages.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Pages currently reserved.
    pub fn used(&self) -> usize {
        lock(&self.ledger).used
    }

    /// Pages currently free.
    pub fn available(&self) -> usize {
        self.total - self.used()
    }

    /// High-water mark of reservations.
    pub fn peak(&self) -> usize {
        lock(&self.ledger).peak
    }

    /// Reserve `pages` pages, failing if the pool cannot satisfy it.
    ///
    /// # Errors
    /// [`BufferError::Exhausted`] when fewer than `pages` pages are
    /// free; the error carries the request and what was available.
    pub fn reserve(&self, pages: usize) -> Result<BufferLease, BufferError> {
        let mut ledger = lock(&self.ledger);
        if ledger.used + pages > self.total {
            return Err(BufferError::Exhausted {
                requested: pages,
                available: self.total - ledger.used,
            });
        }
        ledger.used += pages;
        ledger.peak = ledger.peak.max(ledger.used);
        Ok(BufferLease {
            pool: self.clone(),
            pages,
        })
    }
}

/// RAII reservation of pages from a [`BufferPool`]; released on drop.
///
/// A lease nobody binds returns its pages in the statement that took
/// them, and the work it was meant to cover runs unaccounted — so it
/// does not compile where the hot paths deny `unused_must_use`:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// use skyline_storage::{buffer::BufferError, BufferPool};
/// fn charge(pool: &BufferPool) -> Result<(), BufferError> {
///     pool.reserve(8)?;
///     Ok(())
/// }
/// ```
#[derive(Debug)]
#[must_use = "dropping a lease returns its pages to the pool at once"]
pub struct BufferLease {
    pool: BufferPool,
    pages: usize,
}

impl BufferLease {
    /// Number of pages held by this lease.
    pub fn pages(&self) -> usize {
        self.pages
    }
}

impl Drop for BufferLease {
    fn drop(&mut self) {
        lock(&self.pool.ledger).used -= self.pages;
    }
}

/// Errors reserving buffer pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferError {
    /// The pool cannot satisfy the request.
    Exhausted {
        /// Pages requested.
        requested: usize,
        /// Pages that were available.
        available: usize,
    },
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::Exhausted {
                requested,
                available,
            } => write!(
                f,
                "buffer pool exhausted: requested {requested} pages, {available} available"
            ),
        }
    }
}

impl std::error::Error for BufferError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let pool = BufferPool::new(10);
        let a = pool.reserve(6).unwrap();
        assert_eq!(pool.used(), 6);
        assert_eq!(pool.available(), 4);
        let b = pool.reserve(4).unwrap();
        assert_eq!(pool.available(), 0);
        drop(a);
        assert_eq!(pool.available(), 6);
        drop(b);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.peak(), 10);
    }

    #[test]
    fn over_reservation_fails() {
        let pool = BufferPool::new(5);
        let _a = pool.reserve(3).unwrap();
        let err = pool.reserve(3).unwrap_err();
        assert_eq!(
            err,
            BufferError::Exhausted {
                requested: 3,
                available: 2
            }
        );
    }

    #[test]
    fn zero_page_lease_is_fine() {
        let pool = BufferPool::new(0);
        let l = pool.reserve(0).unwrap();
        assert_eq!(l.pages(), 0);
    }

    #[test]
    fn clones_share_the_ledger() {
        let pool = BufferPool::new(8);
        let clone = pool.clone();
        let _l = pool.reserve(5).unwrap();
        assert_eq!(clone.used(), 5);
        assert!(clone.reserve(4).is_err());
    }
}
