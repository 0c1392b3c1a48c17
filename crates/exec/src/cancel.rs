//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is a cheaply-cloneable handle combining an atomic
//! cancel flag with an optional deadline. Long-running operators
//! (multipass skyline filters, external sort) poll it at pass boundaries
//! and every few hundred records, returning
//! [`crate::ExecError::Cancelled`] with partial-progress accounting when
//! it trips. Checks are cooperative: an operator that never polls is
//! never interrupted.

use crate::error::ExecError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many records an operator processes between cancellation polls.
/// Coarse enough that the atomic load vanishes in the per-record cost,
/// fine enough that cancellation latency stays in the microsecond range.
pub const CANCEL_CHECK_INTERVAL: u64 = 256;

struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Linked-token fan-out: a child trips when any ancestor trips, but
    /// cancelling a child never touches its parent or siblings.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn tripped(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        match &self.parent {
            Some(p) => p.tripped(),
            None => false,
        }
    }
}

/// A cancellation signal shared between a query's operators and whoever
/// may abort it. Clones share state.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only trips when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            }),
        }
    }

    /// A token that additionally trips once `timeout` has elapsed from
    /// construction.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
                parent: None,
            }),
        }
    }

    /// A child token linked to this one: it trips when *either* its own
    /// flag is raised or any ancestor trips, while cancelling the child
    /// leaves the parent — and therefore every sibling — untouched. This
    /// is the server fan-out shape: one shutdown token parents every
    /// per-query token, so shutdown cancels all sessions at once but a
    /// single session abort stays local.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// A child token (see [`CancelToken::child`]) that additionally trips
    /// once `timeout` has elapsed from construction — the per-query
    /// deadline shape.
    pub fn child_with_deadline(&self, timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Raise the cancel flag. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True when the flag is raised, the deadline has passed, or any
    /// ancestor token (see [`CancelToken::child`]) has tripped.
    pub fn is_cancelled(&self) -> bool {
        self.inner.tripped()
    }

    /// Check the token, converting a trip into a typed error carrying the
    /// caller's progress count.
    ///
    /// # Errors
    /// [`ExecError::Cancelled`] when the token has tripped.
    pub fn check(&self, records_processed: u64) -> Result<(), ExecError> {
        if self.is_cancelled() {
            Err(ExecError::Cancelled { records_processed })
        } else {
            Ok(())
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Poll `token` every [`CANCEL_CHECK_INTERVAL`] records: checks only when
/// `count` hits the interval boundary (and always at `count == 0`, so a
/// pre-cancelled token is caught before any work).
///
/// # Errors
/// [`ExecError::Cancelled`] when the token has tripped at a poll point.
pub fn poll(token: Option<&CancelToken>, count: u64) -> Result<(), ExecError> {
    match token {
        Some(t) if count.is_multiple_of(CANCEL_CHECK_INTERVAL) => t.check(count),
        _ => Ok(()),
    }
}

/// [`poll`] without the stride: check `token`, if there is one, now.
///
/// # Errors
/// [`ExecError::Cancelled`] when the token has tripped.
pub fn poll_now(token: Option<&CancelToken>, count: u64) -> Result<(), ExecError> {
    token.map_or(Ok(()), |t| t.check(count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        assert!(matches!(
            t.check(7),
            Err(ExecError::Cancelled {
                records_processed: 7
            })
        ));
    }

    #[test]
    fn deadline_trips_without_explicit_cancel() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled(), "zero deadline is already past");
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn parent_cancel_fans_out_to_children() {
        let parent = CancelToken::new();
        let a = parent.child();
        let b = parent.child();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        parent.cancel();
        assert!(a.is_cancelled(), "parent cancel must reach child a");
        assert!(b.is_cancelled(), "parent cancel must reach child b");
    }

    #[test]
    fn child_cancel_stays_local() {
        let parent = CancelToken::new();
        let a = parent.child();
        let b = parent.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel must not climb");
        assert!(!b.is_cancelled(), "child cancel must not reach siblings");
    }

    #[test]
    fn child_deadline_is_independent_of_parent() {
        let parent = CancelToken::new();
        let fast = parent.child_with_deadline(Duration::ZERO);
        let slow = parent.child_with_deadline(Duration::from_secs(3600));
        assert!(fast.is_cancelled(), "zero deadline is already past");
        assert!(!slow.is_cancelled());
        assert!(!parent.is_cancelled(), "deadline trips never climb");
    }

    #[test]
    fn grandchild_sees_root_cancel() {
        let root = CancelToken::new();
        let mid = root.child();
        let leaf = mid.child();
        root.cancel();
        assert!(leaf.is_cancelled(), "trips propagate down the whole chain");
    }

    #[test]
    fn poll_checks_on_interval_boundaries_only() {
        let t = CancelToken::new();
        t.cancel();
        assert!(poll(Some(&t), 0).is_err(), "count 0 is a poll point");
        assert!(poll(Some(&t), 1).is_ok(), "off-boundary counts skip");
        assert!(poll(Some(&t), CANCEL_CHECK_INTERVAL).is_err());
        assert!(poll(None, 0).is_ok(), "no token, no trip");
    }
}
