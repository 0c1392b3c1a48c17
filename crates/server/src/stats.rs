//! Session counters and their conservation law.
//!
//! Every submission increments exactly one of `admitted`/`rejected`,
//! and every admitted query later lands in exactly one of
//! `completed`/`cancelled`/`failed` (being `in_flight` in between), so
//! at every quiescent point:
//!
//! ```text
//! submitted = admitted + rejected
//! admitted  = completed + cancelled + failed + in_flight
//! ```
//!
//! The same discipline as the engine's metrics counters: sums are
//! conserved hop by hop, and the server snapshot is the plain sum of
//! its sessions — there is no second bookkeeping to drift.

use std::time::Duration;

/// Counters for one session (and, summed, for the whole server).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries handed to `submit`.
    pub submitted: u64,
    /// Queries that passed admission control.
    pub admitted: u64,
    /// Queries shed at admission (overload or shutdown).
    pub rejected: u64,
    /// Admitted queries that streamed a full result.
    pub completed: u64,
    /// Admitted queries ended by their cancel token (explicit cancel,
    /// deadline, shutdown) or a stalled consumer.
    pub cancelled: u64,
    /// Admitted queries ended by a typed non-cancel error (quota,
    /// parse/semantic, storage fault).
    pub failed: u64,
    /// Admitted queries not yet finished.
    pub in_flight: u64,
    /// Highest per-query quota-pool peak observed, in pages.
    pub pages_peak: usize,
    /// Total execution wall time across finished queries, in
    /// microseconds.
    pub wall_us: u64,
    /// Total time finished queries spent waiting in the admission
    /// queue, in microseconds.
    pub queue_wait_us: u64,
    /// Total time from worker start to each finished query's first
    /// pushed row batch — to its end, for one that pushed none — in
    /// microseconds. Its distance from `wall_us` is how long clients
    /// held rows before the query was done.
    pub first_batch_us: u64,
    /// `wall_us / 1000`: the total is truncated, not each query.
    pub wall_ms: u64,
    /// `queue_wait_us / 1000`.
    pub queue_wait_ms: u64,
}

impl SessionStats {
    /// Both conservation identities hold. `in_flight` makes this true
    /// at *every* moment, not just after a drain.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.submitted == self.admitted + self.rejected
            && self.admitted == self.completed + self.cancelled + self.failed + self.in_flight
    }

    /// Charge one finished query's execution wall time, queue wait and
    /// time to its first batch.
    pub fn add_times(&mut self, wall: Duration, queue_wait: Duration, first_batch: Duration) {
        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.wall_us = self.wall_us.saturating_add(us(wall));
        self.queue_wait_us = self.queue_wait_us.saturating_add(us(queue_wait));
        self.first_batch_us = self.first_batch_us.saturating_add(us(first_batch));
        self.wall_ms = self.wall_us / 1000;
        self.queue_wait_ms = self.queue_wait_us / 1000;
    }

    /// Fold another session's counters into this one (sums; peak is a
    /// max).
    pub fn absorb(&mut self, other: &SessionStats) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
        self.in_flight += other.in_flight;
        self.pages_peak = self.pages_peak.max(other.pages_peak);
        self.wall_us += other.wall_us;
        self.queue_wait_us += other.queue_wait_us;
        self.first_batch_us += other.first_batch_us;
        self.wall_ms = self.wall_us / 1000;
        self.queue_wait_ms = self.queue_wait_us / 1000;
    }
}

/// Point-in-time aggregate over all of a server's sessions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Sessions ever opened on the server.
    pub sessions: usize,
    /// Sum of every session's counters (peak is a max).
    pub totals: SessionStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_through_absorb() {
        let a = SessionStats {
            submitted: 5,
            admitted: 4,
            rejected: 1,
            completed: 2,
            cancelled: 1,
            failed: 0,
            in_flight: 1,
            pages_peak: 64,
            wall_us: 10_400,
            queue_wait_us: 3_700,
            first_batch_us: 2_100,
            wall_ms: 10,
            queue_wait_ms: 3,
        };
        let b = SessionStats {
            submitted: 2,
            admitted: 1,
            rejected: 1,
            completed: 1,
            pages_peak: 128,
            wall_us: 900,
            first_batch_us: 300,
            ..SessionStats::default()
        };
        assert!(a.conserved() && b.conserved());
        let mut sum = a;
        sum.absorb(&b);
        assert!(sum.conserved());
        assert_eq!(sum.submitted, 7);
        assert_eq!(sum.pages_peak, 128, "peak is a max, not a sum");
        assert_eq!((sum.wall_ms, sum.queue_wait_ms), (11, 3));
        assert_eq!(sum.first_batch_us, 2_400, "summed like wall_us");
    }

    #[test]
    fn sub_millisecond_times_add_up_instead_of_truncating_to_zero() {
        let mut s = SessionStats::default();
        for _ in 0..1_000 {
            s.add_times(
                Duration::from_micros(400),
                Duration::from_micros(400),
                Duration::from_micros(100),
            );
        }
        assert_eq!((s.wall_us, s.wall_ms), (400_000, 400));
        assert_eq!(s.first_batch_us, 100_000);
        assert_eq!((s.queue_wait_us, s.queue_wait_ms), (400_000, 400));
        // …and two sessions' remainders carry into the server total
        let mut total = SessionStats::default();
        s.wall_us += 600;
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.wall_ms, 801);
    }

    #[test]
    fn broken_books_are_detected() {
        let s = SessionStats {
            submitted: 1,
            ..SessionStats::default()
        };
        assert!(!s.conserved());
    }
}
