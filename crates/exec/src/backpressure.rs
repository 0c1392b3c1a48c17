//! Counting admission gate for the server arc's long-lived sessions.
//!
//! A [`Backpressure`] holds a fixed pool of *credits*. Admitting a unit
//! of work takes one ([`Backpressure::acquire`] blocks while none are
//! available) and hands it back as a [`Credit`]; dropping the `Credit`
//! returns it and wakes exactly one waiter. There is no other way to
//! return a credit, so a grant cannot be leaked on an error path or
//! returned twice. Closing the gate ([`Backpressure::close`]) releases
//! every current and future waiter with a refusal — the shutdown path
//! must never strand a blocked admitter.
//!
//! Like [`crate::queue::WorkQueue`], one mutex guards the whole state,
//! so every operation is a single linearizable step and the
//! `skyline_testkit::interleave` model test
//! (`tests/backpressure_model.rs`) explores the full linearization
//! space of admit/release/close programs. No I/O ever happens under the
//! gate's lock.

use crate::sync_util::{lock, wait, wait_timeout};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Result of [`Backpressure::try_acquire`] and
/// [`Backpressure::acquire_timeout`].
#[derive(Debug)]
#[must_use = "a grant dropped unbound returns its credit at once"]
pub enum TryAcquire {
    /// A credit was taken; it is returned when the [`Credit`] drops.
    Granted(Credit),
    /// No credits available right now (a blocking acquire would wait).
    Exhausted,
    /// The gate is closed; no credit will ever be granted again.
    Closed,
}

#[derive(Debug)]
struct State {
    available: usize,
    closed: bool,
    granted: u64,
    returned: u64,
}

#[derive(Debug)]
struct Gate {
    state: Mutex<State>,
    released: Condvar,
}

/// A closable counting admission gate (credit semaphore). Clones share
/// the one gate.
#[derive(Debug, Clone)]
pub struct Backpressure {
    gate: Arc<Gate>,
}

/// One admission credit, returned to its gate on drop — also after the
/// gate closed: in-flight work still finishes, and the counters keep
/// the grant/return conservation visible to the model tests.
///
/// Holding the value is the only way to hold a credit, and dropping it
/// the only way to give one back — the gate has no `release` to call:
///
/// ```compile_fail,E0599
/// let gate = skyline_exec::Backpressure::new(1);
/// let credit = gate.acquire();
/// gate.release();
/// ```
///
/// and a grant nobody binds does not compile where the hot paths deny
/// `unused_must_use`:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// let gate = skyline_exec::Backpressure::new(1);
/// gate.acquire_timeout(std::time::Duration::ZERO);
/// ```
#[derive(Debug)]
#[must_use = "dropping a credit returns it to the gate at once"]
pub struct Credit {
    gate: Arc<Gate>,
}

impl Drop for Credit {
    fn drop(&mut self) {
        let mut st = lock(&self.gate.state);
        st.available += 1;
        st.returned += 1;
        drop(st);
        self.gate.released.notify_one();
    }
}

impl Backpressure {
    /// A gate with `credits` admission slots (≥ 1).
    ///
    /// # Panics
    /// Panics if `credits` is zero — a gate that can never admit
    /// anything deadlocks its first acquirer by construction.
    pub fn new(credits: usize) -> Self {
        assert!(credits > 0, "backpressure gate needs credits >= 1");
        Backpressure {
            gate: Arc::new(Gate {
                state: Mutex::new(State {
                    available: credits,
                    closed: false,
                    granted: 0,
                    returned: 0,
                }),
                released: Condvar::new(),
            }),
        }
    }

    /// Grant one credit out of `st`, or say why not.
    fn grant(&self, st: &mut State) -> TryAcquire {
        if st.closed {
            TryAcquire::Closed
        } else if st.available > 0 {
            st.available -= 1;
            st.granted += 1;
            TryAcquire::Granted(Credit {
                gate: Arc::clone(&self.gate),
            })
        } else {
            TryAcquire::Exhausted
        }
    }

    /// Take a credit, blocking while none are available. `None` when
    /// the gate is (or becomes, while waiting) closed.
    #[must_use = "a grant dropped unbound returns its credit at once"]
    pub fn acquire(&self) -> Option<Credit> {
        let mut st = lock(&self.gate.state);
        loop {
            match self.grant(&mut st) {
                TryAcquire::Granted(credit) => return Some(credit),
                TryAcquire::Closed => return None,
                TryAcquire::Exhausted => st = wait(&self.gate.released, st),
            }
        }
    }

    /// Take a credit, waiting at most `timeout` for one to free up.
    /// Returns [`TryAcquire::Granted`] when a credit was taken,
    /// [`TryAcquire::Exhausted`] when the timeout elapsed with none
    /// available, and [`TryAcquire::Closed`] when the gate is (or
    /// becomes, while waiting) closed. This is the admission-control
    /// shape: the server bounds how long a submit may wait instead of
    /// blocking a client forever, and sheds load with a typed rejection
    /// on `Exhausted`.
    pub fn acquire_timeout(&self, timeout: Duration) -> TryAcquire {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.gate.state);
        loop {
            match self.grant(&mut st) {
                TryAcquire::Exhausted => {}
                settled => return settled,
            }
            let now = Instant::now();
            if now >= deadline {
                return TryAcquire::Exhausted;
            }
            st = wait_timeout(&self.gate.released, st, deadline - now).0;
        }
    }

    /// Non-blocking acquire.
    pub fn try_acquire(&self) -> TryAcquire {
        self.grant(&mut lock(&self.gate.state))
    }

    /// Close the gate: every blocked acquirer wakes with a refusal and
    /// every later acquire fails immediately. Idempotent.
    pub fn close(&self) {
        lock(&self.gate.state).closed = true;
        self.gate.released.notify_all();
    }

    /// True once [`Backpressure::close`] has run.
    pub fn is_closed(&self) -> bool {
        lock(&self.gate.state).closed
    }

    /// Credits currently available.
    pub fn available(&self) -> usize {
        lock(&self.gate.state).available
    }

    /// Total credits ever granted (model-test conservation counter).
    pub fn granted(&self) -> u64 {
        lock(&self.gate.state).granted
    }

    /// Total credits ever returned (model-test conservation counter).
    pub fn returned(&self) -> u64 {
        lock(&self.gate.state).returned
    }

    /// Credits currently held by admitted work.
    pub fn outstanding(&self) -> u64 {
        let st = lock(&self.gate.state);
        st.granted - st.returned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TryAcquire::{Closed, Exhausted, Granted};

    #[test]
    fn grants_up_to_capacity_then_exhausts() {
        let g = Backpressure::new(2);
        let (first, second) = (g.try_acquire(), g.try_acquire());
        assert!(matches!((&first, &second), (Granted(_), Granted(_))));
        assert!(matches!(g.try_acquire(), Exhausted));
        drop(first);
        let third = g.try_acquire();
        assert!(matches!(third, Granted(_)));
        assert_eq!((g.granted(), g.returned()), (3, 1));
        assert_eq!(g.outstanding(), 2);
    }

    #[test]
    fn acquire_timeout_grants_exhausts_and_refuses() {
        let g = Backpressure::new(1);
        let held = g.acquire_timeout(Duration::ZERO);
        assert!(
            matches!(held, Granted(_)),
            "an available credit is granted without waiting"
        );
        assert!(
            matches!(g.acquire_timeout(Duration::from_millis(5)), Exhausted),
            "timeout with no credit must report exhaustion"
        );
        g.close();
        assert!(
            matches!(g.acquire_timeout(Duration::from_secs(3600)), Closed),
            "a closed gate refuses immediately, not after the timeout"
        );
    }

    #[test]
    fn acquire_timeout_wakes_on_release_before_deadline() {
        let g = Backpressure::new(1);
        let held = g.acquire();
        let g2 = g.clone();
        let h = std::thread::spawn(move || g2.acquire_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        assert!(
            matches!(h.join().unwrap(), Granted(_)),
            "release must wake the timed waiter well before its deadline"
        );
    }

    #[test]
    fn acquire_timeout_wakes_on_close() {
        let g = Backpressure::new(1);
        let _held = g.acquire();
        let g2 = g.clone();
        let h = std::thread::spawn(move || g2.acquire_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        g.close();
        assert!(matches!(h.join().unwrap(), Closed));
    }

    #[test]
    fn close_refuses_immediately_and_idempotently() {
        let g = Backpressure::new(1);
        g.close();
        g.close();
        assert!(g.is_closed());
        assert!(matches!(g.try_acquire(), Closed));
        assert!(g.acquire().is_none());
    }

    #[test]
    fn blocked_acquirer_wakes_on_release() {
        let g = Backpressure::new(1);
        let held = g.acquire();
        let g2 = g.clone();
        let h = std::thread::spawn(move || g2.acquire().is_some());
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        assert!(h.join().unwrap(), "release must wake the blocked acquirer");
    }

    #[test]
    fn close_releases_blocked_acquirers() {
        let g = Backpressure::new(1);
        let _held = g.acquire();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || g.acquire().is_some())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        g.close();
        for h in waiters {
            assert!(!h.join().unwrap(), "close must refuse every waiter");
        }
    }

    #[test]
    fn release_after_close_still_counts() {
        let g = Backpressure::new(1);
        let held = g.acquire();
        g.close();
        drop(held);
        assert_eq!(g.outstanding(), 0);
        assert_eq!(g.available(), 1, "in-flight work returns its credit");
    }
}
