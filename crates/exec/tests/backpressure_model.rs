//! Model-checked concurrency tests for [`Backpressure`] — the
//! admission gate the server arc will put in front of long-lived
//! sessions.
//!
//! Same method as `queue_model.rs`: one mutex guards the gate's whole
//! state, so every operation is a single linearizable step and
//! `skyline_testkit::interleave` explores the *full* linearization
//! space of short per-thread programs against a trivially-sequential
//! reference model. Real-thread companions cover the axis the model
//! cannot — actual blocking — asserting no lost wakeups (every release
//! wakes an admitter) and that close() releases all waiters.

use skyline_exec::{Backpressure, Credit, TryAcquire};
use skyline_testkit::interleave::{interleavings, schedule_count};

/// What a `try_acquire` step observed, stripped of the credit itself.
#[derive(Debug, PartialEq, Eq)]
enum Seen {
    Granted,
    Exhausted,
    Closed,
}

/// Pure sequential reference for the gate's observable behavior.
struct ModelGate {
    available: usize,
    closed: bool,
    granted: u64,
    returned: u64,
}

impl ModelGate {
    fn new(credits: usize) -> Self {
        ModelGate {
            available: credits,
            closed: false,
            granted: 0,
            returned: 0,
        }
    }

    fn try_acquire(&mut self) -> Seen {
        if self.closed {
            Seen::Closed
        } else if self.available > 0 {
            self.available -= 1;
            self.granted += 1;
            Seen::Granted
        } else {
            Seen::Exhausted
        }
    }

    /// A held credit drops. Returning one that was never granted is
    /// not a step the guard API can express, so neither can the model.
    fn release(&mut self) {
        assert!(self.granted > self.returned, "release without a grant");
        self.available += 1;
        self.returned += 1;
    }
}

/// One admitter step on both gates; a granted [`Credit`] joins `held`.
fn acquire_step(real: &Backpressure, model: &mut ModelGate, held: &mut Vec<Credit>) {
    let got = match real.try_acquire() {
        TryAcquire::Granted(credit) => {
            held.push(credit);
            Seen::Granted
        }
        TryAcquire::Exhausted => Seen::Exhausted,
        TryAcquire::Closed => Seen::Closed,
    };
    assert_eq!(got, model.try_acquire());
}

/// One finisher step: the oldest held credit (if any) drops.
fn release_step(model: &mut ModelGate, held: &mut Vec<Credit>) {
    if !held.is_empty() {
        drop(held.remove(0));
        model.release();
    }
}

#[test]
fn gate_matches_reference_model_on_every_interleaving() {
    // admitter: try_acquire ×2; finisher: drop a held credit; closer:
    // close. One credit exercises exhaustion; the closer exercises
    // refusal in every position relative to the grants.
    let shape = [2usize, 1, 1];
    let explored = interleavings(&shape, |schedule| {
        let real = Backpressure::new(1);
        let mut model = ModelGate::new(1);
        let mut held = Vec::new();
        for &t in schedule {
            match t {
                0 => acquire_step(&real, &mut model, &mut held),
                1 => release_step(&mut model, &mut held),
                _ => {
                    real.close();
                    model.closed = true;
                }
            }
            // step invariants: state agreement and grant/return
            // conservation at every prefix of every schedule
            assert_eq!(real.available(), model.available, "{schedule:?}");
            assert_eq!(real.is_closed(), model.closed);
            assert_eq!(real.granted(), model.granted);
            assert_eq!(real.returned(), model.returned);
            assert_eq!(real.outstanding(), held.len() as u64);
        }
    });
    assert_eq!(explored, schedule_count(&shape));
}

#[test]
fn two_admitters_conserve_credits_on_every_interleaving() {
    // Two competing admitters against a 1-credit gate, with a finisher
    // dropping one credit: however the grants interleave, at most one
    // credit is ever outstanding per un-returned grant.
    let shape = [2usize, 2, 1];
    let explored = interleavings(&shape, |schedule| {
        let real = Backpressure::new(1);
        let mut model = ModelGate::new(1);
        let mut held = Vec::new();
        for &t in schedule {
            match t {
                0 | 1 => acquire_step(&real, &mut model, &mut held),
                _ => release_step(&mut model, &mut held),
            }
            assert_eq!(real.available(), model.available);
            assert_eq!(real.granted(), model.granted);
            // credit conservation: every grant moves one credit from
            // the pool to a holder, every drop moves one back, so
            // available + granted − returned is always the capacity
            assert_eq!(
                real.available() as u64 + real.granted() - real.returned(),
                1,
                "credit conservation at {schedule:?}"
            );
        }
        drop(held);
        assert_eq!(real.granted(), real.returned(), "every grant came home");
    });
    assert_eq!(explored, schedule_count(&shape));
}

#[test]
fn real_thread_stress_has_no_lost_wakeups() {
    // 4 admitters × 50 rounds through a 2-credit gate, with blocking
    // acquire. A lost wakeup (a drop whose notify lands nowhere while
    // an acquirer sleeps) would deadlock this test; completion plus
    // exact conservation is the assertion.
    const ROUNDS: u64 = 50;
    const THREADS: u64 = 4;
    let gate = Backpressure::new(2);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    let credit = gate.acquire().expect("gate is never closed here");
                    std::thread::yield_now();
                    drop(credit);
                }
            });
        }
    });
    assert_eq!(gate.granted(), THREADS * ROUNDS);
    assert_eq!(gate.returned(), THREADS * ROUNDS);
    assert_eq!(gate.outstanding(), 0);
    assert_eq!(gate.available(), 2, "all credits back in the pool");
}

#[test]
fn real_thread_close_releases_all_waiters() {
    // Exhaust the gate, park three blocking acquirers on it, close.
    // Every waiter must wake with a refusal — none may hang (the
    // shutdown-liveness contract).
    let gate = Backpressure::new(1);
    let held = gate.acquire();
    let waiters: Vec<_> = (0..3)
        .map(|_| {
            let gate = gate.clone();
            std::thread::spawn(move || gate.acquire().is_some())
        })
        .collect();
    // give the waiters time to actually block on the empty gate
    std::thread::sleep(std::time::Duration::from_millis(20));
    gate.close();
    for h in waiters {
        assert!(!h.join().unwrap(), "close must refuse every waiter");
    }
    // the in-flight credit still comes home after close
    drop(held);
    assert_eq!(gate.outstanding(), 0);
}
