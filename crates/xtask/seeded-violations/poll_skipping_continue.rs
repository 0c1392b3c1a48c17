//! Seeded violation: **cancel-liveness** (`continue` ahead of the poll).
//!
//! The loop in `drain_skipping` does poll its `CancelToken` — the flat
//! whole-loop scan is satisfied — but the tombstone `continue` jumps
//! back to the header without ever reaching the poll. A stream of
//! tombstones starves cancellation indefinitely. The recheck walks the
//! loop body in statement order up to its first poll and flags any
//! `continue` met on the way. `drain_polled` hoists the poll above
//! the skip and is clean on every path.

/// Seeded: the `continue` edge bypasses the poll.
fn drain_skipping(src: &mut Stream, token: &CancelToken, budget: usize) -> Result<(), AlgoError> {
    let mut n = 0;
    while let Some(r) = src.next() {
        if r.is_tombstone() {
            continue;
        }
        poll(Some(token), n)?;
        n += 1;
        consume(r, budget);
    }
    Ok(())
}

/// Compliant twin: poll first, then skip — every iteration observes
/// cancellation before any record-dependent branching.
fn drain_polled(src: &mut Stream, token: &CancelToken, budget: usize) -> Result<(), AlgoError> {
    let mut n = 0;
    while let Some(r) = src.next() {
        poll(Some(token), n)?;
        n += 1;
        if r.is_tombstone() {
            continue;
        }
        consume(r, budget);
    }
    Ok(())
}
