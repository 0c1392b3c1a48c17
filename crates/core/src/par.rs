//! Parallel in-memory skyline: partition → local skylines → merge.
//!
//! Correctness rests on a simple algebraic fact: for any partition
//! `R = R₁ ∪ … ∪ R_k`, `sky(R) = sky(sky(R₁) ∪ … ∪ sky(R_k))` — a tuple
//! dominated in `R` is dominated by some skyline tuple of the partition
//! holding its dominator (dominance is transitive). Local skylines run on
//! scoped threads; the (small) union gets one final SFS pass.
//!
//! This is the natural multi-core extension of the paper's
//! divide-and-conquer discussion, and the merge uses the same presorted
//! filter as everything else.

use crate::algo::{presort_indices, sfs, sfs_presorted, MemSortOrder};
use crate::keys::KeyMatrix;
use skyline_exec::{cancel, CancelToken};
use std::fmt;

/// Errors from the in-memory algorithm drivers ([`parallel_skyline`] and
/// friends).
#[derive(Debug)]
pub enum AlgoError {
    /// A worker thread panicked; the payload's message, when it was a
    /// string, is preserved.
    WorkerPanicked {
        /// Panic message of the failed worker, if one could be extracted.
        message: Option<String>,
    },
    /// A [`CancelToken`] tripped before the result was complete.
    Cancelled {
        /// Records fully processed before the trip was observed.
        records_processed: u64,
    },
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::WorkerPanicked { message: Some(m) } => {
                write!(f, "parallel skyline worker panicked: {m}")
            }
            AlgoError::WorkerPanicked { message: None } => {
                write!(f, "parallel skyline worker panicked")
            }
            AlgoError::Cancelled { records_processed } => {
                write!(f, "skyline cancelled after {records_processed} records")
            }
        }
    }
}

impl std::error::Error for AlgoError {}

/// [`cancel::poll_now`], reporting a trip in the in-memory drivers' type.
fn poll_now(token: Option<&CancelToken>, processed: u64) -> Result<(), AlgoError> {
    cancel::poll_now(token, processed).map_err(|_| AlgoError::Cancelled {
        records_processed: processed,
    })
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
}

/// Resolve a caller-supplied thread count: 0 means "use the machine",
/// anything else is clamped to `1..=64` (shared with the external sort's
/// knob so every `threads` parameter in the workspace resolves alike).
fn effective_threads(threads: usize) -> usize {
    skyline_exec::sort::effective_threads(threads)
}

/// Compute the skyline of `keys` using up to `threads` worker threads
/// (`0` = one per available core, via `std::thread::available_parallelism`).
/// Returns indices into `keys` (sorted ascending). Falls back to
/// single-threaded SFS for small inputs.
///
/// # Errors
/// Returns [`AlgoError::WorkerPanicked`] if any worker thread panicked;
/// the skyline for the unaffected partitions is discarded.
pub fn parallel_skyline(keys: &KeyMatrix, threads: usize) -> Result<Vec<usize>, AlgoError> {
    parallel_skyline_cancellable(keys, threads, None)
}

/// [`parallel_skyline`] with cooperative cancellation: the token is
/// checked before the partition phase, inside each worker before its
/// local skyline, and at the merge boundary.
///
/// # Errors
/// [`AlgoError::WorkerPanicked`] if any worker thread panicked;
/// [`AlgoError::Cancelled`] (with the number of input records whose
/// processing completed) when `cancel` trips at a check point.
pub fn parallel_skyline_cancellable(
    keys: &KeyMatrix,
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<usize>, AlgoError> {
    let n = keys.n();
    let threads = effective_threads(threads);
    poll_now(cancel, 0)?;
    if threads == 1 || n < 4 * threads || n < 1024 {
        let mut idx = sfs(keys, MemSortOrder::Entropy).indices;
        idx.sort_unstable();
        #[cfg(feature = "check-invariants")]
        crate::audit::assert_pairwise_incomparable(keys, &idx, "parallel_skyline/sequential");
        return Ok(idx);
    }
    let chunk = n.div_ceil(threads);
    let locals: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let mut handles: Vec<std::thread::ScopedJoinHandle<'_, Result<Vec<usize>, AlgoError>>> =
            Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                continue;
            }
            handles.push(scope.spawn(move || {
                // Worker-side check: a cancel raised after spawn aborts
                // the partition before its O(n log n) local work.
                poll_now(cancel, (lo as u64).min(n as u64))?;
                let rows: Vec<usize> = (lo..hi).collect();
                let sub = keys.select(&rows);
                Ok(sfs(&sub, MemSortOrder::Entropy)
                    .indices
                    .into_iter()
                    .map(|local| rows[local])
                    .collect::<Vec<usize>>())
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().map_err(|payload| AlgoError::WorkerPanicked {
                    message: panic_message(payload.as_ref()),
                })?
            })
            .collect::<Result<_, _>>()
    })?;

    // merge boundary: the union is materialized but the final filter has
    // not run — a natural cancellation point.
    poll_now(cancel, n as u64)?;

    // merge: skyline of the union of local skylines
    let union: Vec<usize> = locals.into_iter().flatten().collect();
    let sub = keys.select(&union);
    let order = presort_indices(&sub, MemSortOrder::Entropy);
    let mut out: Vec<usize> = sfs_presorted(&sub, &order)
        .indices
        .into_iter()
        .map(|local| union[local])
        .collect();
    out.sort_unstable();
    #[cfg(feature = "check-invariants")]
    crate::audit::assert_pairwise_incomparable(keys, &out, "parallel_skyline/merge");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::naive;
    use skyline_relation::gen::WorkloadSpec;

    fn uniform(n: usize, d: usize, seed: u64) -> KeyMatrix {
        KeyMatrix::new(d, WorkloadSpec::paper(n, seed).generate_keys(d))
    }

    fn par(km: &KeyMatrix, threads: usize) -> Vec<usize> {
        parallel_skyline(km, threads).expect("no worker should panic")
    }

    #[test]
    fn matches_oracle_small() {
        let km = uniform(500, 4, 9);
        assert_eq!(par(&km, 4), naive(&km).sorted().indices);
    }

    #[test]
    fn matches_sequential_at_scale() {
        let km = uniform(20_000, 5, 10);
        let mut seq = sfs(&km, MemSortOrder::Entropy).indices;
        seq.sort_unstable();
        for threads in [1, 2, 3, 8] {
            assert_eq!(par(&km, threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn duplicates_survive_across_partitions() {
        // identical maxima placed in different chunks: all must survive
        let mut rows = vec![vec![0.0, 0.0]; 5000];
        rows[10] = vec![9.0, 9.0];
        rows[4990] = vec![9.0, 9.0];
        let km = KeyMatrix::from_rows(&rows);
        let got = par(&km, 4);
        assert_eq!(got, vec![10, 4990]);
    }

    #[test]
    fn degenerate_thread_counts() {
        let km = uniform(2_000, 3, 11);
        let expect = par(&km, 1);
        assert_eq!(par(&km, 0), expect); // auto-detected parallelism
        assert_eq!(par(&km, 1000), expect); // clamped to 64
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let auto = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(effective_threads(0), auto.clamp(1, 64));
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(1000), 64);
    }

    #[test]
    fn empty_input() {
        let km = KeyMatrix::new(3, vec![]);
        assert!(par(&km, 4).is_empty());
    }
}
