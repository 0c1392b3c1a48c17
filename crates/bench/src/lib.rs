#![warn(clippy::missing_errors_doc, clippy::missing_panics_doc)]

//! Experiment harness reproducing the paper's evaluation (§5).
//!
//! Every figure/table has a binary in `src/bin/` built from the runners
//! here. All experiments share the paper's setup: `n` 100-byte tuples
//! (ten i32 attributes + 60-byte string, 40/page), uniform independent
//! values over ±MAXINT, skylines over the first `d` attributes, windows
//! measured in 4096-byte pages, and I/O reported as *extra pages* — temp
//! pages written (and re-read) by the filter phase beyond the initial
//! scan. The sort phase is timed and accounted separately, exactly as the
//! paper schedules it.
//!
//! Scale: the paper uses n = 1,000,000. Binaries default to
//! `SKYLINE_SCALE` or `--scale` (default 100,000 so the whole suite runs
//! in minutes); pass `--scale 1000000` for the paper's full size. Shapes
//! (who wins, where lines flatten or cross) are scale-stable.

pub mod crit;
pub mod gate;
pub mod harness;
pub mod report;
pub mod server_gate;
pub mod shard_gate;
pub mod sweeps;

pub use harness::*;
pub use report::*;
pub use sweeps::*;
