//! Run-time counters for skyline algorithms.
//!
//! The paper's analysis is in terms of *dominance comparisons* (the CPU
//! cost that makes BNL CPU-bound), *passes*, and *tuples/pages written to
//! temp files* (the "extra pages" I/O metric of Figures 10/14/15). These
//! counters are machine-independent, so the reproduction can exhibit the
//! paper's CPU-boundedness claims without depending on a 2002-era Athlon.
//!
//! Conservation law (checked by `tests/metrics_conservation.rs`): every
//! record an operator pulls from its *child* is eventually either emitted
//! or discarded — spilled records come back in a later pass — so
//! `emitted + discarded == input_records` once the operator drains, and
//! total fetches equal `input_records + temp_records`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters updated by a skyline operator while it runs.
#[derive(Debug, Default)]
pub struct SkylineMetrics {
    comparisons: AtomicU64,
    passes: AtomicU64,
    temp_records: AtomicU64,
    window_inserts: AtomicU64,
    discarded: AtomicU64,
    emitted: AtomicU64,
    input_records: AtomicU64,
    blocks_skipped: AtomicU64,
    lanes_compared: AtomicU64,
    batches: AtomicU64,
    rows_materialized: AtomicU64,
    bytes_moved: AtomicU64,
    bytes_exchanged: AtomicU64,
    exchange_frames: AtomicU64,
    pruned_by_representatives: AtomicU64,
}

impl SkylineMetrics {
    /// Fresh zeroed counters behind an `Arc` (shared with the operator).
    pub fn shared() -> Arc<Self> {
        Arc::new(SkylineMetrics::default())
    }

    /// Add `n` dominance comparisons.
    #[inline]
    pub fn add_comparisons(&self, n: u64) {
        self.comparisons.fetch_add(n, Ordering::Relaxed);
    }

    /// Record the start of a filter pass.
    #[inline]
    pub fn add_pass(&self) {
        self.passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one record written to a temp file.
    #[inline]
    pub fn add_temp_record(&self) {
        self.temp_records.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one window insertion.
    #[inline]
    pub fn add_window_insert(&self) {
        self.window_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one tuple discarded as dominated.
    #[inline]
    pub fn add_discarded(&self) {
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one tuple emitted as skyline.
    #[inline]
    pub fn add_emitted(&self) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one record fetched from the operator's child (first-pass
    /// input only — temp-file refetches count as `temp_records` instead).
    #[inline]
    pub fn add_input(&self) {
        self.input_records.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one column-major key batch formed by the batch pipeline
    /// (scan, filter, or merge — each stage counts the batches it builds).
    #[inline]
    pub fn add_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one full-width record materialized from its row id — the
    /// batch path's late-materialization point. The row path never calls
    /// this; its derived equivalents are computed by the bench gate.
    #[inline]
    pub fn add_rows_materialized(&self) {
        self.rows_materialized.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` bytes crossing a stage boundary (scan output, entries
    /// into/out of the sort, spill traffic, materialized rows). A
    /// machine-independent model of data movement, not disk I/O.
    #[inline]
    pub fn add_bytes_moved(&self, n: u64) {
        self.bytes_moved.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` bytes crossing the shard exchange (frame headers plus
    /// payload, in either direction: local-skyline uploads and
    /// representative broadcasts). Disjoint from `bytes_moved`, which
    /// models intra-node stage traffic.
    #[inline]
    pub fn add_bytes_exchanged(&self, n: u64) {
        self.bytes_exchanged.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one length-prefixed frame crossing the shard exchange.
    #[inline]
    pub fn add_exchange_frame(&self) {
        self.exchange_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one shard-local skyline candidate discarded because a
    /// broadcast representative dominates it — movement saved before the
    /// candidate ever reaches the exchange.
    #[inline]
    pub fn add_pruned_by_representative(&self) {
        self.pruned_by_representatives
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record the block-kernel side of a probe: blocks pruned whole by
    /// summaries/bounds and window-entry lanes screened (every lane of a
    /// non-skipped block, tested once by level code). Scalar-kernel
    /// probes add nothing here.
    #[inline]
    pub fn add_block_stats(&self, blocks_skipped: u64, lanes_compared: u64) {
        self.blocks_skipped
            .fetch_add(blocks_skipped, Ordering::Relaxed);
        self.lanes_compared
            .fetch_add(lanes_compared, Ordering::Relaxed);
    }

    /// Reset all counters.
    pub fn reset(&self) {
        for c in [
            &self.comparisons,
            &self.passes,
            &self.temp_records,
            &self.window_inserts,
            &self.discarded,
            &self.emitted,
            &self.input_records,
            &self.blocks_skipped,
            &self.lanes_compared,
            &self.batches,
            &self.rows_materialized,
            &self.bytes_moved,
            &self.bytes_exchanged,
            &self.exchange_frames,
            &self.pruned_by_representatives,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            comparisons: self.comparisons.load(Ordering::Relaxed),
            passes: self.passes.load(Ordering::Relaxed),
            temp_records: self.temp_records.load(Ordering::Relaxed),
            window_inserts: self.window_inserts.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            emitted: self.emitted.load(Ordering::Relaxed),
            input_records: self.input_records.load(Ordering::Relaxed),
            blocks_skipped: self.blocks_skipped.load(Ordering::Relaxed),
            lanes_compared: self.lanes_compared.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            rows_materialized: self.rows_materialized.load(Ordering::Relaxed),
            bytes_moved: self.bytes_moved.load(Ordering::Relaxed),
            bytes_exchanged: self.bytes_exchanged.load(Ordering::Relaxed),
            exchange_frames: self.exchange_frames.load(Ordering::Relaxed),
            pruned_by_representatives: self.pruned_by_representatives.load(Ordering::Relaxed),
        }
    }

    /// Fold a worker's snapshot into these counters — how the parallel
    /// filter surfaces per-worker metrics through the caller's aggregate.
    pub fn absorb(&self, s: &MetricsSnapshot) {
        self.comparisons.fetch_add(s.comparisons, Ordering::Relaxed);
        self.passes.fetch_add(s.passes, Ordering::Relaxed);
        self.temp_records
            .fetch_add(s.temp_records, Ordering::Relaxed);
        self.window_inserts
            .fetch_add(s.window_inserts, Ordering::Relaxed);
        self.discarded.fetch_add(s.discarded, Ordering::Relaxed);
        self.emitted.fetch_add(s.emitted, Ordering::Relaxed);
        self.input_records
            .fetch_add(s.input_records, Ordering::Relaxed);
        self.blocks_skipped
            .fetch_add(s.blocks_skipped, Ordering::Relaxed);
        self.lanes_compared
            .fetch_add(s.lanes_compared, Ordering::Relaxed);
        self.batches.fetch_add(s.batches, Ordering::Relaxed);
        self.rows_materialized
            .fetch_add(s.rows_materialized, Ordering::Relaxed);
        self.bytes_moved.fetch_add(s.bytes_moved, Ordering::Relaxed);
        self.bytes_exchanged
            .fetch_add(s.bytes_exchanged, Ordering::Relaxed);
        self.exchange_frames
            .fetch_add(s.exchange_frames, Ordering::Relaxed);
        self.pruned_by_representatives
            .fetch_add(s.pruned_by_representatives, Ordering::Relaxed);
    }
}

/// Immutable copy of [`SkylineMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Dominance comparisons performed.
    pub comparisons: u64,
    /// Filter passes run.
    pub passes: u64,
    /// Records written to temp files (across all passes).
    pub temp_records: u64,
    /// Window insertions.
    pub window_inserts: u64,
    /// Tuples discarded as dominated.
    pub discarded: u64,
    /// Tuples emitted as skyline.
    pub emitted: u64,
    /// Records fetched from the operator's child (excludes temp refetches).
    pub input_records: u64,
    /// Window blocks pruned whole by the columnar kernel's summaries /
    /// score bounds (zero on scalar-kernel runs).
    pub blocks_skipped: u64,
    /// Window-entry lanes screened by the columnar kernel: the population
    /// of every non-skipped block, each tested once by level code — not
    /// the (smaller, uncounted) number that reached an exact f64 compare.
    /// Zero on scalar-kernel runs.
    pub lanes_compared: u64,
    /// Column-major key batches formed (zero on row-path runs).
    pub batches: u64,
    /// Full-width records materialized from row ids at emission — the
    /// batch path's late-materialization count (zero on row-path runs).
    pub rows_materialized: u64,
    /// Modeled bytes crossing stage boundaries (zero on row-path runs;
    /// the bench gate derives the row path's equivalent analytically).
    pub bytes_moved: u64,
    /// Bytes crossing the shard exchange — frame headers plus payload for
    /// local-skyline uploads and representative broadcasts (zero on
    /// single-node runs).
    pub bytes_exchanged: u64,
    /// Length-prefixed frames crossing the shard exchange (zero on
    /// single-node runs).
    pub exchange_frames: u64,
    /// Shard-local skyline candidates pruned by broadcast representatives
    /// before serialization (zero unless representative filtering ran).
    pub pruned_by_representatives: u64,
}

impl MetricsSnapshot {
    /// Component-wise sum — the exact-aggregation identity the parallel
    /// filter is tested against (`aggregate == Σ workers + merge`).
    #[must_use]
    pub fn plus(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            comparisons: self.comparisons + other.comparisons,
            passes: self.passes + other.passes,
            temp_records: self.temp_records + other.temp_records,
            window_inserts: self.window_inserts + other.window_inserts,
            discarded: self.discarded + other.discarded,
            emitted: self.emitted + other.emitted,
            input_records: self.input_records + other.input_records,
            blocks_skipped: self.blocks_skipped + other.blocks_skipped,
            lanes_compared: self.lanes_compared + other.lanes_compared,
            batches: self.batches + other.batches,
            rows_materialized: self.rows_materialized + other.rows_materialized,
            bytes_moved: self.bytes_moved + other.bytes_moved,
            bytes_exchanged: self.bytes_exchanged + other.bytes_exchanged,
            exchange_frames: self.exchange_frames + other.exchange_frames,
            pruned_by_representatives: self.pruned_by_representatives
                + other.pruned_by_representatives,
        }
    }

    /// Every counter as a `(name, value)` pair, in declaration order —
    /// what the bench gate writes per run. The destructure has no `..`,
    /// so a field added to the snapshot does not compile until it is
    /// reported here.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 15] {
        let MetricsSnapshot {
            comparisons,
            passes,
            temp_records,
            window_inserts,
            discarded,
            emitted,
            input_records,
            blocks_skipped,
            lanes_compared,
            batches,
            rows_materialized,
            bytes_moved,
            bytes_exchanged,
            exchange_frames,
            pruned_by_representatives,
        } = *self;
        [
            ("comparisons", comparisons),
            ("passes", passes),
            ("temp_records", temp_records),
            ("window_inserts", window_inserts),
            ("discarded", discarded),
            ("emitted", emitted),
            ("input_records", input_records),
            ("blocks_skipped", blocks_skipped),
            ("lanes_compared", lanes_compared),
            ("batches", batches),
            ("rows_materialized", rows_materialized),
            ("bytes_moved", bytes_moved),
            ("bytes_exchanged", bytes_exchanged),
            ("exchange_frames", exchange_frames),
            ("pruned_by_representatives", pruned_by_representatives),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = SkylineMetrics::shared();
        m.add_comparisons(10);
        m.add_comparisons(5);
        m.add_pass();
        m.add_temp_record();
        m.add_window_insert();
        m.add_discarded();
        m.add_emitted();
        m.add_input();
        m.add_block_stats(3, 12);
        m.add_batch();
        m.add_rows_materialized();
        m.add_bytes_moved(96);
        m.add_bytes_exchanged(80);
        m.add_exchange_frame();
        m.add_pruned_by_representative();
        let s = m.snapshot();
        assert_eq!(s.comparisons, 15);
        assert_eq!(s.passes, 1);
        assert_eq!(s.temp_records, 1);
        assert_eq!(s.window_inserts, 1);
        assert_eq!(s.discarded, 1);
        assert_eq!(s.emitted, 1);
        assert_eq!(s.input_records, 1);
        assert_eq!(s.blocks_skipped, 3);
        assert_eq!(s.lanes_compared, 12);
        assert_eq!(s.batches, 1);
        assert_eq!(s.rows_materialized, 1);
        assert_eq!(s.bytes_moved, 96);
        assert_eq!(s.bytes_exchanged, 80);
        assert_eq!(s.exchange_frames, 1);
        assert_eq!(s.pruned_by_representatives, 1);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn absorb_and_plus_agree() {
        let a = MetricsSnapshot {
            comparisons: 3,
            passes: 1,
            temp_records: 2,
            window_inserts: 4,
            discarded: 5,
            emitted: 6,
            input_records: 11,
            blocks_skipped: 8,
            lanes_compared: 40,
            batches: 2,
            rows_materialized: 6,
            bytes_moved: 512,
            bytes_exchanged: 64,
            exchange_frames: 1,
            pruned_by_representatives: 2,
        };
        let b = MetricsSnapshot {
            comparisons: 7,
            passes: 0,
            temp_records: 1,
            window_inserts: 2,
            discarded: 3,
            emitted: 4,
            input_records: 7,
            blocks_skipped: 2,
            lanes_compared: 9,
            batches: 1,
            rows_materialized: 4,
            bytes_moved: 128,
            bytes_exchanged: 32,
            exchange_frames: 3,
            pruned_by_representatives: 5,
        };
        let m = SkylineMetrics::shared();
        m.absorb(&a);
        m.absorb(&b);
        assert_eq!(m.snapshot(), a.plus(&b));
    }
}
