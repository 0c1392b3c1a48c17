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
//! total fetches equal `input_records + temp_records`. Where an
//! elimination filter sits ahead of the sort, the keys it drops never
//! reach an operator: `eliminated + input_records == n`.

use crate::dominance_block::ProbeCost;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The one list of counters. Everything a counter must survive on its
/// way from an operator to a report — a `SkylineMetrics` atomic, a
/// `MetricsSnapshot` field, and the `reset`/`snapshot`/`absorb`/`plus`/
/// `counters` hops between them — is generated from it, so a counter
/// cannot be dropped at one hop. The doc comment on each entry becomes
/// the snapshot field's.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Shared counters updated by a skyline operator while it runs.
        #[derive(Debug, Default)]
        pub struct SkylineMetrics {
            $($name: AtomicU64,)*
        }

        /// Immutable copy of [`SkylineMetrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl SkylineMetrics {
            /// Reset all counters.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }

            /// Point-in-time copy.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }

            /// Fold a worker's snapshot into these counters — how the
            /// parallel filter surfaces per-worker metrics through the
            /// caller's aggregate.
            pub fn absorb(&self, s: &MetricsSnapshot) {
                $(self.$name.fetch_add(s.$name, Ordering::Relaxed);)*
            }
        }

        impl MetricsSnapshot {
            /// Component-wise sum — the exact-aggregation identity the
            /// parallel filter is tested against (`aggregate == Σ workers
            /// + merge`).
            #[must_use]
            pub fn plus(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name + other.$name,)*
                }
            }

            /// Every counter as a `(name, value)` pair, in declaration
            /// order — what the bench gate writes per run.
            #[must_use]
            pub fn counters(&self) -> [(&'static str, u64); [$(stringify!($name)),*].len()] {
                [$((stringify!($name), self.$name),)*]
            }
        }
    };
}

counters! {
    /// Dominance comparisons performed.
    comparisons,
    /// Filter passes run.
    passes,
    /// Records written to temp files (across all passes).
    temp_records,
    /// Window insertions.
    window_inserts,
    /// Tuples discarded as dominated.
    discarded,
    /// Tuples emitted as skyline.
    emitted,
    /// Records fetched from the operator's child (excludes temp refetches).
    input_records,
    /// Window blocks pruned whole by the columnar kernel's summaries /
    /// score bounds (zero on scalar-kernel runs).
    blocks_skipped,
    /// Window-entry lanes screened by the columnar kernel: the population
    /// of every non-skipped block, each tested once by level code — not
    /// the (smaller, uncounted) number that reached an exact f64 compare.
    /// Zero on scalar-kernel runs.
    lanes_compared,
    /// Column-major key batches formed (zero on row-path runs).
    batches,
    /// Full-width records materialized from row ids at emission — the
    /// batch path's late-materialization count (zero on row-path runs).
    rows_materialized,
    /// Modeled bytes crossing stage boundaries (zero on row-path runs;
    /// the bench gate derives the row path's equivalent analytically).
    bytes_moved,
    /// Bytes crossing the shard exchange — frame headers plus payload for
    /// local-skyline uploads and representative broadcasts (zero on
    /// single-node runs).
    bytes_exchanged,
    /// Length-prefixed frames crossing the shard exchange (zero on
    /// single-node runs).
    exchange_frames,
    /// Shard-local skyline candidates pruned by broadcast representatives
    /// before serialization (zero unless representative filtering ran).
    pruned_by_representatives,
    /// Keys the elimination filter dropped ahead of the sort — they never
    /// became `input_records` of any operator (zero where no filter ran).
    eliminated,
}

impl MetricsSnapshot {
    /// Add one window probe's cost — for an operator that keeps its
    /// per-record counters in a plain snapshot and hands them to the
    /// shared metrics ([`SkylineMetrics::absorb`]) once per pass or chunk.
    #[inline]
    pub fn add_probe(&mut self, cost: ProbeCost) {
        self.comparisons += cost.comparisons;
        self.blocks_skipped += cost.blocks_skipped;
        self.lanes_compared += cost.lanes;
    }
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

    /// Record one key dropped by the elimination filter before the sort.
    #[inline]
    pub fn add_eliminated(&self) {
        self.eliminated.fetch_add(1, Ordering::Relaxed);
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
        m.add_eliminated();
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
        assert_eq!(s.eliminated, 1);
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
            eliminated: 9,
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
            eliminated: 1,
        };
        let m = SkylineMetrics::shared();
        m.absorb(&a);
        m.absorb(&b);
        assert_eq!(m.snapshot(), a.plus(&b));
    }

    /// The hops are generated from the list: a list with a counter the
    /// real one lacks gets the whole plumbing for it, no other edit.
    mod extended {
        use std::sync::atomic::{AtomicU64, Ordering};

        counters! {
            /// A counter the real list has.
            passes,
            /// A counter nobody plumbed by hand.
            brand_new,
        }

        #[test]
        fn a_listed_counter_reaches_every_hop() {
            let s = MetricsSnapshot {
                passes: 2,
                brand_new: 5,
            };
            let m = SkylineMetrics::default();
            m.absorb(&s);
            m.absorb(&s);
            assert_eq!(m.snapshot(), s.plus(&s));
            assert_eq!(m.snapshot().counters(), [("passes", 4), ("brand_new", 10)]);
            m.reset();
            assert_eq!(m.snapshot(), MetricsSnapshot::default());
        }
    }
}
