//! Seeded violation: **counter-conservation**.
//!
//! A miniature `SkylineMetrics` with an `orphans` counter that never
//! reaches `MetricsSnapshot` (or the snapshot/absorb/reset plumbing).
//! The self-test maps this file to `crates/core/src/metrics.rs` and
//! asserts the hole is flagged at each of the four hops.

pub struct SkylineMetrics {
    comparisons: AtomicU64,
    window_inserts: AtomicU64,
    orphans: AtomicU64,
}

pub struct MetricsSnapshot {
    pub comparisons: u64,
    pub window_inserts: u64,
}

impl SkylineMetrics {
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            comparisons: self.comparisons.load(Ordering::Relaxed),
            window_inserts: self.window_inserts.load(Ordering::Relaxed),
        }
    }

    pub fn absorb(&self, s: &MetricsSnapshot) {
        self.comparisons.fetch_add(s.comparisons, Ordering::Relaxed);
        self.window_inserts.fetch_add(s.window_inserts, Ordering::Relaxed);
    }

    pub fn reset(&self) {
        self.comparisons.store(0, Ordering::Relaxed);
        self.window_inserts.store(0, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    pub fn plus(&self, o: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            comparisons: self.comparisons + o.comparisons,
            window_inserts: self.window_inserts + o.window_inserts,
        }
    }
}
