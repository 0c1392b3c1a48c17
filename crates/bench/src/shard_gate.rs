//! The strategy × shard-count matrix of the counter gate.
//!
//! Runs the seed-2003 paper workload through
//! [`skyline_core::planner::sharded_skyline_pipeline`] at every
//! (exchange strategy, shard count) and returns one [`Run`] each —
//! every aggregate [`skyline_core::MetricsSnapshot`] counter, the
//! coordinator-side comparisons, the union cardinality the coordinator
//! merged, per-shard comparisons and bytes serialized
//! (`shard_comparisons[i]`, `shard_bytes_exchanged[i]`), the skyline's
//! size and checksum, and the wall time — plus a `single-node` run, the
//! batch pipeline's answer every sharded run must reproduce bit for bit
//! (`sky(R) = sky(sky(R₁) ∪ … ∪ sky(R_N))` holds for any partition, so
//! routing may change costs but never the answer).
//!
//! The laws over these runs — same answer everywhere, grid and
//! representative strictly below naive on bytes exchanged and
//! coordinator comparisons at every shard count, representative runs
//! actually pruning — live in [`crate::gate::LAWS`]. Two identities are
//! asserted here, per run: the caller's counters equal the sum of every
//! shard worker's plus the coordinator's, and the exchange meter agrees
//! with the `bytes_exchanged` / `exchange_frames` counters it mirrors.

use crate::gate::{answer_of, named, sum, Run, GATE_SEED};
use crate::harness::Dataset;
use skyline_core::planner::{batch_skyline_pipeline, sharded_skyline_pipeline};
use skyline_core::{BatchConfig, ShardConfig, ShardStrategy, SkylineMetrics, SkylineSpec};
use skyline_storage::Disk;
use std::sync::Arc;
use std::time::Instant;

/// The three exchange strategies, in run order.
pub const STRATEGIES: &[ShardStrategy] = &[
    ShardStrategy::Naive,
    ShardStrategy::Grid,
    ShardStrategy::Representative,
];

/// One shard-gate section: a workload size and a shard-count grid.
#[derive(Debug, Clone, Copy)]
pub struct ShardGateSpec {
    /// Section name.
    pub label: &'static str,
    /// Tuple count.
    pub n: usize,
    /// Skyline dimensions (all-max over the first `d` attributes).
    pub d: usize,
    /// Per-shard filter window budget in pages.
    pub window_pages: usize,
    /// Shard counts to sweep, ascending.
    pub shards: &'static [usize],
}

/// The acceptance-criteria grid: d=7, n=100k, shards 2/4/8.
pub const FULL_SHARD: ShardGateSpec = ShardGateSpec {
    label: "shard-full",
    n: 100_000,
    d: 7,
    window_pages: 64,
    shards: &[2, 4, 8],
};

/// A CI-sized section that finishes in seconds.
pub const SMOKE_SHARD: ShardGateSpec = ShardGateSpec {
    label: "shard-smoke",
    n: 20_000,
    d: 7,
    window_pages: 16,
    shards: &[2, 4, 8],
};

/// One sharded run, with the exact-aggregation and exchange-meter
/// identities asserted to the counter.
fn shard_run(
    ds: &Dataset,
    spec: &ShardGateSpec,
    strategy: ShardStrategy,
    shards: usize,
    base_pages: u64,
) -> Run {
    let config = format!("{} shards={shards}", strategy.name());
    let metrics = SkylineMetrics::shared();
    let t0 = Instant::now();
    let outcome = sharded_skyline_pipeline(
        Arc::clone(&ds.heap),
        &ds.layout,
        &SkylineSpec::max_all(spec.d),
        ShardConfig::new(shards, strategy, spec.window_pages),
        Arc::clone(&ds.disk) as Arc<dyn Disk>,
        Arc::clone(&metrics),
        None,
    )
    .expect("sharded skyline");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // exact aggregation: caller metrics == Σ shard workers + coordinator
    let agg = metrics.snapshot();
    let shard_metrics: Vec<_> = outcome.shard_stats.iter().map(|s| s.metrics).collect();
    assert_eq!(
        agg,
        sum(&shard_metrics).plus(&outcome.coordinator_metrics),
        "aggregate metrics must equal Σ shards + coordinator ({config})"
    );
    // the exchange meter and the metrics counters watch the same wire
    assert_eq!(
        (agg.bytes_exchanged, agg.exchange_frames),
        (
            outcome.exchange.bytes_exchanged,
            outcome.exchange.exchange_frames
        ),
        "exchange meter must agree with the counters ({config})"
    );

    let (skyline, checksum) = answer_of(&outcome.skyline, ds, spec.d);
    drop(outcome.skyline);
    assert_eq!(
        ds.disk.allocated_pages(),
        base_pages,
        "gate run must not leak pages ({config})"
    );

    let mut counters = named(agg.counters().into_iter().chain([
        (
            "coordinator_comparisons",
            outcome.coordinator_metrics.comparisons,
        ),
        ("union_entries", outcome.union_entries),
        ("skyline", skyline),
        ("checksum", checksum),
    ]));
    for (i, m) in shard_metrics.iter().enumerate() {
        counters.push((format!("shard_comparisons[{i}]"), m.comparisons));
        counters.push((format!("shard_bytes_exchanged[{i}]"), m.bytes_exchanged));
    }
    Run {
        section: spec.label,
        config,
        counters,
        timings: vec![("wall_ms", wall_ms)],
    }
}

/// Run one section of the shard matrix: the single-node baseline, then
/// every strategy at every shard count.
///
/// # Panics
/// Panics when a pipeline stage fails, when a run leaks pages, or when
/// the exact-aggregation / exchange-meter identities break — a wrong
/// answer must not produce a plausible-looking run.
pub fn run_shard_section(spec: &ShardGateSpec) -> Vec<Run> {
    let ds = Dataset::paper(spec.n, GATE_SEED);
    let base_pages = ds.disk.allocated_pages();

    // single-node batch pipeline: the oracle every sharded run must hit
    let outcome = batch_skyline_pipeline(
        Arc::clone(&ds.heap),
        &ds.layout,
        &SkylineSpec::max_all(spec.d),
        BatchConfig::new(spec.window_pages),
        crate::gate::SORT_PAGES,
        1,
        Arc::clone(&ds.disk) as Arc<dyn Disk>,
        SkylineMetrics::shared(),
        None,
        None,
    )
    .expect("single-node baseline");
    let (skyline, checksum) = answer_of(&outcome.skyline, &ds, spec.d);
    drop(outcome.skyline);

    let mut runs = vec![Run {
        section: spec.label,
        config: "single-node".to_string(),
        counters: named([("skyline", skyline), ("checksum", checksum)]),
        timings: Vec::new(),
    }];
    for &strategy in STRATEGIES {
        for &s in spec.shards {
            runs.push(shard_run(&ds, spec, strategy, s, base_pages));
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::check_laws;

    const TINY: ShardGateSpec = ShardGateSpec {
        label: "shard-tiny",
        n: 4_000,
        d: 5,
        window_pages: 4,
        shards: &[2, 3],
    };

    #[test]
    fn section_obeys_the_laws_and_repeats_exactly() {
        let runs = run_shard_section(&TINY);
        assert_eq!(runs.len(), 1 + STRATEGIES.len() * 2);
        assert_eq!(check_laws(&runs), Vec::<String>::new());
        let grid3 = runs
            .iter()
            .find(|r| r.config == "grid shards=3")
            .expect("grid run");
        assert!(grid3.get("shard_comparisons[2]").is_some());
        assert!(grid3.get("shard_comparisons[3]").is_none());
        // determinism: a second run reproduces every counter
        let again = run_shard_section(&TINY);
        for (a, b) in runs.iter().zip(&again) {
            assert_eq!(a.counters, b.counters, "{}", a.config);
        }
    }

    #[test]
    fn a_forged_regression_breaks_the_naive_law() {
        let mut runs = run_shard_section(&TINY);
        let naive_bytes = runs[1].get("bytes_exchanged").expect("naive shards=2");
        let grid = runs
            .iter_mut()
            .find(|r| r.config == "grid shards=2")
            .expect("grid run");
        for (name, value) in &mut grid.counters {
            if name == "bytes_exchanged" {
                *value = naive_bytes;
            }
        }
        let bad = check_laws(&runs).join("\n");
        assert!(
            bad.contains("shard-tiny/grid shards=2/bytes_exchanged") && bad.contains("naive"),
            "{bad}"
        );
    }
}
