//! Batch-equivalence differential suite: the columnar pipeline
//! ([`batch_skyline_pipeline`]) against the row pipeline
//! ([`parallel_skyline_pipeline`]) and the naive O(n²) oracle across
//! the paper's workload grid — all five distributions, d ∈ 2..=10,
//! MIN/MAX criterion mixes, and thread counts 1/2/4 — plus the record
//! path's external strata against the in-memory strata.
//!
//! The oracle orients every row through [`SkylineSpec::key_of`], so the
//! same naive maximum test covers pure-MAX and mixed MIN/MAX specs.
//! Small domains force duplicate rows, stressing the batch merge's
//! equal-key tie handling exactly like the row suite does.

use skyline::core::algo::{self, naive, MemSortOrder};
use skyline::core::planner::{batch_skyline_pipeline, load_heap, parallel_skyline_pipeline};
use skyline::core::strata::strata_external;
use skyline::core::{
    BatchConfig, Criterion, KeyMatrix, MetricsSnapshot, SfsConfig, SkylineMetrics, SkylineSpec,
    SortOrder,
};
use skyline::relation::gen::{Distribution, WorkloadSpec};
use skyline::relation::RecordLayout;
use skyline::storage::{Disk, HeapFile, MemDisk};
use std::sync::Arc;

const DISTS: &[(&str, Distribution)] = &[
    ("uniform", Distribution::UniformIndependent),
    ("correlated", Distribution::Correlated { jitter: 0.05 }),
    (
        "anticorrelated",
        Distribution::AntiCorrelated { jitter: 0.05 },
    ),
    (
        "clustered",
        Distribution::Clustered {
            clusters: 4,
            spread: 0.1,
        },
    ),
    ("skewed", Distribution::Skewed { exponent: 4.0 }),
];

/// `a₀ MAX, a₁ MIN, a₂ MAX, …` — the mixed-direction spec of the grid.
fn alternating_spec(d: usize) -> SkylineSpec {
    SkylineSpec {
        criteria: (0..d)
            .map(|i| {
                if i % 2 == 0 {
                    Criterion::max(i)
                } else {
                    Criterion::min(i)
                }
            })
            .collect(),
        diff: Vec::new(),
    }
}

fn make_records(dist: Distribution, d: usize, n: usize, seed: u64) -> (RecordLayout, Vec<Vec<u8>>) {
    let w = WorkloadSpec {
        dist,
        domain: (0, 49), // tiny domain: duplicate rows are guaranteed
        layout: RecordLayout::new(d, 0),
        ..WorkloadSpec::paper(n, seed)
    };
    let records = w.generate();
    (w.layout, records)
}

fn load(disk: &Arc<MemDisk>, layout: &RecordLayout, records: &[Vec<u8>]) -> Arc<HeapFile> {
    let heap = load_heap(
        Arc::clone(disk) as Arc<dyn Disk>,
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .unwrap();
    Arc::new(heap)
}

/// Sorted value-row multiset of the records — the canonical fingerprint
/// every driver is compared on.
fn value_rows<'a, I>(layout: &RecordLayout, d: usize, records: I) -> Vec<Vec<i32>>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut rows: Vec<Vec<i32>> = records
        .into_iter()
        .map(|r| (0..d).map(|i| layout.attr(r, i)).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// Oriented key matrix: every record through `spec.key_of`, so MIN
/// criteria become MAX in key space and one naive oracle covers both.
fn oriented_keys(layout: &RecordLayout, spec: &SkylineSpec, records: &[Vec<u8>]) -> KeyMatrix {
    let d = spec.dims();
    let mut flat = Vec::with_capacity(records.len() * d);
    let mut key = Vec::with_capacity(d);
    for r in records {
        spec.key_of(layout, r, &mut key);
        flat.extend_from_slice(&key);
    }
    KeyMatrix::new(d, flat)
}

fn oracle_rows(layout: &RecordLayout, spec: &SkylineSpec, records: &[Vec<u8>]) -> Vec<Vec<i32>> {
    let km = oriented_keys(layout, spec, records);
    value_rows(
        layout,
        spec.dims(),
        naive(&km).indices.iter().map(|&i| records[i].as_slice()),
    )
}

/// Row-pipeline reference: threaded nested presort + partitioned filter
/// at `threads=1`.
fn row_rows(layout: &RecordLayout, spec: &SkylineSpec, records: &[Vec<u8>]) -> Vec<Vec<i32>> {
    let disk = MemDisk::shared();
    let heap = load(&disk, layout, records);
    let outcome = parallel_skyline_pipeline(
        heap,
        *layout,
        spec.clone(),
        SortOrder::Nested,
        None,
        SfsConfig::new(2),
        16,
        1,
        Arc::clone(&disk) as Arc<dyn Disk>,
        SkylineMetrics::shared(),
        None,
        None,
    )
    .unwrap();
    value_rows(
        layout,
        spec.dims(),
        outcome
            .skyline
            .read_all()
            .unwrap()
            .iter()
            .map(Vec::as_slice),
    )
}

/// Batch-pipeline run at `threads`, with small batches (64 rows) so even
/// these tiny workloads cross several batch boundaries. Returns the
/// skyline fingerprint after asserting the stage conservation laws.
fn batch_rows(
    layout: &RecordLayout,
    spec: &SkylineSpec,
    records: &[Vec<u8>],
    threads: usize,
    label: &str,
) -> Vec<Vec<i32>> {
    let disk = MemDisk::shared();
    let heap = load(&disk, layout, records);
    let metrics = SkylineMetrics::shared();
    let outcome = batch_skyline_pipeline(
        heap,
        layout,
        spec,
        BatchConfig::new(2).with_batch_rows(64),
        16,
        threads,
        Arc::clone(&disk) as Arc<dyn Disk>,
        Arc::clone(&metrics),
        None,
        None,
    )
    .unwrap();
    // conservation: every worker settles its stratum, and the late
    // materialization touches exactly the skyline rows
    for (w, s) in outcome.worker_metrics.iter().enumerate() {
        assert_eq!(
            s.emitted + s.discarded,
            s.input_records,
            "{label}: worker {w} settles"
        );
    }
    let agg = metrics.snapshot();
    assert_eq!(
        agg.rows_materialized,
        outcome.skyline.len(),
        "{label}: rows_materialized == skyline"
    );
    assert!(agg.batches > 0, "{label}: no batches formed");
    assert!(agg.bytes_moved > 0, "{label}: no bytes metered");
    let rows = value_rows(
        layout,
        spec.dims(),
        outcome
            .skyline
            .read_all()
            .unwrap()
            .iter()
            .map(Vec::as_slice),
    );
    drop(outcome.skyline);
    assert_eq!(disk.allocated_pages(), 0, "{label}: leaked pages");
    rows
}

#[test]
fn batch_pipeline_matches_row_and_oracle_across_the_grid() {
    for &(dname, dist) in DISTS {
        for d in 2..=10usize {
            let (layout, records) = make_records(dist, d, 120, 0x9_2003 + d as u64);
            for (sname, spec) in [
                ("max-all", SkylineSpec::max_all(d)),
                ("min-max-mix", alternating_spec(d)),
            ] {
                let want = oracle_rows(&layout, &spec, &records);
                let row = row_rows(&layout, &spec, &records);
                assert_eq!(row, want, "row pipeline vs oracle: {dname} d={d} {sname}");
                for threads in [1usize, 2, 4] {
                    let label = format!("{dname} d={d} {sname} t={threads}");
                    let batch = batch_rows(&layout, &spec, &records, threads, &label);
                    assert_eq!(batch, want, "batch pipeline vs oracle: {label}");
                }
            }
        }
    }
}

/// The record path's strata (iterated SFS with a rest file) against
/// the in-memory simultaneous strata on the same rows.
#[test]
fn external_strata_match_in_memory_strata_across_specs() {
    for &(dname, dist) in &[DISTS[0], DISTS[2]] {
        let d = 3;
        let (layout, records) = make_records(dist, d, 200, 0xA_2003);
        for (sname, spec) in [
            ("max-all", SkylineSpec::max_all(d)),
            ("min-max-mix", alternating_spec(d)),
        ] {
            let label = format!("{dname} {sname}");
            let km = oriented_keys(&layout, &spec, &records);
            let mem: Vec<Vec<Vec<i32>>> = algo::strata(&km, 3, MemSortOrder::Entropy)
                .0
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| value_rows(&layout, d, s.iter().map(|&i| records[i].as_slice())))
                .collect();
            let disk = MemDisk::shared();
            let ext = strata_external(
                load(&disk, &layout, &records),
                layout,
                &spec,
                3,
                2,
                16,
                SortOrder::Nested,
                None,
                Arc::clone(&disk) as Arc<dyn Disk>,
            )
            .unwrap();
            let ext: Vec<Vec<Vec<i32>>> = ext
                .strata
                .iter()
                .map(|f| value_rows(&layout, d, f.read_all().unwrap().iter().map(Vec::as_slice)))
                .collect();
            assert_eq!(ext, mem, "strata on {label}");
        }
    }
}

/// Aggregate identity over the grid corner cases: the whole-pipeline
/// snapshot equals presort + Σ workers + merge + materialize exactly
/// (every counter, including the movement set) — mirrored from the
/// bench gate so the committed counters stay trustworthy.
#[test]
fn batch_pipeline_aggregate_is_the_exact_sum_of_its_stages() {
    let d = 5;
    let (layout, records) = make_records(
        Distribution::AntiCorrelated { jitter: 0.05 },
        d,
        400,
        0xD_2003,
    );
    let spec = SkylineSpec::max_all(d);
    for threads in [1usize, 2, 4] {
        let disk = MemDisk::shared();
        let heap = load(&disk, &layout, &records);
        let metrics = SkylineMetrics::shared();
        let outcome = batch_skyline_pipeline(
            heap,
            &layout,
            &spec,
            BatchConfig::new(2).with_batch_rows(64),
            16,
            threads,
            Arc::clone(&disk) as Arc<dyn Disk>,
            Arc::clone(&metrics),
            None,
            None,
        )
        .unwrap();
        let filter_parts = outcome
            .worker_metrics
            .iter()
            .fold(MetricsSnapshot::default(), |acc, s| acc.plus(s))
            .plus(&outcome.merge_metrics)
            .plus(&outcome.materialize_metrics);
        let agg = metrics.snapshot();
        // the pipeline aggregate is presort + filter stages; the filter
        // stages alone must be exactly reflected in the outcome splits
        for (name, whole, parts) in [
            ("comparisons", agg.comparisons, filter_parts.comparisons),
            ("emitted", agg.emitted, filter_parts.emitted),
            ("discarded", agg.discarded, filter_parts.discarded),
            (
                "rows_materialized",
                agg.rows_materialized,
                filter_parts.rows_materialized,
            ),
        ] {
            assert_eq!(
                whole, parts,
                "t={threads}: {name} is settled by the filter stages"
            );
        }
        // movement counters exceed the filter share by the presort scan
        assert!(
            agg.batches > filter_parts.batches,
            "t={threads}: presort batches"
        );
        assert!(
            agg.bytes_moved > filter_parts.bytes_moved,
            "t={threads}: presort bytes"
        );
        drop(outcome.skyline);
        assert_eq!(disk.allocated_pages(), 0, "t={threads}: leaked pages");
    }
}
