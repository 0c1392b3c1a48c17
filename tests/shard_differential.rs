//! Sharded differential gate: every (strategy × shard count) against
//! the single-node batch pipeline and the naive O(n²) oracle, across
//! all five synthetic distributions, dimensionalities 2–8, and mixed
//! MIN/MAX criteria.
//!
//! The partition identity `sky(R) = sky(sky(R₁) ∪ … ∪ sky(R_N))` holds
//! for *any* partition, so every cell of this grid must produce the
//! bit-identical skyline multiset — the router (round-robin, angular
//! grid, or representative-filtered) only changes how much crosses the
//! exchange, never what comes out.

use skyline::core::algo::naive;
use skyline::core::planner::{batch_skyline_pipeline, load_heap, sharded_skyline_pipeline};
use skyline::core::{
    BatchConfig, Criterion, KeyMatrix, ShardConfig, ShardStrategy, SkylineMetrics, SkylineSpec,
};
use skyline::relation::gen::{Distribution, WorkloadSpec};
use skyline::relation::RecordLayout;
use skyline::storage::{Disk, MemDisk};
use std::sync::Arc;

const N: usize = 260;
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];
const STRATEGIES: &[ShardStrategy] = &[
    ShardStrategy::Naive,
    ShardStrategy::Grid,
    ShardStrategy::Representative,
];

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
            clusters: 5,
            spread: 0.1,
        },
    ),
    ("skewed", Distribution::Skewed { exponent: 4.0 }),
];

fn records_for(dist: Distribution, d: usize, seed: u64) -> (RecordLayout, Vec<Vec<u8>>) {
    let spec = WorkloadSpec {
        dist,
        domain: (0, 999),
        layout: RecordLayout::new(d, 0),
        ..WorkloadSpec::paper(N, seed)
    };
    let records = spec.generate();
    (spec.layout, records)
}

/// All-max plus an alternating MAX/MIN mix — the mix exercises the
/// oriented-key negation through routing, pruning, and the merge.
fn specs_for(d: usize) -> [(&'static str, SkylineSpec); 2] {
    let mixed = SkylineSpec {
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
    };
    [("max-all", SkylineSpec::max_all(d)), ("mixed", mixed)]
}

/// Sorted value rows — the canonical multiset representation every
/// pipeline's output is reduced to before comparison.
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

/// The naive oracle over *oriented* keys (`spec.key_of` negates MIN
/// criteria), so one max-all oracle covers every MIN/MAX mix.
fn oracle(layout: &RecordLayout, spec: &SkylineSpec, records: &[Vec<u8>]) -> Vec<Vec<i32>> {
    let d = spec.dims();
    let mut flat = Vec::with_capacity(records.len() * d);
    let mut key = Vec::new();
    for r in records {
        spec.key_of(layout, r, &mut key);
        flat.extend_from_slice(&key);
    }
    let km = KeyMatrix::new(d, flat);
    let sky = naive(&km).indices;
    value_rows(layout, d, sky.iter().map(|&i| records[i].as_slice()))
}

fn loaded_heap(
    disk: &Arc<MemDisk>,
    layout: &RecordLayout,
    records: &[Vec<u8>],
) -> Arc<skyline::storage::HeapFile> {
    let heap = load_heap(
        Arc::clone(disk) as Arc<dyn Disk>,
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .unwrap();
    Arc::new(heap)
}

#[test]
fn every_strategy_and_shard_count_matches_batch_and_oracle() {
    for &(dname, dist) in DISTS {
        for d in 2..=8usize {
            let (layout, records) = records_for(dist, d, 0x5AD0 + d as u64);
            for (sname, spec) in specs_for(d) {
                let want = oracle(&layout, &spec, &records);

                // single-node batch baseline on its own clean disk
                let disk = MemDisk::shared();
                let outcome = batch_skyline_pipeline(
                    loaded_heap(&disk, &layout, &records),
                    &layout,
                    &spec,
                    BatchConfig::new(2).with_batch_rows(64),
                    4,
                    1,
                    Arc::clone(&disk) as Arc<dyn Disk>,
                    SkylineMetrics::shared(),
                    None,
                    None,
                )
                .unwrap();
                let rows = outcome.skyline.read_all().unwrap();
                assert_eq!(
                    value_rows(&layout, d, rows.iter().map(Vec::as_slice)),
                    want,
                    "batch pipeline vs oracle on {dname} d={d} {sname}"
                );
                drop(outcome.skyline);
                assert_eq!(disk.allocated_pages(), 0, "batch leak on {dname} d={d}");

                for &strategy in STRATEGIES {
                    for &shards in SHARD_COUNTS {
                        let label = format!(
                            "{} shards={shards} on {dname} d={d} {sname}",
                            strategy.name()
                        );
                        let disk = MemDisk::shared();
                        let outcome = sharded_skyline_pipeline(
                            loaded_heap(&disk, &layout, &records),
                            &layout,
                            &spec,
                            ShardConfig::new(shards, strategy, 1)
                                .with_batch_rows(64)
                                .with_sort_pages(4)
                                .with_representatives(8),
                            Arc::clone(&disk) as Arc<dyn Disk>,
                            SkylineMetrics::shared(),
                            None,
                        )
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                        let rows = outcome.skyline.read_all().unwrap();
                        assert_eq!(
                            value_rows(&layout, d, rows.iter().map(Vec::as_slice)),
                            want,
                            "{label}"
                        );
                        drop(outcome.skyline);
                        assert_eq!(disk.allocated_pages(), 0, "{label}: leaked pages");
                    }
                }
            }
        }
    }
}
