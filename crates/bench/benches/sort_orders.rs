//! Criterion counterpart of the §5 sort-times table: nested 7-attribute
//! sort vs single-score entropy sort (the paper's 57 s vs 37 s).
//!
//! `narrow_sort` is the paged SQL path's presort: `sort_narrow` over the
//! entries an elimination filter forwards — about 15 000 × 7 on
//! `indep_d7` and 27 000 × 4 on `anti_d4` — in a 63-page arena, with the
//! entry's entropy score carried in its score lane and without it (the
//! sort then scores both entries of every comparison that reaches the
//! score, and every entry again for its prefix key).

use skyline_bench::crit::{BenchmarkId, Criterion};
use skyline_bench::{criterion_group, criterion_main};
use skyline_bench::{run_sort_only, Dataset};
use skyline_core::external::sort_narrow;
use skyline_core::{EntropyScore, MonotoneScore, SortOrder};
use skyline_exec::{HeapScan, NarrowLayout};
use skyline_relation::gen::{Distribution, WorkloadSpec};
use skyline_storage::{Disk, HeapFile, MemDisk};
use std::hint::black_box;
use std::sync::Arc;

fn bench_sort_orders(c: &mut Criterion) {
    let ds = Dataset::paper(50_000, 2003);
    let mut g = c.benchmark_group("table_sort_times");
    g.bench_function("nested_7attr", |b| {
        b.iter(|| black_box(run_sort_only(&ds, 7, SortOrder::Nested).1));
    });
    g.bench_function("entropy_score", |b| {
        b.iter(|| black_box(run_sort_only(&ds, 7, SortOrder::Entropy).1));
    });
    g.finish();
}

/// The paged path's sort arena: 64 sort pages less the elimination
/// filter's one.
const ARENA_PAGES: usize = 63;

fn bench_narrow_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("narrow_sort");
    let anti = Distribution::AntiCorrelated { jitter: 0.1 };
    for (name, spec, d) in [
        ("indep_d7", WorkloadSpec::paper(15_000, 2003), 7),
        (
            "anti_d4",
            WorkloadSpec {
                dist: anti,
                ..WorkloadSpec::paper(27_000, 2003)
            },
            4,
        ),
    ] {
        let keys = spec.generate_keys(d);
        let score = Arc::new(EntropyScore::from_keys(&keys, d));
        let disk: Arc<dyn Disk> = MemDisk::shared();
        for (lane, scored) in [("without_lane", false), ("score_lane", true)] {
            let narrow = if scored {
                NarrowLayout::new(d).with_score()
            } else {
                NarrowLayout::new(d)
            };
            // the producer's entries, scored once when the lane is there
            let entries: Vec<Vec<u8>> = keys
                .chunks_exact(d)
                .enumerate()
                .map(|(row, key)| {
                    let mut lanes = key.to_vec();
                    lanes.extend(scored.then(|| score.score(key)));
                    let mut entry = Vec::new();
                    narrow.encode_into(&lanes, row as u64, &mut entry);
                    entry
                })
                .collect();
            let mut heap = HeapFile::create(Arc::clone(&disk), narrow.entry_size()).expect("heap");
            heap.append_all(entries.iter().map(Vec::as_slice))
                .expect("append");
            let heap = Arc::new(heap);
            g.bench_function(BenchmarkId::new(lane, name), |b| {
                b.iter(|| {
                    let sorted = sort_narrow(
                        Box::new(HeapScan::new(Arc::clone(&heap))),
                        narrow,
                        Arc::clone(&score) as _,
                        ARENA_PAGES,
                        1,
                        Arc::clone(&disk),
                    )
                    .expect("sort");
                    black_box(sorted.len())
                });
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sort_orders, bench_narrow_sort
}
criterion_main!(benches);
