//! Differential oracle gate: every skyline algorithm against the naive
//! O(n²) oracle across the paper's §5 workload grid — uniform,
//! correlated and anti-correlated distributions, both in-memory presort
//! orders, several dimensionalities (d ∈ 1..=4, n ∈ {200, 1000}, three
//! seeds). This is the one differential gate; it rides along with every
//! plain `cargo test`.

use skyline::core::algo::{bnl, naive, sfs, strata, MemSortOrder};
use skyline::core::planner::{entropy_stats_of, load_heap, parallel_skyline_pipeline};
use skyline::core::skyband::skyband;
use skyline::core::{
    parallel_skyline, KeyMatrix, SfsConfig, SkylineMetrics, SkylineSpec, SortOrder,
};
use skyline::relation::gen::{Distribution, WorkloadSpec};
use skyline::relation::RecordLayout;
use skyline::storage::{HeapFile, MemDisk};
use std::sync::Arc;

const DISTS: &[(&str, Distribution)] = &[
    ("uniform", Distribution::UniformIndependent),
    ("correlated", Distribution::Correlated { jitter: 0.05 }),
    (
        "anticorrelated",
        Distribution::AntiCorrelated { jitter: 0.05 },
    ),
];

fn keys_for(dist: Distribution, d: usize, n: usize, seed: u64) -> KeyMatrix {
    let spec = WorkloadSpec {
        dist,
        domain: (0, 9999),
        layout: RecordLayout::new(d, 0),
        ..WorkloadSpec::paper(n, seed)
    };
    KeyMatrix::new(d, spec.generate_keys(d))
}

/// Run `f` over the whole workload grid with a per-case label.
fn grid(mut f: impl FnMut(&KeyMatrix, &str)) {
    for &(dname, dist) in DISTS {
        for d in [1, 2, 3, 4] {
            for n in [200, 1000] {
                for seed in [1, 2, 3] {
                    let km = keys_for(dist, d, n, seed);
                    f(&km, &format!("{dname} d={d} n={n} seed={seed}"));
                }
            }
        }
    }
}

#[test]
fn sfs_matches_oracle_on_all_workloads_and_orders() {
    grid(|km, label| {
        let expect = naive(km).sorted().indices;
        for order in [MemSortOrder::Nested, MemSortOrder::Entropy] {
            assert_eq!(
                sfs(km, order).sorted().indices,
                expect,
                "sfs/{order:?} on {label}"
            );
        }
    });
}

#[test]
fn bnl_matches_oracle_on_all_workloads() {
    grid(|km, label| {
        assert_eq!(
            bnl(km).sorted().indices,
            naive(km).sorted().indices,
            "bnl on {label}"
        );
    });
}

#[test]
fn parallel_skyline_matches_oracle_on_all_workloads() {
    grid(|km, label| {
        let got = parallel_skyline(km, 4).expect("no worker should panic");
        assert_eq!(got, naive(km).sorted().indices, "parallel on {label}");
    });
}

#[test]
fn strata_match_iterated_oracle_removal() {
    grid(|km, label| {
        for order in [MemSortOrder::Nested, MemSortOrder::Entropy] {
            let (strata_sets, _) = strata(km, 4, order);
            let mut remaining: Vec<usize> = (0..km.n()).collect();
            for (s, stratum) in strata_sets.iter().enumerate() {
                if remaining.is_empty() {
                    break;
                }
                let sub = km.select(&remaining);
                let mut expect: Vec<usize> =
                    naive(&sub).indices.iter().map(|&i| remaining[i]).collect();
                expect.sort_unstable();
                let mut got = stratum.clone();
                got.sort_unstable();
                assert_eq!(got, expect, "stratum {s} ({order:?}) on {label}");
                remaining.retain(|i| !stratum.contains(i));
            }
        }
    });
}

/// Decode the first `d` attributes of every record in `heap`, sorted —
/// the multiset fingerprint the external differential tests compare.
fn row_set(heap: &HeapFile, layout: &RecordLayout, d: usize) -> Vec<Vec<i32>> {
    let mut rows: Vec<Vec<i32>> = heap
        .read_all()
        .unwrap()
        .iter()
        .map(|r| layout.decode_attrs(r)[..d].to_vec())
        .collect();
    rows.sort();
    rows
}

/// Naive-oracle skyline of integer rows, as a sorted multiset of rows
/// (duplicated maxima appear once per copy, matching SFS semantics).
fn oracle_rows(rows: &[Vec<i32>], d: usize) -> Vec<Vec<i32>> {
    let flat: Vec<f64> = rows
        .iter()
        .flat_map(|r| r.iter().map(|&v| f64::from(v)))
        .collect();
    let km = KeyMatrix::new(d, flat);
    let mut out: Vec<Vec<i32>> = naive(&km)
        .indices
        .iter()
        .map(|&i| rows[i].clone())
        .collect();
    out.sort();
    out
}

/// Run the full external pipeline (threaded presort → partitioned
/// filter) and return the skyline as a sorted row multiset plus the
/// emitted/discarded/input conservation triple.
#[allow(clippy::too_many_arguments)]
fn external_pipeline_rows(
    records: &[Vec<u8>],
    layout: RecordLayout,
    d: usize,
    order: SortOrder,
    window_pages: usize,
    threads: usize,
) -> (Vec<Vec<i32>>, (u64, u64, u64)) {
    let disk = MemDisk::shared();
    let spec = SkylineSpec::max_all(d);
    let heap = Arc::new(
        load_heap(
            Arc::clone(&disk) as _,
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap(),
    );
    let entropy = matches!(order, SortOrder::Entropy)
        .then(|| entropy_stats_of(&heap, &layout, &spec).unwrap());
    let metrics = SkylineMetrics::shared();
    let outcome = parallel_skyline_pipeline(
        heap,
        layout,
        spec,
        order,
        entropy,
        SfsConfig::new(window_pages),
        16,
        threads,
        Arc::clone(&disk) as _,
        Arc::clone(&metrics),
        None,
        None,
    )
    .unwrap();
    let rows = row_set(&outcome.skyline, &layout, d);
    let snap = metrics.snapshot();
    (rows, (snap.emitted, snap.discarded, snap.input_records))
}

#[test]
fn parallel_external_sfs_matches_oracle_across_thread_counts() {
    // The external differential grid: every distribution, several
    // dimensionalities, both presort orders, threads ∈ {1, 2, 4, 0}
    // (0 = auto). A small domain forces duplicate rows, stressing the
    // merge's equal-score tie handling.
    for &(dname, dist) in DISTS {
        for d in [2usize, 3, 4] {
            let spec = WorkloadSpec {
                dist,
                domain: (0, 99),
                layout: RecordLayout::new(d, 0),
                ..WorkloadSpec::paper(240, 7 + d as u64)
            };
            let records = spec.generate();
            let rows: Vec<Vec<i32>> = records
                .iter()
                .map(|r| spec.layout.decode_attrs(r)[..d].to_vec())
                .collect();
            let expect = oracle_rows(&rows, d);
            for order in [SortOrder::Nested, SortOrder::Entropy] {
                for threads in [1usize, 2, 4, 0] {
                    let (got, (emitted, discarded, input)) =
                        external_pipeline_rows(&records, spec.layout, d, order, 2, threads);
                    let label = format!("{dname} d={d} {order:?} threads={threads}");
                    assert_eq!(got, expect, "parallel external SFS on {label}");
                    // conservation: the filter settles every record
                    assert_eq!(emitted + discarded, input, "conservation on {label}");
                }
            }
        }
    }
}

#[test]
fn parallel_external_sfs_equals_sequential_on_random_workloads() {
    // Seeded property: for random n/d/window/threads/distribution, the
    // partitioned filter's skyline is exactly the sequential (threads=1)
    // skyline. Failures print a replayable testkit seed.
    skyline_testkit::cases(20, 0x5F5_2003, |rng| {
        let n = 1 + rng.usize_below(400);
        let d = 2 + rng.usize_below(4);
        let threads = 2 + rng.usize_below(3);
        let window_pages = 1 + rng.usize_below(4);
        let dist = DISTS[rng.usize_below(DISTS.len())].1;
        let order = if rng.bool() {
            SortOrder::Nested
        } else {
            SortOrder::Entropy
        };
        let spec = WorkloadSpec {
            dist,
            domain: (0, 199),
            layout: RecordLayout::new(d, 0),
            ..WorkloadSpec::paper(n, rng.next_u64())
        };
        let records = spec.generate();
        let (seq, _) = external_pipeline_rows(&records, spec.layout, d, order, window_pages, 1);
        let (par, (emitted, discarded, input)) =
            external_pipeline_rows(&records, spec.layout, d, order, window_pages, threads);
        let label = format!("n={n} d={d} w={window_pages} t={threads} {order:?}");
        assert_eq!(par, seq, "parallel == sequential on {label}");
        assert_eq!(emitted + discarded, input, "conservation on {label}");
    });
}

#[test]
fn skyband_1_is_the_skyline_and_k_nests() {
    grid(|km, label| {
        let mut got = skyband(km, 1);
        got.sort_unstable();
        assert_eq!(got, naive(km).sorted().indices, "skyband(1) on {label}");
        // k-skybands nest: band(k) ⊆ band(k+1)
        let b2 = skyband(km, 2);
        let b3 = skyband(km, 3);
        assert!(
            b2.iter().all(|i| b3.contains(i)),
            "skyband nesting on {label}"
        );
    });
}
