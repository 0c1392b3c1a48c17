//! Integration tests of the external pipeline: window-size invariance,
//! pipelining, diff grouping through the external sort, dimensional
//! reduction, and disk hygiene.

use skyline::core::planner::{
    entropy_stats_of_records, load_heap, materialize, presort, sfs_filter,
};
use skyline::core::strata::strata_external;
use skyline::core::{Criterion, SfsConfig, SkylineMetrics, SkylineSpec, SortOrder};
use skyline::exec::{collect, ExternalSort, GroupMax, HeapScan, Operator, SortBudget};
use skyline::relation::gen::WorkloadSpec;
use skyline::relation::RecordLayout;
use skyline::storage::{Disk, MemDisk};
use std::sync::Arc;

fn setup(n: usize, seed: u64) -> (Arc<MemDisk>, Arc<skyline::storage::HeapFile>, RecordLayout) {
    let w = WorkloadSpec::paper(n, seed);
    let records = w.generate();
    let disk = MemDisk::shared();
    let heap = Arc::new(
        load_heap(
            Arc::clone(&disk) as Arc<dyn Disk>,
            w.layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap(),
    );
    (disk, heap, w.layout)
}

fn run_sfs_with_window(
    disk: &Arc<MemDisk>,
    heap: &Arc<skyline::storage::HeapFile>,
    layout: RecordLayout,
    d: usize,
    window_pages: usize,
) -> Vec<Vec<u8>> {
    let spec = SkylineSpec::max_all(d);
    let sorted = presort(
        Arc::clone(heap),
        layout,
        spec.clone(),
        SortOrder::Nested,
        None,
        10,
        Arc::clone(disk) as Arc<dyn Disk>,
    )
    .unwrap();
    let mut sfs = sfs_filter(
        Arc::new(sorted),
        layout,
        spec,
        SfsConfig::new(window_pages).with_projection(),
        Arc::clone(disk) as Arc<dyn Disk>,
        SkylineMetrics::shared(),
    )
    .unwrap();
    let mut out = collect(&mut sfs).unwrap();
    out.sort();
    out
}

#[test]
fn window_size_invariance_external() {
    let (disk, heap, layout) = setup(5_000, 1);
    let base = run_sfs_with_window(&disk, &heap, layout, 5, 100);
    for w in [0, 1, 3, 7] {
        assert_eq!(
            run_sfs_with_window(&disk, &heap, layout, 5, w),
            base,
            "window={w}"
        );
    }
}

#[test]
fn sfs_pipelines_but_bnl_blocks_on_clustered_order() {
    // Feed both operators an input sorted ascending (worst first). SFS
    // presorts so it still emits immediately; BNL on this order cannot
    // confirm anything until the end of the pass.
    let (disk, heap, layout) = setup(20_000, 2);
    let d = 5;
    let spec = SkylineSpec::max_all(d);

    // SFS: count input consumed before first output — the presort
    // consumes everything (blocking on input), but the *filter* emits on
    // its very first surviving tuple, measurable as 0 comparisons.
    let sorted = Arc::new(
        presort(
            Arc::clone(&heap),
            layout,
            spec.clone(),
            SortOrder::Entropy,
            Some({
                let mut scan = heap.scan();
                let mut recs = Vec::new();
                while let Some(r) = scan.next_record().unwrap() {
                    recs.push(r.to_vec());
                }
                entropy_stats_of_records(&layout, &spec, recs.iter().map(Vec::as_slice))
            }),
            10,
            Arc::clone(&disk) as Arc<dyn Disk>,
        )
        .unwrap(),
    );
    let metrics = SkylineMetrics::shared();
    let mut sfs = sfs_filter(
        Arc::clone(&sorted),
        layout,
        spec.clone(),
        SfsConfig::new(50),
        Arc::clone(&disk) as Arc<dyn Disk>,
        Arc::clone(&metrics),
    )
    .unwrap();
    sfs.open().unwrap();
    assert!(sfs.next().unwrap().is_some());
    let after_first = metrics.snapshot();
    assert_eq!(
        after_first.comparisons, 0,
        "first SFS output needs zero dominance comparisons"
    );
    assert_eq!(after_first.emitted, 1);
    sfs.close();

    // BNL over reverse-entropy (ascending) order: the number of tuples it
    // must *read* before the first emission is the whole input.
    let re_sorted = Arc::new(
        presort(
            Arc::clone(&heap),
            layout,
            spec.clone(),
            SortOrder::ReverseEntropy,
            Some({
                let mut scan = heap.scan();
                let mut recs = Vec::new();
                while let Some(r) = scan.next_record().unwrap() {
                    recs.push(r.to_vec());
                }
                entropy_stats_of_records(&layout, &spec, recs.iter().map(Vec::as_slice))
            }),
            10,
            Arc::clone(&disk) as Arc<dyn Disk>,
        )
        .unwrap(),
    );
    let bnl_metrics = SkylineMetrics::shared();
    let scan = Box::new(HeapScan::new(re_sorted));
    let mut bnl = skyline::core::Bnl::new(
        scan,
        layout,
        spec,
        1_000, // plenty of window: single pass
        Arc::clone(&disk) as Arc<dyn Disk>,
        Arc::clone(&bnl_metrics),
    )
    .unwrap();
    bnl.open().unwrap();
    assert!(bnl.next().unwrap().is_some());
    let bs = bnl_metrics.snapshot();
    // BNL had to chew through (and compare) essentially the whole input
    // before confirming its first skyline tuple.
    assert!(
        bs.comparisons > 10_000,
        "BNL should block: only {} comparisons before first output",
        bs.comparisons
    );
    bnl.close();
}

#[test]
fn diff_through_external_sort_groups_correctly() {
    // 3 attrs: criteria on 0..2, diff on attr 2 with 4 groups.
    let layout = RecordLayout::new(3, 0);
    let spec = SkylineSpec::new(vec![Criterion::max(0), Criterion::max(1)]).with_diff(vec![2]);
    let mut records = Vec::new();
    for i in 0..4_000i32 {
        records.push(layout.encode(&[(i * 37) % 101, (i * 53) % 97, i % 4], b""));
    }
    let disk = MemDisk::shared();
    let heap = Arc::new(
        load_heap(
            Arc::clone(&disk) as Arc<dyn Disk>,
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap(),
    );
    let sorted = presort(
        heap,
        layout,
        spec.clone(),
        SortOrder::Nested,
        None,
        5,
        Arc::clone(&disk) as Arc<dyn Disk>,
    )
    .unwrap();
    let mut sfs = sfs_filter(
        Arc::new(sorted),
        layout,
        spec,
        SfsConfig::new(1),
        Arc::clone(&disk) as Arc<dyn Disk>,
        SkylineMetrics::shared(),
    )
    .unwrap();
    let got = collect(&mut sfs).unwrap();

    // oracle: per-group naive skyline
    use skyline::core::algo;
    use skyline::core::KeyMatrix;
    let mut expect = Vec::new();
    for g in 0..4 {
        let members: Vec<&Vec<u8>> = records.iter().filter(|r| layout.attr(r, 2) == g).collect();
        let rows: Vec<Vec<f64>> = members
            .iter()
            .map(|r| vec![f64::from(layout.attr(r, 0)), f64::from(layout.attr(r, 1))])
            .collect();
        let km = KeyMatrix::from_rows(&rows);
        for &i in &algo::naive(&km).indices {
            expect.push(members[i].clone());
        }
    }
    let mut got_sorted = got;
    got_sorted.sort();
    expect.sort();
    assert_eq!(got_sorted, expect);
}

#[test]
fn dimensional_reduction_pipeline_preserves_distinct_skyline() {
    let w = WorkloadSpec::small_domain(30_000, 3);
    let records = w.generate();
    let layout = w.layout;
    let d = 4;
    let disk = MemDisk::shared();
    let heap = Arc::new(
        load_heap(
            Arc::clone(&disk) as Arc<dyn Disk>,
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap(),
    );
    let spec = SkylineSpec::max_all(d);

    // reduction: nested sort → group-max on attr d-1
    let cmp = Arc::new(skyline::core::SkylineOrderCmp::new(
        layout,
        spec.clone(),
        SortOrder::Nested,
        None,
    ));
    let scan = Box::new(HeapScan::new(Arc::clone(&heap)));
    let sort = Box::new(ExternalSort::new(
        scan,
        cmp,
        Arc::clone(&disk) as Arc<dyn Disk>,
        SortBudget::pages(50),
    ));
    let mut gm = GroupMax::new(sort, layout, (0..d - 1).collect(), d - 1).unwrap();
    let reduced = Arc::new(materialize(&mut gm, Arc::clone(&disk) as Arc<dyn Disk>).unwrap());
    assert!(
        reduced.len() < heap.len() / 2,
        "reduction must shrink the input"
    );

    // skyline over reduced input == distinct skyline keys of full input
    let mut sfs = sfs_filter(
        Arc::new(
            presort(
                Arc::clone(&reduced),
                layout,
                spec.clone(),
                SortOrder::Nested,
                None,
                50,
                Arc::clone(&disk) as Arc<dyn Disk>,
            )
            .unwrap(),
        ),
        layout,
        spec.clone(),
        SfsConfig::new(10),
        Arc::clone(&disk) as Arc<dyn Disk>,
        SkylineMetrics::shared(),
    )
    .unwrap();
    let mut via_reduced: Vec<Vec<i32>> = collect(&mut sfs)
        .unwrap()
        .iter()
        .map(|r| layout.decode_attrs(r)[..d].to_vec())
        .collect();
    via_reduced.sort();
    via_reduced.dedup();

    use skyline::core::algo;
    use skyline::core::KeyMatrix;
    let rows: Vec<Vec<f64>> = records
        .iter()
        .map(|r| (0..d).map(|i| f64::from(layout.attr(r, i))).collect())
        .collect();
    let km = KeyMatrix::from_rows(&rows);
    let mut full: Vec<Vec<i32>> = algo::naive(&km)
        .indices
        .iter()
        .map(|&i| rows[i].iter().map(|&v| v as i32).collect())
        .collect();
    full.sort();
    full.dedup();
    assert_eq!(via_reduced, full);
}

#[test]
fn strata_external_on_paper_workload() {
    let (disk, heap, layout) = setup(8_000, 4);
    let spec = SkylineSpec::max_all(4);
    let res = strata_external(
        Arc::clone(&heap),
        layout,
        &spec,
        4,
        20,
        50,
        SortOrder::Nested,
        None,
        Arc::clone(&disk) as Arc<dyn Disk>,
    )
    .unwrap();
    assert_eq!(res.strata.len(), 4);
    // strata sizes grow (the paper's observed pattern on uniform data)
    let sizes: Vec<u64> = res.strata.iter().map(|s| s.len()).collect();
    assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
    // strata are disjoint and cover exactly their tuples: sum ≤ n
    assert!(sizes.iter().sum::<u64>() <= heap.len());
}

#[test]
fn preference_order_top_n_with_early_stop() {
    // §4.4: presort by the user's monotone preference, SFS emits skyline
    // in preference order, Limit stops early.
    use skyline::core::planner::presort_by_preference;
    use skyline::core::score::{LinearScore, MonotoneScore};
    use skyline::exec::Limit;

    let (disk, heap, layout) = setup(10_000, 6);
    let d = 4;
    let spec = SkylineSpec::max_all(d);
    let score = Arc::new(LinearScore::new(vec![4.0, 3.0, 2.0, 1.0]));

    let score_of = |r: &[u8]| {
        let mut key = Vec::new();
        spec.key_of(&layout, r, &mut key);
        score.score(&key)
    };
    let full = run_sfs_with_window(&disk, &heap, layout, d, 100);
    let mut full_scores: Vec<f64> = full.iter().map(|r| score_of(r)).collect();
    full_scores.sort_by(|a, b| b.total_cmp(a));

    // one, a few, and more than the whole skyline
    for n in [1, 5, full.len() + 10] {
        let sorted = presort_by_preference(
            Arc::clone(&heap),
            layout,
            spec.clone(),
            Arc::clone(&score) as Arc<dyn MonotoneScore>,
            50,
            Arc::clone(&disk) as Arc<dyn Disk>,
        )
        .unwrap();
        let metrics = SkylineMetrics::shared();
        let sfs = sfs_filter(
            Arc::new(sorted),
            layout,
            spec.clone(),
            SfsConfig::new(50).with_projection(),
            Arc::clone(&disk) as Arc<dyn Disk>,
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut top = Limit::new(Box::new(sfs), n as u64);
        let out = collect(&mut top).unwrap();
        let want = n.min(full.len());
        assert_eq!(out.len(), want, "top-{n} length");

        // emitted in non-increasing preference score
        for w in out.windows(2) {
            assert!(score_of(&w[0]) >= score_of(&w[1]), "top-{n} order");
        }
        // every row is a skyline row, and their scores are exactly the
        // n best skyline scores
        for r in &out {
            assert!(full.binary_search(r).is_ok(), "top-{n}: not a skyline row");
        }
        let mut got_scores: Vec<f64> = out.iter().map(|r| score_of(r)).collect();
        got_scores.sort_by(|a, b| b.total_cmp(a));
        assert_eq!(got_scores, full_scores[..want], "top-{n} score multiset");

        // early stop: Limit closes the operator after the n-th row
        assert!(
            metrics.snapshot().emitted <= want as u64 + 1,
            "top-{n}: Limit closed the operator early"
        );
    }
}

#[test]
fn pipeline_works_on_real_files() {
    // same pipeline over FileDisk: results identical to MemDisk
    use skyline::storage::FileDisk;
    let w = WorkloadSpec::paper(2_000, 8);
    let records = w.generate();
    let layout = w.layout;
    let dir = std::env::temp_dir().join(format!("skyline-filedisk-{}", std::process::id()));
    let fdisk: Arc<dyn Disk> = Arc::new(FileDisk::new(&dir).unwrap());
    let heap = Arc::new(
        load_heap(
            Arc::clone(&fdisk),
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap(),
    );
    let spec = SkylineSpec::max_all(5);
    let sorted = presort(
        Arc::clone(&heap),
        layout,
        spec.clone(),
        SortOrder::Nested,
        None,
        5,
        Arc::clone(&fdisk),
    )
    .unwrap();
    let mut sfs = sfs_filter(
        Arc::new(sorted),
        layout,
        spec.clone(),
        SfsConfig::new(1),
        Arc::clone(&fdisk),
        SkylineMetrics::shared(),
    )
    .unwrap();
    let mut via_files = collect(&mut sfs).unwrap();
    via_files.sort();

    let (mdisk, mheap, _) = {
        let disk = MemDisk::shared();
        let heap = Arc::new(
            load_heap(
                Arc::clone(&disk) as Arc<dyn Disk>,
                layout.record_size(),
                records.iter().map(Vec::as_slice),
            )
            .unwrap(),
        );
        (disk, heap, ())
    };
    let via_mem = run_sfs_with_window(&mdisk, &mheap, layout, 5, 1);
    assert_eq!(via_files, via_mem);
    drop(sfs);
    drop(heap);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_pages_leak_after_full_pipeline() {
    let (disk, heap, layout) = setup(3_000, 5);
    let before = disk.allocated_pages();
    let _ = run_sfs_with_window(&disk, &heap, layout, 5, 1);
    assert_eq!(
        disk.allocated_pages(),
        before,
        "temp/sorted files must be freed"
    );
    drop(heap);
}
