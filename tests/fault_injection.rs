//! Fault-injection differential suite.
//!
//! Every (algorithm × fault schedule) run must either return the exact
//! oracle skyline or a typed error — never panic, never silently return
//! a wrong answer, and never leak temp pages: after the run unwinds, the
//! inner disk must report `allocated_pages() == 0`.
//!
//! Faults are injected by [`FaultDisk`] on deterministic seed-driven
//! schedules, so failures replay exactly. A separate test shows that
//! wrapping the faulty disk in a [`RetryDisk`] absorbs transient faults
//! and recovers the exact oracle; cancellation tests show every driver
//! surfaces a typed `Cancelled` error without leaking.

use skyline::core::algo::naive;
use skyline::core::external::sharded_skyline;
use skyline::core::external::WinnowOp;
use skyline::core::planner::{
    batch_skyline_pipeline, bnl_over, entropy_stats_of_records, load_heap,
    parallel_skyline_pipeline, presort, sfs_filter, sharded_skyline_pipeline,
};
use skyline::core::skyband::skyband;
use skyline::core::strata::strata_external;
use skyline::core::winnow::SkylinePreference;
use skyline::core::{
    batch_presort, parallel_skyline_cancellable, parallel_skyline_heap, AlgoError, BatchConfig,
    KeyMatrix, KeySumScore, SfsConfig, ShardConfig, ShardStrategy, SkylineMetrics, SkylineSpec,
    SortOrder, SpecKeys,
};
use skyline::exec::batch::{BatchHeapScan, BatchSource, KeyBatch};
use skyline::exec::{collect, CancelToken, ExecError, HeapScan, Operator};
use skyline::relation::gen::WorkloadSpec;
use skyline::relation::RecordLayout;
use skyline::storage::{Disk, FaultDisk, FaultSchedule, FileDisk, MemDisk, RetryDisk, RetryPolicy};
use std::sync::Arc;

const N: usize = 1_200;
const D: usize = 4;
const DATA_SEED: u64 = 0xFA17;

fn workload() -> (RecordLayout, Vec<Vec<u8>>) {
    let w = WorkloadSpec::paper(N, DATA_SEED);
    let records = w.generate();
    (w.layout, records)
}

/// Value rows (first `D` attributes) of the given records, sorted — the
/// canonical multiset representation compared across all drivers.
fn value_rows<'a, I>(layout: &RecordLayout, records: I) -> Vec<Vec<i32>>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut rows: Vec<Vec<i32>> = records
        .into_iter()
        .map(|r| (0..D).map(|i| layout.attr(r, i)).collect())
        .collect();
    rows.sort_unstable();
    rows
}

fn keys_of(layout: &RecordLayout, records: &[Vec<u8>]) -> KeyMatrix {
    let mut flat = Vec::with_capacity(records.len() * D);
    for r in records {
        for i in 0..D {
            flat.push(f64::from(layout.attr(r, i)));
        }
    }
    KeyMatrix::new(D, flat)
}

fn oracle(layout: &RecordLayout, records: &[Vec<u8>]) -> Vec<Vec<i32>> {
    let km = keys_of(layout, records);
    let sky = naive(&km).indices;
    value_rows(layout, sky.iter().map(|&i| records[i].as_slice()))
}

/// A driver runs one skyline algorithm end-to-end against `disk`,
/// returning the skyline's sorted value rows or a typed error rendered
/// as a string. All heap I/O — including loading the input — goes
/// through `disk`, so any operation can fault.
type Driver = fn(Arc<dyn Disk>, RecordLayout, &[Vec<u8>]) -> Result<Vec<Vec<i32>>, String>;

fn run_sfs(
    disk: Arc<dyn Disk>,
    layout: RecordLayout,
    records: &[Vec<u8>],
    order: SortOrder,
) -> Result<Vec<Vec<i32>>, String> {
    let spec = SkylineSpec::max_all(D);
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .map_err(|e| e.to_string())?;
    let entropy = matches!(order, SortOrder::Entropy | SortOrder::ReverseEntropy)
        .then(|| entropy_stats_of_records(&layout, &spec, records.iter().map(Vec::as_slice)));
    let sorted = presort(
        Arc::new(heap),
        layout,
        spec.clone(),
        order,
        entropy,
        4,
        Arc::clone(&disk),
    )
    .map_err(|e| e.to_string())?;
    let mut sfs = sfs_filter(
        Arc::new(sorted),
        layout,
        spec,
        SfsConfig::new(1),
        disk,
        SkylineMetrics::shared(),
    )
    .map_err(|e| e.to_string())?;
    let out = collect(&mut sfs).map_err(|e| e.to_string())?;
    Ok(value_rows(&layout, out.iter().map(Vec::as_slice)))
}

fn sfs_nested(d: Arc<dyn Disk>, l: RecordLayout, r: &[Vec<u8>]) -> Result<Vec<Vec<i32>>, String> {
    run_sfs(d, l, r, SortOrder::Nested)
}

fn sfs_entropy(d: Arc<dyn Disk>, l: RecordLayout, r: &[Vec<u8>]) -> Result<Vec<Vec<i32>>, String> {
    run_sfs(d, l, r, SortOrder::Entropy)
}

fn bnl(
    disk: Arc<dyn Disk>,
    layout: RecordLayout,
    records: &[Vec<u8>],
) -> Result<Vec<Vec<i32>>, String> {
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .map_err(|e| e.to_string())?;
    let mut op = bnl_over(
        Arc::new(heap),
        layout,
        SkylineSpec::max_all(D),
        1,
        disk,
        SkylineMetrics::shared(),
    )
    .map_err(|e| e.to_string())?;
    let out = collect(&mut op).map_err(|e| e.to_string())?;
    Ok(value_rows(&layout, out.iter().map(Vec::as_slice)))
}

fn winnow(
    disk: Arc<dyn Disk>,
    layout: RecordLayout,
    records: &[Vec<u8>],
) -> Result<Vec<Vec<i32>>, String> {
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .map_err(|e| e.to_string())?;
    let mut op = WinnowOp::new(
        Box::new(HeapScan::new(Arc::new(heap))),
        layout,
        SkylineSpec::max_all(D),
        Arc::new(SkylinePreference),
        1,
        disk,
        SkylineMetrics::shared(),
    )
    .map_err(|e| e.to_string())?;
    let out = collect(&mut op).map_err(|e| e.to_string())?;
    Ok(value_rows(&layout, out.iter().map(Vec::as_slice)))
}

fn parallel(
    disk: Arc<dyn Disk>,
    layout: RecordLayout,
    records: &[Vec<u8>],
) -> Result<Vec<Vec<i32>>, String> {
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .map_err(|e| e.to_string())?;
    let heap = Arc::new(heap);
    let idx = parallel_skyline_heap(&heap, &layout, &SkylineSpec::max_all(D), 4, None)
        .map_err(|e| e.to_string())?;
    Ok(value_rows(
        &layout,
        idx.iter().map(|&i| records[i].as_slice()),
    ))
}

/// Thread count for the partitioned external SFS drivers. CI's
/// fault-injection matrix sets `PAR_THREADS` ∈ {1, 2} so the same fault
/// schedules replay against both the sequential and the partitioned
/// paths; locally it defaults to 2 (the partitioned path).
fn par_threads() -> usize {
    std::env::var("PAR_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

fn run_par_sfs(
    disk: Arc<dyn Disk>,
    layout: RecordLayout,
    records: &[Vec<u8>],
    order: SortOrder,
) -> Result<Vec<Vec<i32>>, String> {
    let spec = SkylineSpec::max_all(D);
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .map_err(|e| e.to_string())?;
    let entropy = matches!(order, SortOrder::Entropy | SortOrder::ReverseEntropy)
        .then(|| entropy_stats_of_records(&layout, &spec, records.iter().map(Vec::as_slice)));
    let outcome = parallel_skyline_pipeline(
        Arc::new(heap),
        layout,
        spec,
        order,
        entropy,
        SfsConfig::new(1),
        4,
        par_threads(),
        disk,
        SkylineMetrics::shared(),
        None,
        None,
    )
    .map_err(|e| e.to_string())?;
    let rows = outcome.skyline.read_all().map_err(|e| e.to_string())?;
    Ok(value_rows(&layout, rows.iter().map(Vec::as_slice)))
}

fn par_sfs_nested(
    d: Arc<dyn Disk>,
    l: RecordLayout,
    r: &[Vec<u8>],
) -> Result<Vec<Vec<i32>>, String> {
    run_par_sfs(d, l, r, SortOrder::Nested)
}

fn par_sfs_entropy(
    d: Arc<dyn Disk>,
    l: RecordLayout,
    r: &[Vec<u8>],
) -> Result<Vec<Vec<i32>>, String> {
    run_par_sfs(d, l, r, SortOrder::Entropy)
}

fn strata(
    disk: Arc<dyn Disk>,
    layout: RecordLayout,
    records: &[Vec<u8>],
) -> Result<Vec<Vec<i32>>, String> {
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .map_err(|e| e.to_string())?;
    let res = strata_external(
        Arc::new(heap),
        layout,
        &SkylineSpec::max_all(D),
        2,
        1,
        4,
        SortOrder::Nested,
        None,
        disk,
    )
    .map_err(|e| e.to_string())?;
    let first = res
        .strata
        .first()
        .ok_or_else(|| "no strata produced".to_string())?;
    let rows = first.read_all().map_err(|e| e.to_string())?;
    Ok(value_rows(&layout, rows.iter().map(Vec::as_slice)))
}

fn skyband_k1(
    disk: Arc<dyn Disk>,
    layout: RecordLayout,
    records: &[Vec<u8>],
) -> Result<Vec<Vec<i32>>, String> {
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .map_err(|e| e.to_string())?;
    let stored = heap.read_all().map_err(|e| e.to_string())?;
    let km = keys_of(&layout, &stored);
    let idx = skyband(&km, 1);
    Ok(value_rows(
        &layout,
        idx.iter().map(|&i| stored[i].as_slice()),
    ))
}

/// The columnar pipeline end-to-end: batched scan → narrow presort →
/// partitioned batch filter → late materialization. Every stage does
/// its own I/O through `disk`, so faults can land in the key extraction
/// scan, the narrow-entry sort runs, the spill, or the final payload
/// fetch — and must surface as a typed error from any of them.
fn run_batch(
    disk: Arc<dyn Disk>,
    layout: RecordLayout,
    records: &[Vec<u8>],
    scalar: bool,
) -> Result<Vec<Vec<i32>>, String> {
    let spec = SkylineSpec::max_all(D);
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .map_err(|e| e.to_string())?;
    let mut cfg = BatchConfig::new(1).with_batch_rows(64);
    if scalar {
        cfg = cfg.with_scalar_window();
    }
    let outcome = batch_skyline_pipeline(
        Arc::new(heap),
        &layout,
        &spec,
        cfg,
        4,
        par_threads(),
        disk,
        SkylineMetrics::shared(),
        None,
        None,
    )
    .map_err(|e| e.to_string())?;
    let rows = outcome.skyline.read_all().map_err(|e| e.to_string())?;
    Ok(value_rows(&layout, rows.iter().map(Vec::as_slice)))
}

fn batch_block(d: Arc<dyn Disk>, l: RecordLayout, r: &[Vec<u8>]) -> Result<Vec<Vec<i32>>, String> {
    run_batch(d, l, r, false)
}

fn batch_scalar(d: Arc<dyn Disk>, l: RecordLayout, r: &[Vec<u8>]) -> Result<Vec<Vec<i32>>, String> {
    run_batch(d, l, r, true)
}

/// The sharded pipeline end-to-end on the given (possibly faulty)
/// coordinator disk; the planner entry gives every shard worker its own
/// clean in-memory disk, so faults land in the routing pass, the frame
/// decode, the prefix merge, or the late materialization.
fn run_sharded(
    disk: Arc<dyn Disk>,
    layout: RecordLayout,
    records: &[Vec<u8>],
    strategy: ShardStrategy,
) -> Result<Vec<Vec<i32>>, String> {
    let spec = SkylineSpec::max_all(D);
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .map_err(|e| e.to_string())?;
    let outcome = sharded_skyline_pipeline(
        Arc::new(heap),
        &layout,
        &spec,
        ShardConfig::new(3, strategy, 1)
            .with_batch_rows(64)
            .with_sort_pages(4),
        disk,
        SkylineMetrics::shared(),
        None,
    )
    .map_err(|e| e.to_string())?;
    let rows = outcome.skyline.read_all().map_err(|e| e.to_string())?;
    Ok(value_rows(&layout, rows.iter().map(Vec::as_slice)))
}

fn sharded_naive(
    d: Arc<dyn Disk>,
    l: RecordLayout,
    r: &[Vec<u8>],
) -> Result<Vec<Vec<i32>>, String> {
    run_sharded(d, l, r, ShardStrategy::Naive)
}

fn sharded_grid(d: Arc<dyn Disk>, l: RecordLayout, r: &[Vec<u8>]) -> Result<Vec<Vec<i32>>, String> {
    run_sharded(d, l, r, ShardStrategy::Grid)
}

fn sharded_rep(d: Arc<dyn Disk>, l: RecordLayout, r: &[Vec<u8>]) -> Result<Vec<Vec<i32>>, String> {
    run_sharded(d, l, r, ShardStrategy::Representative)
}

const DRIVERS: &[(&str, Driver)] = &[
    ("sfs-nested", sfs_nested),
    ("sfs-entropy", sfs_entropy),
    ("par-sfs-nested", par_sfs_nested),
    ("par-sfs-entropy", par_sfs_entropy),
    ("bnl", bnl),
    ("winnow", winnow),
    ("parallel", parallel),
    ("strata", strata),
    ("skyband", skyband_k1),
    ("batch", batch_block),
    ("batch-scalar", batch_scalar),
    ("sharded-naive", sharded_naive),
    ("sharded-grid", sharded_grid),
    ("sharded-representative", sharded_rep),
];

/// Seeded fault schedules. `arm_after` on write schedules lets the
/// ~30-page input load land before write faults arm, so a run can get
/// deep enough to exercise operator-internal temp files.
fn schedules() -> Vec<(&'static str, FaultSchedule)> {
    vec![
        ("none", FaultSchedule::none()),
        (
            "read-permanent",
            FaultSchedule {
                seed: 0xA1,
                read_period: 11,
                write_period: 0,
                transient_pct: 0,
                torn_writes: false,
                arm_after: 0,
            },
        ),
        (
            "write-permanent",
            FaultSchedule {
                seed: 0xB2,
                read_period: 0,
                write_period: 9,
                transient_pct: 0,
                torn_writes: false,
                arm_after: 40,
            },
        ),
        (
            "mixed-transient-torn",
            FaultSchedule {
                seed: 0xC3,
                read_period: 17,
                write_period: 13,
                transient_pct: 60,
                torn_writes: true,
                arm_after: 40,
            },
        ),
        ("late-read", FaultSchedule::nth_read(200)),
    ]
}

/// Seed override for CI's seed-grid leg: `FAULT_SEED` reseeds every
/// periodic schedule, replaying the whole suite under a different
/// deterministic fault sequence.
fn seeded_schedules() -> Vec<(&'static str, FaultSchedule)> {
    let mut scheds = schedules();
    if let Ok(s) = std::env::var("FAULT_SEED") {
        if let Ok(seed) = s.parse::<u64>() {
            for (_, sched) in &mut scheds {
                if sched.seed != 0 {
                    sched.seed = sched.seed.wrapping_add(seed.wrapping_mul(0x9E37_79B9));
                }
            }
        }
    }
    scheds
}

#[test]
fn every_algorithm_returns_oracle_or_typed_error_under_faults() {
    let (layout, records) = workload();
    let want = oracle(&layout, &records);
    assert!(!want.is_empty(), "degenerate oracle");
    for (sname, sched) in seeded_schedules() {
        for (dname, driver) in DRIVERS {
            let inner = MemDisk::shared();
            let fault = FaultDisk::shared(Arc::clone(&inner) as Arc<dyn Disk>, sched);
            let result = driver(Arc::clone(&fault) as Arc<dyn Disk>, layout, &records);
            match &result {
                Ok(rows) => assert_eq!(
                    rows, &want,
                    "{dname} under {sname}: completed with a WRONG skyline"
                ),
                Err(msg) => assert!(
                    !msg.is_empty(),
                    "{dname} under {sname}: empty error message"
                ),
            }
            if sname == "none" {
                assert!(
                    result.is_ok(),
                    "{dname}: failed with no faults injected: {result:?}"
                );
                assert_eq!(fault.injected_faults(), 0, "{dname}: phantom fault");
            }
            assert_eq!(
                inner.allocated_pages(),
                0,
                "{dname} under {sname}: leaked temp pages (result: {result:?})"
            );
        }
    }
}

#[test]
fn retry_policy_absorbs_transient_faults_and_recovers_oracle() {
    let (layout, records) = workload();
    let want = oracle(&layout, &records);
    let sched = FaultSchedule {
        seed: 0xD4,
        read_period: 13,
        write_period: 11,
        transient_pct: 100,
        torn_writes: true,
        arm_after: 0,
    };
    let inner = MemDisk::shared();
    let fault = FaultDisk::shared(Arc::clone(&inner) as Arc<dyn Disk>, sched);
    let disk = RetryDisk::shared(
        Arc::clone(&fault) as Arc<dyn Disk>,
        RetryPolicy::attempts(4),
    );
    let got = run_sfs(disk as Arc<dyn Disk>, layout, &records, SortOrder::Nested)
        .expect("bounded retries must absorb all-transient faults");
    assert_eq!(got, want, "retried run produced a wrong skyline");
    assert!(fault.injected_faults() > 0, "schedule never fired");
    assert!(
        inner.stats().retries() > 0,
        "recovery happened without recorded retries"
    );
    assert_eq!(inner.allocated_pages(), 0, "retried run leaked pages");
}

#[test]
fn permanent_faults_are_not_retried_to_success() {
    let (layout, records) = workload();
    let inner = MemDisk::shared();
    let fault = FaultDisk::shared(
        Arc::clone(&inner) as Arc<dyn Disk>,
        FaultSchedule::nth_read(5),
    );
    let disk = RetryDisk::shared(
        Arc::clone(&fault) as Arc<dyn Disk>,
        RetryPolicy::attempts(10),
    );
    let result = run_sfs(disk as Arc<dyn Disk>, layout, &records, SortOrder::Nested);
    assert!(result.is_err(), "a permanent read fault must surface");
    assert_eq!(
        inner.stats().retries(),
        0,
        "permanent faults must not retry"
    );
    assert_eq!(inner.allocated_pages(), 0);
}

#[test]
fn cancelled_operators_surface_typed_error_without_leaking() {
    let (layout, records) = workload();
    let disk = MemDisk::shared();
    let spec = SkylineSpec::max_all(D);

    // SFS: pre-cancelled token trips on the very first poll.
    {
        let heap = load_heap(
            Arc::clone(&disk) as Arc<dyn Disk>,
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut sfs = sfs_filter(
            Arc::new(heap),
            layout,
            spec.clone(),
            SfsConfig::new(1),
            Arc::clone(&disk) as Arc<dyn Disk>,
            SkylineMetrics::shared(),
        )
        .unwrap()
        .with_cancel(token);
        let err = collect(&mut sfs).expect_err("cancelled sfs must error");
        assert!(
            matches!(err, ExecError::Cancelled { .. }),
            "expected Cancelled, got {err:?}"
        );
    }
    assert_eq!(disk.allocated_pages(), 0, "cancelled sfs leaked");

    // BNL: a zero deadline trips mid-stream without an explicit cancel().
    {
        let heap = load_heap(
            Arc::clone(&disk) as Arc<dyn Disk>,
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap();
        let mut op = bnl_over(
            Arc::new(heap),
            layout,
            spec.clone(),
            1,
            Arc::clone(&disk) as Arc<dyn Disk>,
            SkylineMetrics::shared(),
        )
        .unwrap()
        .with_cancel(CancelToken::with_deadline(std::time::Duration::ZERO));
        let err = collect(&mut op).expect_err("deadline-expired bnl must error");
        assert!(matches!(err, ExecError::Cancelled { .. }));
    }
    assert_eq!(disk.allocated_pages(), 0, "cancelled bnl leaked");

    // Winnow: same contract as the other window operators.
    {
        let heap = load_heap(
            Arc::clone(&disk) as Arc<dyn Disk>,
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut op = WinnowOp::new(
            Box::new(HeapScan::new(Arc::new(heap))),
            layout,
            spec,
            Arc::new(SkylinePreference),
            1,
            Arc::clone(&disk) as Arc<dyn Disk>,
            SkylineMetrics::shared(),
        )
        .unwrap()
        .with_cancel(token);
        let err = collect(&mut op).expect_err("cancelled winnow must error");
        assert!(matches!(err, ExecError::Cancelled { .. }));
    }
    assert_eq!(disk.allocated_pages(), 0, "cancelled winnow leaked");
}

/// Every batch stage polls its cancel token at batch boundaries; a
/// trip anywhere must surface as a typed `Cancelled` error and leave
/// zero temp pages behind.
#[test]
fn cancelled_batch_stages_surface_typed_error_without_leaking() {
    let (layout, records) = workload();
    let disk = MemDisk::shared();
    let spec = SkylineSpec::max_all(D);
    let fresh_heap = || {
        let heap = load_heap(
            Arc::clone(&disk) as Arc<dyn Disk>,
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap();
        Arc::new(heap)
    };

    // Batched scan: a pre-cancelled token trips at the first batch
    // boundary, before any key is extracted.
    {
        let token = CancelToken::new();
        token.cancel();
        let keys = SpecKeys::new(layout, spec.clone()).unwrap();
        let mut scan = BatchHeapScan::new(fresh_heap(), Arc::new(keys), 64).with_cancel(token);
        scan.open().unwrap();
        let mut out = KeyBatch::new(D);
        let err = scan
            .next_batch(&mut out)
            .expect_err("cancelled batch scan must error");
        assert!(
            matches!(err, ExecError::Cancelled { .. }),
            "expected Cancelled, got {err:?}"
        );
        scan.close();
    }
    assert_eq!(disk.allocated_pages(), 0, "cancelled batch scan leaked");

    // Batched presort: the narrow-entry sort checks between run builds.
    {
        let token = CancelToken::new();
        token.cancel();
        let err = match batch_presort(
            fresh_heap(),
            &layout,
            &spec,
            Arc::new(KeySumScore),
            64,
            4,
            1,
            Arc::clone(&disk) as Arc<dyn Disk>,
            SkylineMetrics::shared(),
            Some(token),
        ) {
            Ok(_) => panic!("cancelled batch presort must error"),
            Err(e) => e,
        };
        assert!(
            matches!(err, ExecError::Cancelled { .. }),
            "expected Cancelled, got {err:?}"
        );
    }
    assert_eq!(disk.allocated_pages(), 0, "cancelled batch presort leaked");

    // Whole pipeline under an already-expired deadline: whichever stage
    // polls first must unwind the sort runs, spill, and materialized
    // output alike.
    {
        let err = match batch_skyline_pipeline(
            fresh_heap(),
            &layout,
            &spec,
            BatchConfig::new(1).with_batch_rows(64),
            4,
            2,
            Arc::clone(&disk) as Arc<dyn Disk>,
            SkylineMetrics::shared(),
            None,
            Some(CancelToken::with_deadline(std::time::Duration::ZERO)),
        ) {
            Ok(_) => panic!("deadline-expired batch pipeline must error"),
            Err(e) => e,
        };
        assert!(
            matches!(err, ExecError::Cancelled { .. }),
            "expected Cancelled, got {err:?}"
        );
    }
    assert_eq!(disk.allocated_pages(), 0, "cancelled batch pipeline leaked");
}

#[test]
fn parallel_skyline_cancellation_is_typed() {
    let (layout, records) = workload();
    let km = keys_of(&layout, &records);
    let token = CancelToken::new();
    token.cancel();
    let err = parallel_skyline_cancellable(&km, 4, Some(&token))
        .expect_err("pre-cancelled parallel skyline must error");
    assert!(
        matches!(err, AlgoError::Cancelled { .. }),
        "expected Cancelled, got {err:?}"
    );
}

/// Satellite (d): dropping an external operator mid-pass must delete its
/// temp heap files (input, sorted run, spill) on the given disk.
fn drop_mid_pass_cleans_up(disk: Arc<dyn Disk>) {
    let (layout, records) = workload();
    let spec = SkylineSpec::max_all(D);
    let heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.iter().map(Vec::as_slice),
    )
    .unwrap();
    let sorted = presort(
        Arc::new(heap),
        layout,
        spec.clone(),
        SortOrder::Nested,
        None,
        4,
        Arc::clone(&disk),
    )
    .unwrap();
    let mut sfs = sfs_filter(
        Arc::new(sorted),
        layout,
        spec,
        SfsConfig::new(0), // capacity 1: guarantees a spill file mid-pass
        Arc::clone(&disk),
        SkylineMetrics::shared(),
    )
    .unwrap();
    sfs.open().unwrap();
    for _ in 0..20 {
        assert!(
            sfs.next().unwrap().is_some(),
            "expected at least 20 skyline records before abandoning"
        );
    }
    assert!(disk.allocated_pages() > 0, "operator holds pages mid-pass");
    drop(sfs); // abandoned mid-pass: spill + sorted input must vanish
    assert_eq!(
        disk.allocated_pages(),
        0,
        "abandoned operator leaked temp pages"
    );
}

/// Faults injected on the *shard workers'* own disks — the local
/// presort, local filter, and spill I/O each shard does before its
/// skyline ever reaches the exchange. A worker failure must surface as
/// one typed error from the coordinator, and every disk (all shards +
/// coordinator) must drain to zero pages regardless of which worker
/// died first.
#[test]
fn sharded_skyline_with_faulty_shard_disks_returns_oracle_or_typed_error() {
    let (layout, records) = workload();
    let want = oracle(&layout, &records);
    let spec = SkylineSpec::max_all(D);
    const SHARDS: usize = 3;
    for (sname, sched) in seeded_schedules() {
        for strategy in [
            ShardStrategy::Naive,
            ShardStrategy::Grid,
            ShardStrategy::Representative,
        ] {
            let coord = MemDisk::shared();
            let heap = load_heap(
                Arc::clone(&coord) as Arc<dyn Disk>,
                layout.record_size(),
                records.iter().map(Vec::as_slice),
            )
            .unwrap();
            let shard_inners: Vec<_> = (0..SHARDS).map(|_| MemDisk::shared()).collect();
            let shard_disks: Vec<Arc<dyn Disk>> = shard_inners
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    // reseed per shard so the workers fail at different
                    // points of their local pipelines
                    let mut s = sched;
                    if s.seed != 0 {
                        s.seed = s.seed.wrapping_add(i as u64 + 1);
                    }
                    FaultDisk::shared(Arc::clone(d) as Arc<dyn Disk>, s) as Arc<dyn Disk>
                })
                .collect();
            let result = sharded_skyline(
                Arc::new(heap),
                &layout,
                &spec,
                ShardConfig::new(SHARDS, strategy, 1)
                    .with_batch_rows(64)
                    .with_sort_pages(4),
                &shard_disks,
                Arc::clone(&coord) as Arc<dyn Disk>,
                SkylineMetrics::shared(),
                None,
            );
            let outcome = match result {
                Ok(outcome) => {
                    let rows = outcome
                        .skyline
                        .read_all()
                        .expect("coordinator disk is clean");
                    assert_eq!(
                        value_rows(&layout, rows.iter().map(Vec::as_slice)),
                        want,
                        "{strategy:?} under {sname}: completed with a WRONG skyline"
                    );
                    Some(())
                }
                Err(e) => {
                    assert!(
                        !e.to_string().is_empty(),
                        "{strategy:?} under {sname}: empty error message"
                    );
                    None
                }
            };
            if sname == "none" {
                assert!(
                    outcome.is_some(),
                    "{strategy:?}: failed with no faults injected"
                );
            }
            for (i, inner) in shard_inners.iter().enumerate() {
                assert_eq!(
                    inner.allocated_pages(),
                    0,
                    "{strategy:?} under {sname}: shard {i} leaked temp pages"
                );
            }
            assert_eq!(
                coord.allocated_pages(),
                0,
                "{strategy:?} under {sname}: coordinator leaked temp pages"
            );
        }
    }
}

/// Cancellation racing the exchange: an expired deadline trips at the
/// first poll of whichever stage runs next — routing, a shard worker
/// mid-serialization, or the coordinator merge — and must surface as a
/// typed `Cancelled` error with every disk drained.
#[test]
fn cancelled_sharded_skyline_is_typed_and_leak_free() {
    let (layout, records) = workload();
    let spec = SkylineSpec::max_all(D);
    for strategy in [
        ShardStrategy::Naive,
        ShardStrategy::Grid,
        ShardStrategy::Representative,
    ] {
        let disk = MemDisk::shared();
        let heap = load_heap(
            Arc::clone(&disk) as Arc<dyn Disk>,
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .unwrap();
        let err = match sharded_skyline_pipeline(
            Arc::new(heap),
            &layout,
            &spec,
            ShardConfig::new(3, strategy, 1)
                .with_batch_rows(64)
                .with_sort_pages(4),
            Arc::clone(&disk) as Arc<dyn Disk>,
            SkylineMetrics::shared(),
            Some(CancelToken::with_deadline(std::time::Duration::ZERO)),
        ) {
            Ok(_) => panic!("deadline-expired sharded pipeline must error ({strategy:?})"),
            Err(e) => e,
        };
        assert!(
            matches!(err, ExecError::Cancelled { .. }),
            "expected Cancelled, got {err:?} ({strategy:?})"
        );
        assert_eq!(
            disk.allocated_pages(),
            0,
            "cancelled sharded pipeline leaked ({strategy:?})"
        );
    }
}

#[test]
fn dropped_operator_cleans_temp_files_memdisk() {
    drop_mid_pass_cleans_up(MemDisk::shared() as Arc<dyn Disk>);
}

#[test]
fn dropped_operator_cleans_temp_files_filedisk() {
    let dir = std::env::temp_dir().join(format!("skyline-faultdrop-{}", std::process::id()));
    let disk = Arc::new(FileDisk::new(&dir).unwrap());
    drop_mid_pass_cleans_up(Arc::clone(&disk) as Arc<dyn Disk>);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .map(|rd| rd.filter_map(Result::ok).map(|e| e.file_name()).collect())
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "page files left on disk: {leftovers:?}"
    );
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}
