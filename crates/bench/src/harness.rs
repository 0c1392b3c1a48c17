//! Shared experiment runners.

use skyline_core::metrics::MetricsSnapshot;
use skyline_core::planner::{
    entropy_stats_of_records, load_heap, materialize, presort, sfs_filter,
};
use skyline_core::score::{EntropyScore, SortOrder};
use skyline_core::{Bnl, SfsConfig, SkylineMetrics, SkylineSpec};
use skyline_exec::Operator;
use skyline_relation::gen::WorkloadSpec;
use skyline_relation::RecordLayout;
use skyline_storage::{Disk, HeapFile, IoSnapshot, MemDisk};
use std::sync::Arc;
use std::time::Instant;

/// A generated-and-loaded dataset shared across one experiment's sweep.
pub struct Dataset {
    /// The simulated disk all files live on.
    pub disk: Arc<MemDisk>,
    /// The base table (paper layout).
    pub heap: Arc<HeapFile>,
    /// Record layout.
    pub layout: RecordLayout,
    /// Tuple count.
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    /// Per-dimension entropy stats caches, keyed by `d` (index = d).
    stats: Vec<Option<EntropyScore>>,
}

impl Dataset {
    /// Generate the paper's uniform dataset at scale `n` and load it.
    pub fn paper(n: usize, seed: u64) -> Self {
        Dataset::from_spec(WorkloadSpec::paper(n, seed))
    }

    /// Generate any workload spec and load it.
    ///
    /// # Panics
    /// Panics if loading the generated records into the in-memory disk
    /// fails (benchmarks have no error channel to report into).
    pub fn from_spec(spec: WorkloadSpec) -> Self {
        let records = spec.generate();
        let disk = MemDisk::shared();
        let heap = Arc::new(
            load_heap(
                Arc::clone(&disk) as Arc<dyn Disk>,
                spec.layout.record_size(),
                records.iter().map(Vec::as_slice),
            )
            .expect("load dataset"),
        );
        let layout = spec.layout;
        let mut stats = vec![None];
        for d in 1..=layout.dims {
            let s = SkylineSpec::max_all(d);
            stats.push(Some(entropy_stats_of_records(
                &layout,
                &s,
                records.iter().map(Vec::as_slice),
            )));
        }
        Dataset {
            disk,
            heap,
            layout,
            n: spec.n,
            seed: spec.seed,
            stats,
        }
    }

    /// Catalog-style entropy stats for a `d`-dimensional all-max spec.
    ///
    /// # Panics
    /// Panics if `d` exceeds the layout's dimension count — stats are
    /// precomputed for `1..=dims` at load time.
    pub fn entropy(&self, d: usize) -> EntropyScore {
        self.stats[d]
            .clone()
            .expect("stats precomputed for all dims")
    }

    /// Pages occupied by the base table.
    pub fn base_pages(&self) -> u64 {
        self.heap.num_pages()
    }
}

/// Which presort an SFS run uses (None = the input's natural order, only
/// valid when the caller sorted already).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfsVariant {
    /// Basic SFS: nested sort, full-record window entries.
    Basic,
    /// SFS w/E: entropy presort.
    Entropy,
    /// SFS w/E,P: entropy presort plus the projection optimization.
    EntropyProjection,
}

impl SfsVariant {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SfsVariant::Basic => "SFS",
            SfsVariant::Entropy => "SFS w/E",
            SfsVariant::EntropyProjection => "SFS w/E,P",
        }
    }
}

/// Outcome of one skyline run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Sort-phase wall time in milliseconds (0 for BNL).
    pub sort_ms: f64,
    /// Filter-phase wall time in milliseconds.
    pub filter_ms: f64,
    /// Skyline size.
    pub skyline: u64,
    /// Filter-phase temp I/O: pages written + pages read beyond the
    /// input scan ("extra pages ×2 I/O" in the paper's terms).
    pub extra_ios: u64,
    /// Pages written to temp files by the filter phase.
    pub extra_pages_written: u64,
    /// Operator counters.
    pub metrics: MetricsSnapshot,
}

impl RunResult {
    /// Total wall time (sort + filter).
    pub fn total_ms(&self) -> f64 {
        self.sort_ms + self.filter_ms
    }

    /// Total time with the filter phase's extra-page transfers charged to
    /// a simulated disk — recovers the paper's time curves, where the
    /// multipass configurations also paid real device time (`MemDisk`
    /// transfers are free, so wall-clock alone under-weights multipass).
    pub fn total_ms_with_disk(&self, model: &skyline_storage::DiskCostModel) -> f64 {
        // extra_ios counts both directions; charge the average cost
        let per_page_ms = (model.read_us + model.write_us) / 2.0 / 1_000.0;
        self.total_ms() + self.extra_ios as f64 * per_page_ms
    }
}

fn drain(op: &mut dyn Operator) -> u64 {
    op.open().expect("open");
    let mut n = 0u64;
    while op.next().expect("next").is_some() {
        n += 1;
    }
    op.close();
    n
}

fn filter_io(before: IoSnapshot, after: IoSnapshot, input_pages: u64) -> (u64, u64) {
    let delta = after.since(&before);
    // the input scan reads `input_pages` once; everything else is temp
    // traffic. Multipass scans of the shrinking temp files are included —
    // they are exactly the paper's "extra pages".
    let extra_reads = delta.reads.saturating_sub(input_pages);
    (delta.writes + extra_reads, delta.writes)
}

/// Run one SFS configuration (sort phase + filter phase, timed and
/// I/O-accounted separately).
///
/// # Panics
/// Panics on any storage or operator error — benchmarks have no error
/// channel to report into.
pub fn run_sfs(ds: &Dataset, d: usize, window_pages: usize, variant: SfsVariant) -> RunResult {
    let spec = SkylineSpec::max_all(d);
    let disk = Arc::clone(&ds.disk) as Arc<dyn Disk>;

    let (order, entropy) = match variant {
        SfsVariant::Basic => (SortOrder::Nested, None),
        _ => (SortOrder::Entropy, Some(ds.entropy(d))),
    };

    let t0 = Instant::now();
    let sorted = presort(
        Arc::clone(&ds.heap),
        ds.layout,
        spec.clone(),
        order,
        entropy,
        1000, // the paper's sort allocation
        Arc::clone(&disk),
    )
    .expect("presort");
    let sort_ms = t0.elapsed().as_secs_f64() * 1e3;

    let sorted = Arc::new(sorted);
    let input_pages = sorted.num_pages();
    let cfg = match variant {
        SfsVariant::EntropyProjection => SfsConfig::new(window_pages).with_projection(),
        _ => SfsConfig::new(window_pages),
    };
    let metrics = SkylineMetrics::shared();
    let mut sfs = sfs_filter(
        Arc::clone(&sorted),
        ds.layout,
        spec,
        cfg,
        Arc::clone(&disk),
        Arc::clone(&metrics),
    )
    .expect("sfs");
    let before = ds.disk.stats().snapshot();
    let t1 = Instant::now();
    let skyline = drain(&mut sfs);
    let filter_ms = t1.elapsed().as_secs_f64() * 1e3;
    let (extra_ios, extra_pages_written) =
        filter_io(before, ds.disk.stats().snapshot(), input_pages);

    RunResult {
        sort_ms,
        filter_ms,
        skyline,
        extra_ios,
        extra_pages_written,
        metrics: metrics.snapshot(),
    }
}

/// Input orders for BNL runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BnlInput {
    /// The heap's natural order — random, since the generator is random
    /// (the paper's "BNL").
    Natural,
    /// Entropy-ascending order — the adversarial "BNL w/RE".
    ReverseEntropy,
}

impl BnlInput {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            BnlInput::Natural => "BNL",
            BnlInput::ReverseEntropy => "BNL w/RE",
        }
    }
}

/// Run one BNL configuration. For [`BnlInput::ReverseEntropy`] the input
/// is first materialized in reverse-entropy order (sort cost *not*
/// charged to BNL — the adversarial order stands in for unlucky clustered
/// input arriving for free, as the paper argues).
///
/// # Panics
/// Panics on any storage or operator error — benchmarks have no error
/// channel to report into.
pub fn run_bnl(ds: &Dataset, d: usize, window_pages: usize, input: BnlInput) -> RunResult {
    let spec = SkylineSpec::max_all(d);
    let disk = Arc::clone(&ds.disk) as Arc<dyn Disk>;

    let input_heap: Arc<HeapFile> = match input {
        BnlInput::Natural => Arc::clone(&ds.heap),
        BnlInput::ReverseEntropy => {
            let sorted = presort(
                Arc::clone(&ds.heap),
                ds.layout,
                spec.clone(),
                SortOrder::ReverseEntropy,
                Some(ds.entropy(d)),
                1000,
                Arc::clone(&disk),
            )
            .expect("presort");
            Arc::new(sorted)
        }
    };
    let input_pages = input_heap.num_pages();
    let metrics = SkylineMetrics::shared();
    let scan = Box::new(skyline_exec::HeapScan::new(Arc::clone(&input_heap)));
    let mut bnl = Bnl::new(
        scan,
        ds.layout,
        spec,
        window_pages,
        Arc::clone(&disk),
        Arc::clone(&metrics),
    )
    .expect("bnl");
    let before = ds.disk.stats().snapshot();
    let t0 = Instant::now();
    let skyline = drain(&mut bnl);
    let filter_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (extra_ios, extra_pages_written) =
        filter_io(before, ds.disk.stats().snapshot(), input_pages);
    RunResult {
        sort_ms: 0.0,
        filter_ms,
        skyline,
        extra_ios,
        extra_pages_written,
        metrics: metrics.snapshot(),
    }
}

/// Time just the sort phase (for the paper's nested-57s vs entropy-37s
/// comparison).
///
/// # Panics
/// Panics if the presort fails — benchmarks have no error channel to
/// report into.
pub fn run_sort_only(ds: &Dataset, d: usize, order: SortOrder) -> (f64, u64) {
    let spec = SkylineSpec::max_all(d);
    let entropy = match order {
        SortOrder::Nested => None,
        _ => Some(ds.entropy(d)),
    };
    let t0 = Instant::now();
    let sorted = presort(
        Arc::clone(&ds.heap),
        ds.layout,
        spec,
        order,
        entropy,
        1000,
        Arc::clone(&ds.disk) as Arc<dyn Disk>,
    )
    .expect("presort");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, sorted.len())
}

/// BNL fed from a clustered B+-tree index scan on attribute 0 — the
/// §4.2 scenario ("if a table has a clustered (tree) index, which is
/// quite likely, its tuples are ordered in the heapfile"). `ascending`
/// keys put the worst attribute-0 values first (bad for BNL); descending
/// keys put likely dominators first (good).
///
/// # Panics
/// Panics on any storage or operator error — benchmarks have no error
/// channel to report into.
pub fn run_bnl_clustered(
    ds: &Dataset,
    d: usize,
    window_pages: usize,
    ascending: bool,
) -> RunResult {
    use skyline_exec::IndexScan;
    use skyline_storage::btree::key_codec::i32_key;
    use skyline_storage::BTree;

    let spec = SkylineSpec::max_all(d);
    let disk = Arc::clone(&ds.disk) as Arc<dyn Disk>;

    // cluster on attribute 0 (order-preserving key; negate for desc)
    let mut pairs: Vec<([u8; 4], Vec<u8>)> = Vec::with_capacity(ds.n);
    let mut scan = ds.heap.scan();
    while let Some(r) = scan.next_record().expect("scan") {
        let a0 = ds.layout.attr(r, 0);
        let k = if ascending {
            a0
        } else {
            a0.wrapping_neg().max(i32::MIN + 1)
        };
        pairs.push((i32_key(k), r.to_vec()));
    }
    pairs.sort_by_key(|p| p.0);
    let tree = BTree::bulk_load(
        Arc::clone(&disk),
        4,
        ds.layout.record_size(),
        pairs.iter().map(|(k, r)| (k.as_slice(), r.as_slice())),
    )
    .expect("bulk load");
    let tree = Arc::new(tree);
    let input_pages = tree.num_pages();

    let metrics = SkylineMetrics::shared();
    let scan = Box::new(IndexScan::new(Arc::clone(&tree), ds.layout.record_size()));
    let mut bnl = Bnl::new(
        scan,
        ds.layout,
        spec,
        window_pages,
        Arc::clone(&disk),
        Arc::clone(&metrics),
    )
    .expect("bnl");
    let before = ds.disk.stats().snapshot();
    let t0 = Instant::now();
    let skyline = drain(&mut bnl);
    let filter_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (extra_ios, extra_pages_written) =
        filter_io(before, ds.disk.stats().snapshot(), input_pages);
    RunResult {
        sort_ms: 0.0,
        filter_ms,
        skyline,
        extra_ios,
        extra_pages_written,
        metrics: metrics.snapshot(),
    }
}

/// Time the nested sort with the comparator's DSU prefix key *disabled* —
/// the multi-attribute comparison cost the paper's nested sort pays.
///
/// # Panics
/// Panics if the sort or materialization fails — benchmarks have no
/// error channel to report into.
pub fn run_sort_only_no_dsu(ds: &Dataset, d: usize) -> (f64, u64) {
    use skyline_core::score::SkylineOrderCmp;
    use skyline_exec::{ExternalSort, HeapScan, RecordComparator, SortBudget};

    /// Delegates `cmp` but withholds the prefix key.
    struct NoDsu(SkylineOrderCmp);
    impl RecordComparator for NoDsu {
        fn cmp(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
            self.0.cmp(a, b)
        }
    }

    let spec = SkylineSpec::max_all(d);
    let cmp = Arc::new(NoDsu(SkylineOrderCmp::new(
        ds.layout,
        spec,
        SortOrder::Nested,
        None,
    )));
    let disk = Arc::clone(&ds.disk) as Arc<dyn Disk>;
    let scan = Box::new(HeapScan::new(Arc::clone(&ds.heap)));
    let mut sort = ExternalSort::new(scan, cmp, Arc::clone(&disk), SortBudget::pages(1000));
    let t0 = Instant::now();
    let sorted = skyline_core::planner::materialize(&mut sort, disk).expect("materialize");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, sorted.len())
}

/// Dimensional-reduction pre-pass (paper Fig. 8): nested-sort, group by
/// the first `d−1` attributes taking `max(a_d)`, return (reduced heap,
/// reduced count).
///
/// # Panics
/// Panics if the sort, grouping, or materialization fails — benchmarks
/// have no error channel to report into.
pub fn dimensional_reduction(ds: &Dataset, d: usize) -> (HeapFile, u64) {
    use skyline_core::score::SkylineOrderCmp;
    use skyline_exec::{ExternalSort, GroupMax, HeapScan, SortBudget};
    let spec = SkylineSpec::max_all(d);
    let disk = Arc::clone(&ds.disk) as Arc<dyn Disk>;
    let cmp = Arc::new(SkylineOrderCmp::new(
        ds.layout,
        spec,
        SortOrder::Nested,
        None,
    ));
    let scan = Box::new(HeapScan::new(Arc::clone(&ds.heap)));
    let sort = Box::new(ExternalSort::new(
        scan,
        cmp,
        Arc::clone(&disk),
        SortBudget::pages(1000),
    ));
    let mut gm = GroupMax::new(sort, ds.layout, (0..d - 1).collect(), d - 1).expect("group max");
    let reduced = materialize(&mut gm, disk).expect("materialize");
    let n = reduced.len();
    (reduced, n)
}

/// Parse common CLI args: `--scale N`, `--seed S`, plus `SKYLINE_SCALE`
/// env fallback. Returns (scale, seed, full: bool).
///
/// # Panics
/// Panics on unknown flags or unparsable values — bad CLI input should
/// stop a bench run loudly, not fall back to defaults.
pub fn parse_args() -> (usize, u64, bool) {
    let mut scale: usize = std::env::var("SKYLINE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let mut seed: u64 = 2003;
    let mut full = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args[i + 1].parse().expect("--scale N");
                i += 2;
            }
            "--seed" => {
                seed = args[i + 1].parse().expect("--seed S");
                i += 2;
            }
            "--full" => {
                full = true;
                i += 1;
            }
            other => panic!("unknown argument {other} (use --scale N --seed S --full)"),
        }
    }
    (scale, seed, full)
}

/// Window sweep used across the figures, in pages, scaled so the largest
/// window comfortably exceeds the skyline at the given scale.
pub fn window_sweep() -> Vec<usize> {
    vec![1, 2, 5, 10, 20, 50, 100, 200, 400]
}

/// Estimated dominance comparisons for a BNL w/RE run — used to curtail
/// configurations that would run for hours, as the paper did ("the lines
/// for BNL (w/RE) stop because we curtailed experiments").
pub fn re_cost_estimate(n: usize) -> f64 {
    (n as f64) * (n as f64) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::algo;
    use skyline_core::KeyMatrix;

    fn oracle_size(ds: &Dataset, d: usize) -> u64 {
        let mut rows = Vec::new();
        let mut scan = ds.heap.scan();
        while let Some(r) = scan.next_record().expect("scan") {
            rows.push(
                (0..d)
                    .map(|i| f64::from(ds.layout.attr(r, i)))
                    .collect::<Vec<_>>(),
            );
        }
        algo::naive(&KeyMatrix::from_rows(&rows)).indices.len() as u64
    }

    #[test]
    fn sfs_variants_and_bnl_agree_with_oracle() {
        let ds = Dataset::paper(4_000, 17);
        let d = 4;
        let expect = oracle_size(&ds, d);
        for variant in [
            SfsVariant::Basic,
            SfsVariant::Entropy,
            SfsVariant::EntropyProjection,
        ] {
            let r = run_sfs(&ds, d, 2, variant);
            assert_eq!(r.skyline, expect, "{}", variant.label());
        }
        for input in [BnlInput::Natural, BnlInput::ReverseEntropy] {
            let r = run_bnl(&ds, d, 2, input);
            assert_eq!(r.skyline, expect, "{}", input.label());
        }
    }

    #[test]
    fn window_size_does_not_change_result() {
        let ds = Dataset::paper(3_000, 23);
        let d = 5;
        let base = run_sfs(&ds, d, 50, SfsVariant::EntropyProjection).skyline;
        for w in [1, 2, 8] {
            assert_eq!(
                run_sfs(&ds, d, w, SfsVariant::EntropyProjection).skyline,
                base
            );
            assert_eq!(run_bnl(&ds, d, w, BnlInput::Natural).skyline, base);
        }
    }

    #[test]
    fn big_window_means_single_pass_and_no_extra_io() {
        let ds = Dataset::paper(3_000, 29);
        let r = run_sfs(&ds, 5, 400, SfsVariant::EntropyProjection);
        assert_eq!(r.metrics.passes, 1);
        assert_eq!(r.extra_ios, 0);
        assert_eq!(r.extra_pages_written, 0);
        let b = run_bnl(&ds, 5, 400, BnlInput::Natural);
        assert_eq!(b.metrics.passes, 1);
        assert_eq!(b.extra_ios, 0);
    }

    #[test]
    fn entropy_order_reduces_sfs_extra_io() {
        // The headline §4.3 claim: entropy presort fills the window with
        // strong dominators, shrinking subsequent passes.
        let ds = Dataset::paper(30_000, 31);
        let d = 6;
        let basic = run_sfs(&ds, d, 1, SfsVariant::Basic);
        let entropy = run_sfs(&ds, d, 1, SfsVariant::Entropy);
        assert!(
            entropy.extra_pages_written <= basic.extra_pages_written,
            "entropy {} should not exceed basic {}",
            entropy.extra_pages_written,
            basic.extra_pages_written
        );
    }

    #[test]
    fn re_order_is_adversarial_for_bnl() {
        let ds = Dataset::paper(10_000, 37);
        let d = 5;
        let nat = run_bnl(&ds, d, 1, BnlInput::Natural);
        let re = run_bnl(&ds, d, 1, BnlInput::ReverseEntropy);
        // The batched window kernel prunes part of the adversarial churn,
        // so the gap is narrower than the scalar era's 2×+ — but reverse
        // entropy must still cost decisively more.
        assert!(
            re.metrics.comparisons * 2 > 3 * nat.metrics.comparisons,
            "RE {} vs natural {}",
            re.metrics.comparisons,
            nat.metrics.comparisons
        );
        assert!(re.extra_pages_written >= nat.extra_pages_written);
    }

    #[test]
    fn dimensional_reduction_shrinks_and_preserves_skyline() {
        let spec = WorkloadSpec::small_domain(20_000, 41);
        let ds = Dataset::from_spec(spec);
        let d = 4;
        let (reduced, n_reduced) = dimensional_reduction(&ds, d);
        assert!(n_reduced < ds.n as u64 / 2, "reduced to {n_reduced}");
        // Skyline of the reduced table equals the skyline of the original
        // as a *set of key values* (GROUP BY collapses duplicate tuples,
        // which SFS alone reports once per copy).
        let distinct_keys = |heap: &skyline_storage::HeapFile| {
            let mut scan = heap.scan();
            let mut rows = Vec::new();
            while let Some(r) = scan.next_record().expect("scan") {
                rows.push(
                    (0..d)
                        .map(|i| f64::from(ds.layout.attr(r, i)))
                        .collect::<Vec<_>>(),
                );
            }
            let km = KeyMatrix::from_rows(&rows);
            let mut keys: Vec<Vec<i64>> = algo::naive(&km)
                .indices
                .iter()
                .map(|&i| rows[i].iter().map(|&v| v as i64).collect())
                .collect();
            keys.sort();
            keys.dedup();
            keys
        };
        let full_sky = distinct_keys(&ds.heap);
        let red_sky = distinct_keys(&reduced);
        assert_eq!(red_sky, full_sky);
    }

    #[test]
    fn no_disk_leaks_across_runs() {
        let ds = Dataset::paper(2_000, 43);
        let before = ds.disk.allocated_pages();
        let _ = run_sfs(&ds, 4, 1, SfsVariant::EntropyProjection);
        let _ = run_bnl(&ds, 4, 1, BnlInput::ReverseEntropy);
        assert_eq!(ds.disk.allocated_pages(), before);
    }
}
