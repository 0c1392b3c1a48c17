//! Criterion micro-benchmarks of the columnar block kernel against the
//! scalar dominance loop: the same presorted SFS probe stream driven
//! through a `Vec`-of-rows window with [`dominates`] versus a
//! [`BlockWindow`] with its summary pruning, Theorem-4 cutoff and
//! level-code screen. `sfs_scalar_window` is the reference column.
//!
//! The 4 000-row streams above leave windows of a few hundred entries —
//! one arena. `large_window` is the kernel the product runs on its heavy
//! queries: 6 000 pairwise-incomparable keys (a constant-sum plane, so
//! nothing is ever dominated) at d = 4 and 7, where the window is a
//! bucket directory that has re-filed at 2 048 and 4 096 entries.
//!
//! `elimination_screen` is the first pass of every paged query: the
//! elimination filter's front test over 100 000 × 7 key columns in
//! 256-row chunks, against a fixed front, on correlated columns (nearly
//! every row dropped) and independent ones with mixed `MIN`/`MAX` signs.
//!
//! `sfs_drain` is the last stage of a paged query: the keys the
//! elimination filter forwards, in the presort's entropy order, probed
//! against and inserted into one unbounded window — 50 000 × 4
//! anti-correlated rows (jitter 0.17: ≈6 500 survivors, the size of the
//! end-to-end benchmark's `anti_d4` skyline) and 100 000 × 7 independent
//! ones with mixed signs; both windows are bucket directories. A third
//! stream, `indep_d7_unfiltered`, is all 100 000 rows in key-sum order
//! with nothing eliminated — what a window meets with no elimination
//! filter in front of it (`DIFF` groups, the gate's grids): mostly
//! dominated keys whose eligible buckets are many and whose dominator
//! is near the top. It prints the drain's model `comparisons` and
//! `lanes` beside the time.

use skyline_bench::crit::{BenchmarkId, Criterion};
use skyline_bench::{criterion_group, criterion_main};
use skyline_core::dominance_block::{key_score, BlockVerdict, BlockWindow, ReplaceWindow};
use skyline_core::external::{EliminationFilter, FrontScreen};
use skyline_core::score::nested_desc;
use skyline_core::{dominates, EntropyScore, MonotoneScore, SkylineMetrics};
use skyline_relation::gen::{Distribution, WorkloadSpec};
use skyline_relation::rng::Rng;
use skyline_relation::RecordLayout;
use std::hint::black_box;
use std::sync::Arc;

/// Score-descending oriented rows — the SFS probe stream.
fn presorted_rows(n: usize, d: usize) -> Vec<Vec<f64>> {
    let keys = WorkloadSpec::paper(n, 2003).generate_keys(d);
    let mut rows: Vec<Vec<f64>> = keys.chunks_exact(d).map(<[f64]>::to_vec).collect();
    rows.sort_by(|a, b| key_score(b).total_cmp(&key_score(a)));
    rows
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("dominance_block_kernel");
    for &d in &[2usize, 5, 7, 10] {
        let rows = presorted_rows(4_000, d);

        // the full SFS filter pass: probe, then insert survivors
        g.bench_with_input(
            BenchmarkId::new("sfs_scalar_window", d),
            &rows,
            |b, rows| {
                b.iter(|| {
                    let mut window: Vec<&[f64]> = Vec::new();
                    for key in rows {
                        if !window.iter().any(|e| dominates(e, key)) {
                            window.push(key);
                        }
                    }
                    black_box(window.len())
                });
            },
        );
        g.bench_with_input(BenchmarkId::new("sfs_block_window", d), &rows, |b, rows| {
            b.iter(|| {
                let mut window = BlockWindow::new(d, usize::MAX);
                for key in rows {
                    let (verdict, _cost) = window.probe(key);
                    if !matches!(verdict, BlockVerdict::Dominated) {
                        window.insert(key);
                    }
                }
                black_box(window.len())
            });
        });

        // the BNL shape: probes may also evict window entries
        g.bench_with_input(BenchmarkId::new("bnl_block_window", d), &rows, |b, rows| {
            b.iter(|| {
                let mut window = ReplaceWindow::new(d);
                let mut removed = Vec::new();
                // generation order (unsorted): eviction actually happens
                for key in rows.iter().rev() {
                    let (dominated, _cost) = window.probe_replace(key, &mut removed);
                    if !dominated {
                        window.push(key);
                    }
                }
                black_box(window.len())
            });
        });
    }
    g.finish();
}

/// `n` keys on the plane `Σ = 1000·d`, in generation order: pairwise
/// incomparable (or, once in a long while, equal).
fn plane_rows(n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(2003);
    (0..n)
        .map(|_| {
            let mut row: Vec<f64> = (1..d).map(|_| rng.i64_inclusive(0, 1999) as f64).collect();
            row.push(1000.0 * d as f64 - row.iter().sum::<f64>());
            row
        })
        .collect()
}

fn bench_large_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("large_window");
    for &d in &[4usize, 7] {
        let rows = plane_rows(6_000, d);
        g.bench_with_input(
            BenchmarkId::new("sfs_scalar_window", d),
            &rows,
            |b, rows| {
                b.iter(|| {
                    let mut window: Vec<&[f64]> = Vec::new();
                    for key in rows {
                        if !window.iter().any(|e| dominates(e, key)) {
                            window.push(key);
                        }
                    }
                    black_box(window.len())
                });
            },
        );
        g.bench_with_input(BenchmarkId::new("sfs_block_window", d), &rows, |b, rows| {
            b.iter(|| {
                let mut window = BlockWindow::new(d, usize::MAX);
                let mut lanes = 0;
                for key in rows {
                    let (verdict, cost) = window.probe(key);
                    lanes += cost.lanes;
                    if !matches!(verdict, BlockVerdict::Dominated) {
                        window.insert(key);
                    }
                }
                assert!(window.len() >= 4_096 && window.buckets_in_use() > 1);
                black_box((window.len(), lanes))
            });
        });
    }
    g.finish();
}

/// `n` rows of `d` columns in the paper's ±MAXINT domain, column-major
/// as a table's key columns hold them: each row's values within `jitter`
/// of one base value (correlated), or independent for `jitter` = `None`.
fn key_columns(n: usize, d: usize, jitter: Option<f64>) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(2003);
    let mut columns = vec![Vec::with_capacity(n); d];
    for _ in 0..n {
        let base = rng.f64();
        for column in &mut columns {
            let u = rng.f64();
            let x = jitter.map_or(u, |j| base + j * (u - 0.5));
            column.push((x.clamp(0.0, 1.0) * 2.0 - 1.0) * f64::from(i32::MAX));
        }
    }
    columns
}

fn bench_elimination_screen(c: &mut Criterion) {
    const CHUNK: usize = 256;
    let mut g = c.benchmark_group("elimination_screen");
    let d = 7;
    let mixed: Vec<f64> = (0..d).map(|k| [1.0, -1.0][k % 2]).collect();
    for (name, columns, signs) in [
        ("corr_d7", key_columns(100_000, d, Some(0.1)), vec![1.0; d]),
        ("indep_d7", key_columns(100_000, d, None), mixed),
    ] {
        let n = columns[0].len();
        let oriented: Vec<f64> = (0..n)
            .flat_map(|row| columns.iter().zip(&signs).map(move |(c, s)| s * c[row]))
            .collect();
        let score = Arc::new(EntropyScore::from_keys(&oriented, d));
        // the front: the best-scored row, as the filter would hold it
        let front = oriented
            .chunks_exact(d)
            .max_by(|a, b| score.score(a).total_cmp(&score.score(b)))
            .expect("rows");
        let mut screen = FrontScreen::default();
        let mut survivors = Vec::with_capacity(CHUNK);
        g.bench_function(BenchmarkId::new("front_test", name), |b| {
            b.iter(|| {
                let mut kept = 0;
                for lo in (0..n).step_by(CHUNK) {
                    let hi = n.min(lo + CHUNK);
                    let column = |k: usize| (&columns[k][lo..hi], signs[k]);
                    screen.run(front, hi - lo, column, &mut survivors);
                    kept += survivors.len();
                }
                black_box(kept)
            });
        });
    }
    g.finish();
}

/// `spec`'s first `d` columns, oriented by `signs`, row-major.
fn oriented_keys(spec: &WorkloadSpec, d: usize, signs: &[f64]) -> Vec<f64> {
    spec.generate_keys(d)
        .chunks_exact(d)
        .flat_map(|row| row.iter().zip(signs).map(|(v, s)| v * s))
        .collect()
}

/// The rows of `spec`'s first `d` columns, oriented by `signs`, that the
/// elimination filter forwards, sorted as the presort emits them:
/// entropy score descending, then nested descending, then arrival.
fn forwarded_sorted(spec: &WorkloadSpec, d: usize, signs: &[f64]) -> Vec<Vec<f64>> {
    let oriented = oriented_keys(spec, d, signs);
    let score = Arc::new(EntropyScore::from_keys(&oriented, d));
    let mut filter = EliminationFilter::new(d, score.clone(), SkylineMetrics::shared());
    let mut rows: Vec<(f64, &[f64])> = oriented
        .chunks_exact(d)
        .filter(|key| filter.admit(key))
        .map(|key| (score.score(key), key))
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| nested_desc(a.1, b.1)));
    rows.into_iter().map(|(_, key)| key.to_vec()).collect()
}

/// Drain `rows` through a fresh unbounded window, the SFS rule: a key no
/// entry dominates is inserted. Returns the window and the model cost.
fn drain(rows: &[Vec<f64>], d: usize) -> (BlockWindow, u64, u64) {
    let mut window = BlockWindow::new(d, usize::MAX);
    let (mut comparisons, mut lanes) = (0, 0);
    for key in rows {
        let (verdict, cost) = window.probe(key);
        comparisons += cost.comparisons;
        lanes += cost.lanes;
        if !matches!(verdict, BlockVerdict::Dominated) {
            window.insert(key);
        }
    }
    (window, comparisons, lanes)
}

fn bench_sfs_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("sfs_drain");
    let anti = WorkloadSpec {
        layout: RecordLayout::new(4, 0),
        dist: Distribution::AntiCorrelated { jitter: 0.17 },
        domain: (0, 1_000_000),
        ..WorkloadSpec::paper(50_000, 2003)
    };
    let indep = WorkloadSpec::paper(100_000, 2003);
    let mixed: Vec<f64> = (0..7).map(|k| [1.0, -1.0][k % 2]).collect();
    let mut unfiltered: Vec<Vec<f64>> = oriented_keys(&indep, 7, &mixed)
        .chunks_exact(7)
        .map(<[f64]>::to_vec)
        .collect();
    unfiltered.sort_by(|a, b| key_score(b).total_cmp(&key_score(a)));
    for (name, rows) in [
        ("anti_d4", forwarded_sorted(&anti, 4, &[1.0; 4])),
        ("indep_d7", forwarded_sorted(&indep, 7, &mixed)),
        ("indep_d7_unfiltered", unfiltered),
    ] {
        let d = rows[0].len();
        // the survivors are the skyline of what was forwarded
        let mut skyline: Vec<&[f64]> = Vec::new();
        for key in &rows {
            if !skyline.iter().any(|e| dominates(e, key)) {
                skyline.push(key);
            }
        }
        let (window, comparisons, lanes) = drain(&rows, d);
        assert_eq!(window.len(), skyline.len(), "{name}: survivors");
        assert!(window.buckets_in_use() > 1, "{name}: the directory split");
        println!(
            "  {name}: {} forwarded, {} survivors in {} buckets; comparisons {comparisons}, lanes {lanes}",
            rows.len(),
            window.len(),
            window.buckets_in_use(),
        );
        g.bench_with_input(BenchmarkId::new("drain", name), &rows, |b, rows| {
            b.iter(|| drain(rows, d).0.len());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_large_window,
    bench_elimination_screen,
    bench_sfs_drain
);
criterion_main!(benches);
