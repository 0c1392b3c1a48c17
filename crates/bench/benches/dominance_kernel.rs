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

use skyline_bench::crit::{BenchmarkId, Criterion};
use skyline_bench::{criterion_group, criterion_main};
use skyline_core::dominance_block::{key_score, BlockVerdict, BlockWindow, ReplaceWindow};
use skyline_core::dominates;
use skyline_relation::gen::WorkloadSpec;
use skyline_relation::rng::Rng;
use std::hint::black_box;

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

criterion_group!(benches, bench_kernels, bench_large_window);
criterion_main!(benches);
