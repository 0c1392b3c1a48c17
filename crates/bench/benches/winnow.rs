//! Criterion: winnow (generalized preference) vs plain skyline.

use skyline_bench::crit::Criterion;
use skyline_bench::{criterion_group, criterion_main};
use skyline_core::algo::{bnl, MemSortOrder};
use skyline_core::winnow::{winnow, LexPreference, SkylinePreference};
use skyline_core::KeyMatrix;
use skyline_relation::gen::WorkloadSpec;
use std::hint::black_box;

fn bench_winnow(c: &mut Criterion) {
    let km = KeyMatrix::new(5, WorkloadSpec::paper(20_000, 5).generate_keys(5));
    let mut g = c.benchmark_group("winnow");
    g.bench_function("winnow_skyline_pref", |b| {
        b.iter(|| black_box(winnow(&km, &SkylinePreference).0.len()));
    });
    g.bench_function("bnl_direct", |b| {
        b.iter(|| black_box(bnl(&km).indices.len()));
    });
    g.bench_function("winnow_lex_pref", |b| {
        b.iter(|| black_box(winnow(&km, &LexPreference).0.len()));
    });
    // sanity: entropy presorted SFS for scale reference
    g.bench_function("sfs_reference", |b| {
        b.iter(|| {
            black_box(
                skyline_core::algo::sfs(&km, MemSortOrder::Entropy)
                    .indices
                    .len(),
            )
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_winnow
}
criterion_main!(benches);
