//! External skyline strata (paper §4.4).
//!
//! Stratum `s₀` is the skyline; stratum `sᵢ` is the skyline of the
//! relation with strata `s₀..sᵢ₋₁` removed. This implementation iterates
//! SFS: each round runs a (multipass-safe) SFS whose *rest file* collects
//! the dominated tuples, which — re-sorted — become the next round's
//! input. This is robust to any window size, unlike the simultaneous
//! k-window scheme, which requires each stratum to fit its window (the
//! paper's 500-page windows did; [`crate::algo::strata`] provides the
//! in-memory simultaneous version).

use crate::dominance::SkylineSpec;
use crate::external::SfsConfig;
use crate::metrics::{MetricsSnapshot, SkylineMetrics};
use crate::planner::{materialize, presort, sfs_filter};
use crate::score::{EntropyScore, SortOrder};
use skyline_exec::{ExecError, Operator};
use skyline_relation::RecordLayout;
use skyline_storage::{Disk, HeapFile};
use std::sync::Arc;

/// Result of a strata computation.
pub struct StrataResult {
    /// One heap file per stratum, in stratum order; strata past the end of
    /// the data are absent.
    pub strata: Vec<HeapFile>,
    /// Aggregated operator metrics across all rounds.
    pub metrics: MetricsSnapshot,
}

/// Compute the first `k` skyline strata of `heap`.
///
/// `order`/`entropy` choose the presort (per round — the rest file loses
/// global order across pass segments and is re-sorted).
///
/// # Errors
/// Propagates operator and configuration errors.
///
/// # Panics
/// When `k` is zero.
#[allow(clippy::too_many_arguments)]
pub fn strata_external(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: &SkylineSpec,
    k: usize,
    window_pages: usize,
    sort_pages: usize,
    order: SortOrder,
    entropy: Option<EntropyScore>,
    disk: Arc<dyn Disk>,
) -> Result<StrataResult, ExecError> {
    assert!(k > 0, "need at least one stratum");
    let metrics = SkylineMetrics::shared();
    let mut strata = Vec::with_capacity(k);
    let mut input = heap;
    for _ in 0..k {
        if input.is_empty() {
            break;
        }
        let sorted = presort(
            Arc::clone(&input),
            layout,
            spec.clone(),
            order,
            entropy.clone(),
            sort_pages,
            Arc::clone(&disk),
        )?;
        let mut sfs = sfs_filter(
            Arc::new(sorted),
            layout,
            spec.clone(),
            SfsConfig::new(window_pages).with_projection().with_rest(),
            Arc::clone(&disk),
            Arc::clone(&metrics),
        )?;
        strata.push(materialize(&mut sfs, Arc::clone(&disk))?);
        match sfs.take_rest() {
            Some(rest) if !rest.is_empty() => input = Arc::new(rest),
            _ => break,
        }
    }
    Ok(StrataResult {
        strata,
        metrics: metrics.snapshot(),
    })
}

/// Label **every** tuple with its stratum number (the §6 future-work
/// item: "label each tuple with its stratum number"). Runs
/// [`strata_external`]-style rounds until the relation is exhausted and
/// writes each record into a fresh heap file with one extra attribute —
/// the stratum index — appended after the original attributes (payload
/// preserved). Returns the labeled file, its layout, and the number of
/// strata found.
///
/// # Errors
/// Propagates operator and configuration errors.
///
/// # Panics
/// Panics if the number of strata exceeds `i32::MAX` (the label column
/// is an `i32` attribute).
#[allow(clippy::too_many_arguments)]
pub fn label_strata(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: &SkylineSpec,
    window_pages: usize,
    sort_pages: usize,
    order: SortOrder,
    entropy: Option<EntropyScore>,
    disk: Arc<dyn Disk>,
) -> Result<(HeapFile, RecordLayout, usize), ExecError> {
    let out_layout = RecordLayout::new(layout.dims + 1, layout.payload);
    let mut out = HeapFile::create(Arc::clone(&disk), out_layout.record_size())?;
    let metrics = SkylineMetrics::shared();
    let mut input = heap;
    let mut stratum = 0usize;
    let mut attrs = vec![0i32; out_layout.dims];
    while !input.is_empty() {
        let sorted = presort(
            Arc::clone(&input),
            layout,
            spec.clone(),
            order,
            entropy.clone(),
            sort_pages,
            Arc::clone(&disk),
        )?;
        let mut sfs = sfs_filter(
            Arc::new(sorted),
            layout,
            spec.clone(),
            SfsConfig::new(window_pages).with_projection().with_rest(),
            Arc::clone(&disk),
            Arc::clone(&metrics),
        )?;
        sfs.open()?;
        {
            let mut w = out.writer()?;
            while let Some(r) = sfs.next()? {
                for (i, a) in attrs.iter_mut().enumerate().take(layout.dims) {
                    *a = layout.attr(r, i);
                }
                attrs[layout.dims] = i32::try_from(stratum).expect("stratum fits i32");
                w.push(&out_layout.encode(&attrs, layout.payload_of(r)))?;
            }
            w.finish()?;
        }
        let rest = sfs.take_rest();
        sfs.close();
        match rest {
            Some(rest) if !rest.is_empty() => input = Arc::new(rest),
            _ => break,
        }
        stratum += 1;
    }
    Ok((out, out_layout, stratum + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{self, MemSortOrder};
    use crate::keys::KeyMatrix;
    use crate::planner::load_heap;
    use skyline_relation::gen::WorkloadSpec;
    use skyline_storage::MemDisk;

    #[test]
    fn strata_match_in_memory_simultaneous_version() {
        let w = WorkloadSpec::paper(1_500, 99);
        let records = w.generate();
        let layout = w.layout;
        let d = 3;
        let spec = SkylineSpec::max_all(d);
        let disk = MemDisk::shared();
        let heap = Arc::new(
            load_heap(
                Arc::clone(&disk) as _,
                layout.record_size(),
                records.iter().map(Vec::as_slice),
            )
            .unwrap(),
        );
        let res = strata_external(
            heap,
            layout,
            &spec,
            4,
            8,
            50,
            SortOrder::Nested,
            None,
            Arc::clone(&disk) as _,
        )
        .unwrap();

        let rows: Vec<Vec<f64>> = records
            .iter()
            .map(|r| (0..d).map(|i| f64::from(layout.attr(r, i))).collect())
            .collect();
        let km = KeyMatrix::from_rows(&rows);
        let (mem_strata, _) = algo::strata(&km, 4, MemSortOrder::Nested);

        assert_eq!(res.strata.len(), 4);
        for (s, (file, mem)) in res.strata.iter().zip(&mem_strata).enumerate() {
            let mut got: Vec<Vec<i32>> = file
                .read_all()
                .unwrap()
                .iter()
                .map(|r| layout.decode_attrs(r)[..d].to_vec())
                .collect();
            got.sort();
            let mut expect: Vec<Vec<i32>> = mem
                .iter()
                .map(|&i| rows[i].iter().map(|&v| v as i32).collect())
                .collect();
            expect.sort();
            assert_eq!(got, expect, "stratum {s}");
        }
    }

    /// Stratum `s` must be the naive-oracle skyline of whatever is left
    /// after removing strata `0..s` — checked for the external operator
    /// on randomized integer workloads.
    #[test]
    fn external_strata_match_iterated_naive_oracle() {
        skyline_testkit::cases(6, 0x57A7_0001, |rng| {
            let d = 2 + rng.usize_below(2); // 2..=3
            let n = 20 + rng.usize_below(100);
            let layout = RecordLayout::new(d, 0);
            let recs: Vec<Vec<u8>> = (0..n)
                .map(|_| {
                    let attrs: Vec<i32> = (0..d).map(|_| rng.i32_inclusive(0, 15)).collect();
                    layout.encode(&attrs, b"")
                })
                .collect();
            let rows: Vec<Vec<f64>> = recs
                .iter()
                .map(|r| (0..d).map(|i| f64::from(layout.attr(r, i))).collect())
                .collect();
            let km = KeyMatrix::from_rows(&rows);

            let disk = MemDisk::shared();
            let heap = Arc::new(
                load_heap(
                    Arc::clone(&disk) as _,
                    layout.record_size(),
                    recs.iter().map(Vec::as_slice),
                )
                .unwrap(),
            );
            let res = strata_external(
                heap,
                layout,
                &SkylineSpec::max_all(d),
                3,
                2,
                50,
                SortOrder::Nested,
                None,
                Arc::clone(&disk) as _,
            )
            .unwrap();

            let mut remaining: Vec<usize> = (0..n).collect();
            for (s, file) in res.strata.iter().enumerate() {
                let sub = km.select(&remaining);
                let mut expect: Vec<Vec<i32>> = algo::naive(&sub)
                    .indices
                    .iter()
                    .map(|&i| rows[remaining[i]].iter().map(|&v| v as i32).collect())
                    .collect();
                expect.sort();
                let mut got: Vec<Vec<i32>> = file
                    .read_all()
                    .unwrap()
                    .iter()
                    .map(|r| layout.decode_attrs(r)[..d].to_vec())
                    .collect();
                got.sort();
                assert_eq!(got, expect, "stratum {s} disagrees with iterated oracle");
                // remove one matching row index per emitted stratum row
                // (duplicates: remove exactly as many as were emitted)
                let mut emitted = got.clone();
                remaining.retain(|&i| {
                    let row: Vec<i32> = rows[i].iter().map(|&v| v as i32).collect();
                    if let Some(p) = emitted.iter().position(|e| *e == row) {
                        emitted.swap_remove(p);
                        false
                    } else {
                        true
                    }
                });
            }
        });
    }

    #[test]
    fn strata_sizes_increase_then_data_exhausts() {
        // small chain: strata are singletons, exhausted after n rounds
        let layout = RecordLayout::new(2, 0);
        let recs: Vec<Vec<u8>> = (0..3).map(|i| layout.encode(&[i, i], b"")).collect();
        let disk = MemDisk::shared();
        let heap = Arc::new(
            load_heap(
                Arc::clone(&disk) as _,
                layout.record_size(),
                recs.iter().map(Vec::as_slice),
            )
            .unwrap(),
        );
        let res = strata_external(
            heap,
            layout,
            &SkylineSpec::max_all(2),
            10,
            2,
            50,
            SortOrder::Nested,
            None,
            Arc::clone(&disk) as _,
        )
        .unwrap();
        assert_eq!(res.strata.len(), 3, "only 3 strata exist");
        for (i, s) in res.strata.iter().enumerate() {
            assert_eq!(s.len(), 1, "stratum {i}");
        }
    }

    #[test]
    fn label_strata_matches_in_memory_labels() {
        let w = WorkloadSpec::paper(600, 123);
        let records = w.generate();
        let layout = w.layout;
        let d = 3;
        let spec = SkylineSpec::max_all(d);
        let disk = MemDisk::shared();
        let heap = Arc::new(
            load_heap(
                Arc::clone(&disk) as _,
                layout.record_size(),
                records.iter().map(Vec::as_slice),
            )
            .unwrap(),
        );
        let (labeled, out_layout, n_strata) = label_strata(
            heap,
            layout,
            &spec,
            8,
            50,
            SortOrder::Nested,
            None,
            Arc::clone(&disk) as _,
        )
        .unwrap();
        assert_eq!(labeled.len(), 600, "every tuple gets a label");

        // in-memory oracle
        let rows: Vec<Vec<f64>> = records
            .iter()
            .map(|r| (0..d).map(|i| f64::from(layout.attr(r, i))).collect())
            .collect();
        let km = KeyMatrix::from_rows(&rows);
        let labels = algo::stratum_labels(&km, MemSortOrder::Nested);
        assert_eq!(n_strata, labels.iter().max().unwrap() + 1);

        // Per-stratum key multisets must match (record identity within a
        // stratum can shuffle between equal-keyed rows).
        use std::collections::HashMap;
        let mut expect: HashMap<usize, Vec<Vec<i32>>> = HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            expect
                .entry(l)
                .or_default()
                .push(rows[i].iter().map(|&v| v as i32).collect());
        }
        let mut got: HashMap<usize, Vec<Vec<i32>>> = HashMap::new();
        for r in labeled.read_all().unwrap() {
            let attrs = out_layout.decode_attrs(&r);
            // stratum is the appended attribute, after ALL original attrs
            let stratum = attrs[out_layout.dims - 1] as usize;
            got.entry(stratum).or_default().push(attrs[..d].to_vec());
        }
        assert_eq!(got.len(), expect.len());
        for (l, mut keys) in expect {
            keys.sort();
            let mut g = got.remove(&l).unwrap_or_default();
            g.sort();
            assert_eq!(g, keys, "stratum {l}");
        }
    }

    #[test]
    fn tiny_window_still_correct() {
        let w = WorkloadSpec::paper(800, 5);
        let records = w.generate();
        let layout = w.layout;
        let spec = SkylineSpec::max_all(4);
        let disk = MemDisk::shared();
        let heap = Arc::new(
            load_heap(
                Arc::clone(&disk) as _,
                layout.record_size(),
                records.iter().map(Vec::as_slice),
            )
            .unwrap(),
        );
        let res = strata_external(
            heap,
            layout,
            &spec,
            2,
            0, // capacity clamps to 1 entry: heavy multipass
            50,
            SortOrder::Nested,
            None,
            Arc::clone(&disk) as _,
        )
        .unwrap();
        let rows: Vec<Vec<f64>> = records
            .iter()
            .map(|r| (0..4).map(|i| f64::from(layout.attr(r, i))).collect())
            .collect();
        let km = KeyMatrix::from_rows(&rows);
        let (mem_strata, _) = algo::strata(&km, 2, MemSortOrder::Nested);
        assert_eq!(res.strata[0].len(), mem_strata[0].len() as u64);
        assert_eq!(res.strata[1].len(), mem_strata[1].len() as u64);
        assert!(res.metrics.passes > 2, "expected multipass behaviour");
    }
}
