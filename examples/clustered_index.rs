//! §4.2's clustered-index hazard, live: BNL's cost swings with the order
//! tuples happen to arrive in — and a clustered B+-tree makes "random"
//! arrival impossible — while SFS, which imposes its own order, does not
//! care.
//!
//! ```sh
//! cargo run --release --example clustered_index
//! ```

use skyline::core::planner::{load_heap, presort, sfs_filter};
use skyline::core::{Bnl, SfsConfig, SkylineMetrics, SkylineSpec, SortOrder};
use skyline::exec::{HeapScan, IndexScan, Operator};
use skyline::relation::gen::WorkloadSpec;
use skyline::storage::btree::key_codec::i32_key;
use skyline::storage::{BTree, Disk, MemDisk};
use std::sync::Arc;
use std::time::Instant;

fn drain(op: &mut dyn Operator) -> u64 {
    op.open().expect("open");
    let mut n = 0;
    while op.next().expect("next").is_some() {
        n += 1;
    }
    op.close();
    n
}

fn main() {
    let n = 100_000;
    let d = 5;
    let window_pages = 2;
    let w = WorkloadSpec::paper(n, 2003);
    let records = w.generate();
    let layout = w.layout;
    let spec = SkylineSpec::max_all(d);
    let disk = MemDisk::shared();

    // the base heap (random generation order)
    let heap = Arc::new(
        load_heap(
            Arc::clone(&disk) as Arc<dyn Disk>,
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .expect("load heap"),
    );

    // a clustered index on attribute 0, ascending
    let mut pairs: Vec<([u8; 4], &[u8])> = records
        .iter()
        .map(|r| (i32_key(layout.attr(r, 0)), r.as_slice()))
        .collect();
    pairs.sort_by_key(|p| p.0);
    let tree = BTree::bulk_load(
        Arc::clone(&disk) as Arc<dyn Disk>,
        4,
        layout.record_size(),
        pairs.iter().map(|(k, r)| (k.as_slice(), *r)),
    )
    .expect("bulk load");
    let tree = Arc::new(tree);
    println!(
        "clustered B+-tree: {} records, height {}, {} pages",
        tree.len(),
        tree.height(),
        tree.num_pages()
    );

    let run_bnl = |label: &str, child: Box<dyn Operator>| {
        let metrics = SkylineMetrics::shared();
        let mut bnl = Bnl::new(
            child,
            layout,
            spec.clone(),
            window_pages,
            Arc::clone(&disk) as Arc<dyn Disk>,
            Arc::clone(&metrics),
        )
        .expect("bnl");
        let t = Instant::now();
        let sky = drain(&mut bnl);
        let snap = metrics.snapshot();
        println!(
            "{label:<34} {:>8.1?}  skyline={sky}  comparisons={:>10}  spilled={}",
            t.elapsed(),
            snap.comparisons,
            snap.temp_records
        );
        sky
    };

    println!("\nBNL with a {window_pages}-page window, three input orders:");
    let a = run_bnl(
        "heap (random) order",
        Box::new(HeapScan::new(Arc::clone(&heap))),
    );
    let b = run_bnl(
        "clustered index order (a0 ASC)",
        Box::new(IndexScan::new(Arc::clone(&tree), layout.record_size())),
    );
    assert_eq!(a, b);

    // SFS re-sorts, so the input order is irrelevant — whatever arrives,
    // it imposes its own monotone order first.
    let t = Instant::now();
    let sorted = presort(
        Arc::clone(&heap),
        layout,
        spec.clone(),
        SortOrder::Nested,
        None,
        1000,
        Arc::clone(&disk) as Arc<dyn Disk>,
    )
    .expect("presort");
    let metrics = SkylineMetrics::shared();
    let mut sfs = sfs_filter(
        Arc::new(sorted),
        layout,
        spec,
        SfsConfig::new(window_pages).with_projection(),
        Arc::clone(&disk) as Arc<dyn Disk>,
        Arc::clone(&metrics),
    )
    .expect("sfs");
    let sky = drain(&mut sfs);
    println!(
        "{:<34} {:>8.1?}  skyline={sky}  comparisons={:>10}  spilled={}",
        "SFS w/P, nested presort",
        t.elapsed(),
        metrics.snapshot().comparisons,
        metrics.snapshot().temp_records
    );
    assert_eq!(a, sky);
    println!(
        "\n→ Same answer every time; only BNL's cost moves with the input\n\
         order. That unpredictability is §4.2's argument for SFS in a\n\
         relational engine."
    );
}
