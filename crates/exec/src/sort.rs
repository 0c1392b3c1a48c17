//! External merge sort under a page budget — SFS's presort.
//!
//! Run formation fills a `budget`-page arena, sorts it, and writes a run to
//! a temp heap file; runs are then merged `budget − 1` at a time; the final
//! merge streams through [`Operator::next`] so the sort's consumer (the
//! skyline filter) starts receiving tuples as soon as the last merge pass
//! begins. If the whole input fits in the arena no run file is written and
//! the sort is purely in-memory — the same fast path a real engine takes.
//!
//! The comparator is pluggable: the paper sorts by *any monotone scoring
//! function* (nested `ORDER BY a₁ DESC, …, a_k DESC`, or the entropy score
//! `E`), and `skyline-core` provides those comparators.

use crate::cancel::{poll, CancelToken};
use crate::error::ExecError;
use crate::op::{BoxedOperator, Operator};
use crate::queue::WorkQueue;
use crate::sync_util::lock;
use skyline_storage::{Disk, HeapFile, SharedScanner};
use std::cmp::Ordering;
use std::sync::{Arc, Mutex};

/// Total order over raw records. Implementations must be consistent
/// (transitive, antisymmetric up to ties).
pub trait RecordComparator: Send + Sync {
    /// Compare two records; `Less` sorts first.
    fn cmp(&self, a: &[u8], b: &[u8]) -> Ordering;

    /// Optional decorate-sort-undecorate key: a 64-bit value computed
    /// once per record whose **ascending** order refines the comparator —
    /// `prefix_key(a) < prefix_key(b)` must imply `cmp(a, b) == Less`
    /// (equal keys fall back to `cmp`). Implementations should return
    /// `Some` for every record or `None` for every record; a comparator
    /// that stops offering keys mid-stream demotes the sort to pure
    /// comparisons (correct, just slower) rather than aborting.
    ///
    /// This is how the paper's entropy sort wins over the nested sort:
    /// "sorting on a single attribute (the tuples' E value, computed
    /// on-the-fly) … is faster than nested-sorting over a number of
    /// attributes." The score is computed once per record instead of
    /// twice per comparison.
    fn prefix_key(&self, _record: &[u8]) -> Option<u64> {
        None
    }
}

/// Map an f64 onto a u64 whose unsigned order equals the float's order
/// (total for non-NaN inputs). Standard sign-flip trick.
#[inline]
pub fn f64_ascending_bits(v: f64) -> u64 {
    debug_assert!(!v.is_nan());
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Like [`f64_ascending_bits`] but for sorting **descending** (largest
/// value gets the smallest key).
#[inline]
pub fn f64_descending_bits(v: f64) -> u64 {
    !f64_ascending_bits(v)
}

impl<F> RecordComparator for F
where
    F: Fn(&[u8], &[u8]) -> Ordering + Send + Sync,
{
    fn cmp(&self, a: &[u8], b: &[u8]) -> Ordering {
        self(a, b)
    }
}

/// Memory budget for the sort, in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortBudget {
    /// Pages available for run formation / merge fan-in. Minimum 3
    /// (two inputs + one output, the classic external-sort floor).
    pub pages: usize,
}

impl SortBudget {
    /// A budget of `pages` pages.
    ///
    /// # Panics
    /// Panics if `pages < 3`.
    pub fn pages(pages: usize) -> Self {
        assert!(pages >= 3, "external sort needs at least 3 pages");
        SortBudget { pages }
    }

    fn arena_bytes(self) -> usize {
        self.pages * skyline_storage::PAGE_SIZE
    }

    fn fan_in(self) -> usize {
        self.pages - 1
    }
}

enum SortState {
    /// Not opened yet.
    Idle,
    /// Whole input fit in memory; stream from the sorted arena.
    InMemory {
        arena: Vec<u8>,
        order: Vec<u32>,
        pos: usize,
    },
    /// Streaming the final k-way merge.
    Merging(KWayMerge),
}

/// What run formation produced: either the whole input in one arena (no
/// spill) or a set of sorted run files, plus the records consumed (the
/// progress count cancellation errors report at merge-pass boundaries).
enum FormOutcome {
    InMemory(Vec<u8>),
    Runs(Vec<Arc<HeapFile>>, u64),
}

/// Resolve a thread-count knob: 0 means one per available core, and the
/// result is clamped to `1..=64` (matching `par.rs` upstream).
pub fn effective_threads(threads: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    };
    t.clamp(1, 64)
}

/// The worker-shareable core of run formation: everything needed to sort
/// an arena and write or merge runs, detached from the operator so scoped
/// worker threads can use it while the producer thread owns `self.child`.
struct RunFormer {
    cmp: Arc<dyn RecordComparator>,
    disk: Arc<dyn Disk>,
    record_size: usize,
}

impl RunFormer {
    fn sort_arena(&self, arena: &[u8]) -> Vec<u32> {
        let n = arena.len() / self.record_size;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let rs = self.record_size;
        let rec = |i: u32| &arena[i as usize * rs..i as usize * rs + rs];
        // decorate-sort-undecorate when the comparator offers prefix keys
        // for every record; a comparator that stops offering them midway
        // just loses the fast path (collect short-circuits on first None)
        let keys: Option<Vec<u64>> = (0..n as u32).map(|i| self.cmp.prefix_key(rec(i))).collect();
        match keys {
            Some(keys) => order.sort_unstable_by(|&a, &b| {
                keys[a as usize]
                    .cmp(&keys[b as usize])
                    .then_with(|| self.cmp.cmp(rec(a), rec(b)))
            }),
            None => order.sort_unstable_by(|&a, &b| self.cmp.cmp(rec(a), rec(b))),
        }
        order
    }

    fn write_run(&self, arena: &[u8], order: &[u32]) -> Result<HeapFile, ExecError> {
        let mut run = HeapFile::create(Arc::clone(&self.disk), self.record_size)?;
        let rs = self.record_size;
        let mut w = run.writer()?;
        for &i in order {
            w.push(&arena[i as usize * rs..i as usize * rs + rs])?;
        }
        w.finish()?;
        Ok(run)
    }

    /// Merge `runs` into a single new run file (non-final pass).
    fn merge_to_run(
        &self,
        runs: Vec<Arc<HeapFile>>,
        cancel: Option<CancelToken>,
    ) -> Result<HeapFile, ExecError> {
        let mut out = HeapFile::create(Arc::clone(&self.disk), self.record_size)?;
        let mut merge = KWayMerge::new(runs, Arc::clone(&self.cmp), cancel);
        let mut w = out.writer()?;
        while let Some(r) = merge.next_record()? {
            w.push(r)?;
        }
        w.finish()?;
        Ok(out)
    }
}

/// Record the first error a parallel stage observes; later ones are
/// dropped (the stage is already doomed, the first cause is the one to
/// report).
fn store_first(slot: &Mutex<Option<ExecError>>, e: ExecError) {
    let mut guard = lock(slot);
    if guard.is_none() {
        *guard = Some(e);
    }
}

/// External merge sort operator.
pub struct ExternalSort {
    child: BoxedOperator,
    cmp: Arc<dyn RecordComparator>,
    disk: Arc<dyn Disk>,
    budget: SortBudget,
    record_size: usize,
    state: SortState,
    cancel: Option<CancelToken>,
    /// Worker-thread knob: 0 = auto, 1 = sequential (default).
    threads: usize,
    /// Number of runs written during the last open (for tests/metrics).
    runs_written: usize,
    /// Number of merge passes performed (excluding the streamed final one).
    merge_passes: usize,
}

impl ExternalSort {
    /// Sort `child` by `cmp` using temp space on `disk` within `budget`.
    pub fn new(
        child: BoxedOperator,
        cmp: Arc<dyn RecordComparator>,
        disk: Arc<dyn Disk>,
        budget: SortBudget,
    ) -> Self {
        let record_size = child.record_size();
        ExternalSort {
            child,
            cmp,
            disk,
            budget,
            record_size,
            state: SortState::Idle,
            cancel: None,
            threads: 1,
            runs_written: 0,
            merge_passes: 0,
        }
    }

    /// Observe `token` during run formation, between merge passes, and
    /// every few hundred merged records.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sort runs and perform intermediate merge passes on `threads`
    /// worker threads (0 = one per available core, clamped to 64).
    ///
    /// The child is still consumed by the calling thread (operators are
    /// single-threaded by contract) and the final merge still streams
    /// through [`Operator::next`]; parallelism covers the CPU-heavy run
    /// sorting/writing and the intermediate merge passes. With `t`
    /// workers each run arena is `budget/t` pages, so runs are smaller
    /// and there may be more of them — same sorted output, more write
    /// parallelism. The in-memory fast path (no spill) is unchanged.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs written by the last `open` (0 when the in-memory path ran).
    pub fn runs_written(&self) -> usize {
        self.runs_written
    }

    /// Intermediate (non-final) merge passes performed by the last `open`.
    pub fn merge_passes(&self) -> usize {
        self.merge_passes
    }

    fn former(&self) -> RunFormer {
        RunFormer {
            cmp: Arc::clone(&self.cmp),
            disk: Arc::clone(&self.disk),
            record_size: self.record_size,
        }
    }

    /// Sequential run formation (threads == 1): the original single-core
    /// fill-sort-spill loop.
    fn form_runs_seq(&mut self) -> Result<FormOutcome, ExecError> {
        let arena_cap = self.budget.arena_bytes();
        let former = self.former();
        let mut arena: Vec<u8> = Vec::with_capacity(arena_cap.min(1 << 24));
        let mut runs: Vec<Arc<HeapFile>> = Vec::new();
        let mut consumed: u64 = 0;
        loop {
            poll(self.cancel.as_ref(), consumed)?;
            // Spill check happens between records so the borrow of the
            // child's lent slice never overlaps the spill's `&self` calls.
            if arena.len() + self.record_size > arena_cap {
                let order = former.sort_arena(&arena);
                runs.push(Arc::new(former.write_run(&arena, &order)?));
                self.runs_written += 1;
                arena.clear();
            }
            match self.child.next()? {
                Some(r) => {
                    arena.extend_from_slice(r);
                    consumed += 1;
                }
                None => break,
            }
        }
        if runs.is_empty() {
            return Ok(FormOutcome::InMemory(arena));
        }
        if !arena.is_empty() {
            let order = former.sort_arena(&arena);
            runs.push(Arc::new(former.write_run(&arena, &order)?));
            self.runs_written += 1;
        }
        Ok(FormOutcome::Runs(runs, consumed))
    }

    /// Parallel run formation: the calling thread keeps draining the
    /// child (operators are single-consumer) into chunk arenas of
    /// `budget/t` pages and hands them through a bounded [`WorkQueue`]
    /// to `t` scoped workers, which sort and write runs concurrently.
    ///
    /// Queue capacity `t` bounds in-flight memory at roughly `2×` the
    /// arena budget (t queued chunks + t being sorted + 1 being filled).
    /// The first full-budget arena is only split once it overflows, so an
    /// input that fits in memory takes the no-spill fast path exactly
    /// like the sequential sort.
    ///
    /// Failure protocol mirrors `par.rs`: the first worker error is
    /// stored in a shared slot and the erroring worker keeps draining the
    /// queue (dropping arenas) so the producer can never block on a full
    /// queue; worker panics surface as [`ExecError::Worker`].
    fn form_runs_par(&mut self, t: usize) -> Result<FormOutcome, ExecError> {
        let arena_cap = self.budget.arena_bytes();
        let rs = self.record_size;
        let chunk_records = (arena_cap / t / rs).max(1);
        let chunk_bytes = chunk_records * rs;
        let former = self.former();
        let queue: WorkQueue<(usize, Vec<u8>)> = WorkQueue::bounded(t);
        let results: Mutex<Vec<(usize, HeapFile)>> = Mutex::new(Vec::new());
        let first_err: Mutex<Option<ExecError>> = Mutex::new(None);

        let child = &mut self.child;
        let cancel = self.cancel.as_ref();
        let (in_memory, consumed) =
            std::thread::scope(|s| -> Result<(Option<Vec<u8>>, u64), ExecError> {
                let mut handles = Vec::with_capacity(t);
                for _ in 0..t {
                    handles.push(s.spawn(|| {
                        while let Some((seq, arena)) = queue.pop() {
                            if lock(&first_err).is_some() {
                                continue; // doomed: drain so the producer never blocks
                            }
                            let order = former.sort_arena(&arena);
                            match former.write_run(&arena, &order) {
                                Ok(run) => lock(&results).push((seq, run)),
                                Err(e) => store_first(&first_err, e),
                            }
                        }
                    }));
                }

                let mut arena: Vec<u8> = Vec::with_capacity(arena_cap.min(1 << 24));
                let mut consumed: u64 = 0;
                let mut seq = 0usize;
                let mut spilled = false;
                let mut prod_err: Option<ExecError> = None;
                loop {
                    if let Err(e) = poll(cancel, consumed) {
                        prod_err = Some(e);
                        break;
                    }
                    if lock(&first_err).is_some() {
                        break;
                    }
                    let cap = if spilled { chunk_bytes } else { arena_cap };
                    if arena.len() + rs > cap {
                        if spilled {
                            let next = Vec::with_capacity(chunk_bytes);
                            if queue
                                .push((seq, std::mem::replace(&mut arena, next)))
                                .is_err()
                            {
                                break; // closed: only happens on teardown
                            }
                            seq += 1;
                        } else {
                            // first overflow: we now know we're external —
                            // split the full-budget arena into worker chunks
                            spilled = true;
                            for chunk in arena.chunks(chunk_bytes) {
                                if queue.push((seq, chunk.to_vec())).is_err() {
                                    break;
                                }
                                seq += 1;
                            }
                            arena.clear();
                            arena.shrink_to(chunk_bytes);
                        }
                    }
                    match child.next() {
                        Ok(Some(r)) => {
                            arena.extend_from_slice(r);
                            consumed += 1;
                        }
                        Ok(None) => break,
                        Err(e) => {
                            prod_err = Some(e);
                            break;
                        }
                    }
                }
                if spilled
                    && !arena.is_empty()
                    && prod_err.is_none()
                    && lock(&first_err).is_none()
                    && queue.push((seq, std::mem::take(&mut arena))).is_err()
                {
                    // closed queue here means workers are gone; the join
                    // below reports the underlying panic
                }
                queue.close();
                let mut panic_msg: Option<Option<String>> = None;
                for h in handles {
                    if let Err(payload) = h.join() {
                        panic_msg = Some(crate::sync_util::panic_message(payload.as_ref()));
                    }
                }
                if let Some(message) = panic_msg {
                    return Err(ExecError::Worker { message });
                }
                if let Some(e) = lock(&first_err).take() {
                    return Err(e);
                }
                if let Some(e) = prod_err {
                    return Err(e);
                }
                Ok((if spilled { None } else { Some(arena) }, consumed))
            })?;

        if let Some(arena) = in_memory {
            return Ok(FormOutcome::InMemory(arena));
        }
        let mut formed = match results.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        formed.sort_unstable_by_key(|(seq, _)| *seq);
        self.runs_written += formed.len();
        Ok(FormOutcome::Runs(
            formed.into_iter().map(|(_, run)| Arc::new(run)).collect(),
            consumed,
        ))
    }

    /// One intermediate merge pass over `runs`, distributing the
    /// `fan_in`-sized groups across `t` workers when it pays.
    fn merge_pass(
        &mut self,
        runs: Vec<Arc<HeapFile>>,
        fan_in: usize,
        t: usize,
    ) -> Result<Vec<Arc<HeapFile>>, ExecError> {
        let former = self.former();
        let cancel = self.cancel.clone();
        let groups: Vec<Vec<Arc<HeapFile>>> = runs.chunks(fan_in).map(<[_]>::to_vec).collect();
        let multi = groups.iter().filter(|g| g.len() > 1).count();
        if t <= 1 || multi <= 1 {
            let mut next: Vec<Arc<HeapFile>> = Vec::new();
            for mut group in groups {
                if group.len() == 1 {
                    next.push(group.swap_remove(0));
                } else {
                    next.push(Arc::new(former.merge_to_run(group, cancel.clone())?));
                    self.runs_written += 1;
                }
            }
            return Ok(next);
        }

        let workers = t.min(multi);
        let queue: WorkQueue<(usize, Vec<Arc<HeapFile>>)> = WorkQueue::bounded(groups.len());
        let results: Mutex<Vec<(usize, Arc<HeapFile>)>> = Mutex::new(Vec::new());
        let first_err: Mutex<Option<ExecError>> = Mutex::new(None);
        let merged = std::thread::scope(|s| -> Result<usize, ExecError> {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cancel = cancel.clone();
                let former = &former;
                let queue = &queue;
                let results = &results;
                let first_err = &first_err;
                handles.push(s.spawn(move || {
                    let mut merged = 0usize;
                    while let Some((idx, group)) = queue.pop() {
                        if lock(first_err).is_some() {
                            continue;
                        }
                        match former.merge_to_run(group, cancel.clone()) {
                            Ok(run) => {
                                lock(results).push((idx, Arc::new(run)));
                                merged += 1;
                            }
                            Err(e) => store_first(first_err, e),
                        }
                    }
                    merged
                }));
            }
            for (idx, group) in groups.into_iter().enumerate() {
                if group.len() == 1 {
                    lock(&results).extend(group.into_iter().map(|r| (idx, r)));
                } else if queue.push((idx, group)).is_err() {
                    break;
                }
            }
            queue.close();
            let mut panic_msg: Option<Option<String>> = None;
            let mut merged = 0usize;
            for h in handles {
                match h.join() {
                    Ok(n) => merged += n,
                    Err(payload) => {
                        panic_msg = Some(crate::sync_util::panic_message(payload.as_ref()));
                    }
                }
            }
            if let Some(message) = panic_msg {
                return Err(ExecError::Worker { message });
            }
            if let Some(e) = lock(&first_err).take() {
                return Err(e);
            }
            Ok(merged)
        })?;
        self.runs_written += merged;
        let mut next = match results.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        next.sort_unstable_by_key(|(idx, _)| *idx);
        Ok(next.into_iter().map(|(_, run)| run).collect())
    }
}

impl Operator for ExternalSort {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()?;
        self.runs_written = 0;
        self.merge_passes = 0;
        let t = effective_threads(self.threads);

        // --- Run formation ---
        let outcome = if t <= 1 {
            self.form_runs_seq()?
        } else {
            self.form_runs_par(t)?
        };
        self.child.close();

        let (mut runs, consumed) = match outcome {
            FormOutcome::InMemory(arena) => {
                // Everything fit: no spill at all.
                let order = self.former().sort_arena(&arena);
                self.state = SortState::InMemory {
                    arena,
                    order,
                    pos: 0,
                };
                return Ok(());
            }
            FormOutcome::Runs(runs, consumed) => (runs, consumed),
        };

        // --- Intermediate merge passes until fan-in suffices ---
        let fan_in = self.budget.fan_in().max(2);
        while runs.len() > fan_in {
            // pass boundary: a natural cancellation point
            if let Some(tok) = &self.cancel {
                tok.check(consumed)?;
            }
            runs = self.merge_pass(runs, fan_in, t)?;
            self.merge_passes += 1;
        }

        // --- Final merge, streamed ---
        self.state = SortState::Merging(KWayMerge::new(
            runs,
            Arc::clone(&self.cmp),
            self.cancel.clone(),
        ));
        Ok(())
    }

    fn next(&mut self) -> Result<Option<&[u8]>, ExecError> {
        match &mut self.state {
            SortState::Idle => Err(ExecError::Protocol("ExternalSort::next before open")),
            SortState::InMemory { arena, order, pos } => {
                if *pos >= order.len() {
                    return Ok(None);
                }
                let i = order[*pos] as usize;
                *pos += 1;
                let rs = self.record_size;
                Ok(Some(&arena[i * rs..i * rs + rs]))
            }
            SortState::Merging(m) => m.next_record(),
        }
    }

    fn close(&mut self) {
        self.state = SortState::Idle; // drops runs (temp files delete themselves)
    }

    fn record_size(&self) -> usize {
        self.record_size
    }
}

/// Streaming k-way merge over run files, using a hand-rolled binary heap so
/// the comparator can be a trait object. Heap entries own reusable record
/// buffers — one memcpy per record, no per-record allocation.
struct KWayMerge {
    scanners: Vec<SharedScanner>,
    cmp: Arc<dyn RecordComparator>,
    /// (prefix key, record bytes, scanner index); a min-heap by
    /// `(key, cmp)` on the bytes. Keys are 0 when the comparator offers
    /// none.
    heap: Vec<(u64, Vec<u8>, usize)>,
    use_keys: bool,
    /// Buffer handed to the caller.
    out: Vec<u8>,
    primed: bool,
    cancel: Option<CancelToken>,
    /// Records emitted so far — the merge's cancellation progress count.
    emitted: u64,
}

impl KWayMerge {
    fn new(
        runs: Vec<Arc<HeapFile>>,
        cmp: Arc<dyn RecordComparator>,
        cancel: Option<CancelToken>,
    ) -> Self {
        KWayMerge {
            scanners: runs.into_iter().map(SharedScanner::new).collect(),
            cmp,
            heap: Vec::new(),
            use_keys: false,
            out: Vec::new(),
            primed: false,
            cancel,
            emitted: 0,
        }
    }

    fn less(&self, a: &(u64, Vec<u8>, usize), b: &(u64, Vec<u8>, usize)) -> bool {
        match a.0.cmp(&b.0) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.cmp.cmp(&a.1, &b.1) == Ordering::Less,
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.less(&self.heap[l], &self.heap[smallest]) {
                smallest = l;
            }
            if r < self.heap.len() && self.less(&self.heap[r], &self.heap[smallest]) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }

    /// The prefix key for `bytes`, or 0 after [`Self::degrade_keys`].
    /// A comparator that stops offering keys mid-stream (contract
    /// breach) demotes the whole merge to pure-comparison order rather
    /// than aborting or mis-sorting.
    fn key_of(&mut self, bytes: &[u8]) -> u64 {
        if !self.use_keys {
            return 0;
        }
        match self.cmp.prefix_key(bytes) {
            Some(k) => k,
            None => {
                self.degrade_keys();
                0
            }
        }
    }

    /// Zero every heap key and re-heapify under pure `cmp` order.
    fn degrade_keys(&mut self) {
        self.use_keys = false;
        for e in &mut self.heap {
            e.0 = 0;
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    fn prime(&mut self) -> Result<(), ExecError> {
        for idx in 0..self.scanners.len() {
            let mut buf = Vec::new();
            let got = match self.scanners[idx].next_record()? {
                Some(r) => {
                    buf.extend_from_slice(r);
                    true
                }
                None => false,
            };
            if got {
                if self.heap.is_empty() {
                    // probe once whether the comparator offers keys
                    self.use_keys = self.cmp.prefix_key(&buf).is_some();
                }
                let key = self.key_of(&buf);
                self.heap.push((key, buf, idx));
                let last = self.heap.len() - 1;
                self.sift_up(last);
            }
        }
        self.primed = true;
        Ok(())
    }

    fn next_record(&mut self) -> Result<Option<&[u8]>, ExecError> {
        poll(self.cancel.as_ref(), self.emitted)?;
        if !self.primed {
            self.prime()?;
        }
        if self.heap.is_empty() {
            return Ok(None);
        }
        // Swap the minimum out — the heap entry keeps the previous output
        // buffer's allocation to refill into — then restore the heap.
        let idx = {
            let top = &mut self.heap[0];
            std::mem::swap(&mut self.out, &mut top.1);
            top.2
        };
        match self.scanners[idx].next_record()? {
            Some(r) => {
                let top = &mut self.heap[0];
                top.1.clear();
                top.1.extend_from_slice(r);
                let key = if self.use_keys {
                    self.cmp.prefix_key(&self.heap[0].1)
                } else {
                    Some(0)
                };
                match key {
                    Some(k) => self.heap[0].0 = k,
                    // degradation zeroes every key (incl. this one) and
                    // re-heapifies under pure cmp order
                    None => self.degrade_keys(),
                }
                self.sift_down(0);
            }
            None => {
                let last = self.heap.len() - 1;
                self.heap.swap(0, last);
                self.heap.pop();
                if !self.heap.is_empty() {
                    self.sift_down(0);
                }
            }
        }
        self.emitted += 1;
        Ok(Some(&self.out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, MemSource};
    use skyline_storage::MemDisk;

    fn asc() -> Arc<dyn RecordComparator> {
        Arc::new(|a: &[u8], b: &[u8]| a.cmp(b))
    }

    fn mk_records(n: usize, size: usize, seed: u64) -> Vec<Vec<u8>> {
        // simple xorshift so tests don't need rand here
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                (0..size)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x & 0xff) as u8
                    })
                    .collect()
            })
            .collect()
    }

    fn sort_via(records: Vec<Vec<u8>>, size: usize, pages: usize) -> (Vec<Vec<u8>>, usize) {
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(records, size));
        let mut sort = ExternalSort::new(src, asc(), disk, SortBudget::pages(pages));
        let out = collect(&mut sort).unwrap();
        (out, sort.runs_written())
    }

    #[test]
    fn in_memory_path_when_input_fits() {
        let recs = mk_records(100, 16, 3);
        let mut expect = recs.clone();
        expect.sort();
        let (out, runs) = sort_via(recs, 16, 10);
        assert_eq!(out, expect);
        assert_eq!(runs, 0, "should not spill");
    }

    #[test]
    fn external_path_with_tiny_budget() {
        // 2000 × 64B = 128000 B = 31.25 pages; 3-page budget → many runs,
        // fan-in 2 → multiple merge passes.
        let recs = mk_records(2000, 64, 7);
        let mut expect = recs.clone();
        expect.sort();
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(recs, 64));
        let mut sort = ExternalSort::new(src, asc(), Arc::clone(&disk) as _, SortBudget::pages(3));
        let out = collect(&mut sort).unwrap();
        assert_eq!(out, expect);
        assert!(sort.runs_written() > 10);
        assert!(sort.merge_passes() >= 2);
        // temp files cleaned up
        assert_eq!(disk.allocated_pages(), 0);
    }

    #[test]
    fn comparator_that_drops_prefix_keys_midway_still_sorts() {
        // Contract breach: prefix keys for most records, None for some.
        // The sort must degrade to pure comparisons, never abort or
        // mis-sort — multi-run budget so KWayMerge degrades too.
        struct Flaky;
        impl RecordComparator for Flaky {
            fn cmp(&self, a: &[u8], b: &[u8]) -> Ordering {
                a.cmp(b)
            }
            fn prefix_key(&self, r: &[u8]) -> Option<u64> {
                // refines lexicographic order when offered at all
                if r[0].is_multiple_of(5) {
                    None
                } else {
                    Some(u64::from(r[0]))
                }
            }
        }
        let recs = mk_records(800, 32, 13);
        let mut expect = recs.clone();
        expect.sort();
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(recs, 32));
        let mut sort = ExternalSort::new(
            src,
            Arc::new(Flaky),
            Arc::clone(&disk) as _,
            SortBudget::pages(3),
        );
        let out = collect(&mut sort).unwrap();
        assert_eq!(out, expect);
        assert!(sort.runs_written() > 1, "must exercise the merge path");
    }

    #[test]
    fn sorted_input_stays_sorted() {
        let mut recs = mk_records(500, 8, 9);
        recs.sort();
        let (out, _) = sort_via(recs.clone(), 8, 3);
        assert_eq!(out, recs);
    }

    #[test]
    fn duplicates_preserved() {
        let mut recs = mk_records(50, 8, 11);
        let dup = recs[0].clone();
        for _ in 0..20 {
            recs.push(dup.clone());
        }
        let mut expect = recs.clone();
        expect.sort();
        let (out, _) = sort_via(recs, 8, 3);
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_input() {
        let (out, runs) = sort_via(vec![], 8, 3);
        assert!(out.is_empty());
        assert_eq!(runs, 0);
    }

    #[test]
    fn custom_comparator_descending() {
        let recs = mk_records(300, 8, 13);
        let mut expect = recs.clone();
        expect.sort_by(|a, b| b.cmp(a));
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(recs, 8));
        let cmp: Arc<dyn RecordComparator> = Arc::new(|a: &[u8], b: &[u8]| b.cmp(a));
        let mut sort = ExternalSort::new(src, cmp, disk, SortBudget::pages(4));
        assert_eq!(collect(&mut sort).unwrap(), expect);
    }

    #[test]
    fn reopen_resorts() {
        let recs = mk_records(100, 8, 17);
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(recs.clone(), 8));
        let mut sort = ExternalSort::new(src, asc(), disk, SortBudget::pages(3));
        let a = collect(&mut sort).unwrap();
        let b = collect(&mut sort).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cancelled_sort_returns_typed_error_and_cleans_up() {
        let recs = mk_records(2000, 64, 23);
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(recs, 64));
        let token = CancelToken::new();
        token.cancel();
        let mut sort = ExternalSort::new(src, asc(), Arc::clone(&disk) as _, SortBudget::pages(3))
            .with_cancel(token);
        match sort.open() {
            Err(ExecError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        sort.close();
        assert_eq!(disk.allocated_pages(), 0, "no leaked run files");
    }

    #[test]
    fn deadline_cancel_mid_merge_cleans_up() {
        // Cancel after open: run formation completes, the streamed final
        // merge then observes the flag at its first poll point.
        let recs = mk_records(2000, 64, 29);
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(recs, 64));
        let token = CancelToken::new();
        let mut sort = ExternalSort::new(src, asc(), Arc::clone(&disk) as _, SortBudget::pages(3))
            .with_cancel(token.clone());
        sort.open().unwrap();
        token.cancel();
        let mut err = None;
        loop {
            match sort.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(err, Some(ExecError::Cancelled { .. })),
            "merge must notice the cancel: {err:?}"
        );
        sort.close();
        assert_eq!(disk.allocated_pages(), 0, "no leaked run files");
    }

    #[test]
    fn parallel_sort_matches_sequential_output() {
        let recs = mk_records(2000, 64, 31);
        let mut expect = recs.clone();
        expect.sort();
        for t in [2, 4, 0] {
            let disk = MemDisk::shared();
            let src = Box::new(MemSource::new(recs.clone(), 64));
            let mut sort =
                ExternalSort::new(src, asc(), Arc::clone(&disk) as _, SortBudget::pages(3))
                    .with_threads(t);
            let out = collect(&mut sort).unwrap();
            assert_eq!(out, expect, "threads={t}");
            assert!(sort.runs_written() > 1, "must spill under a 3-page budget");
            sort.close();
            assert_eq!(disk.allocated_pages(), 0, "threads={t}: leaked run files");
        }
    }

    #[test]
    fn parallel_sort_keeps_in_memory_fast_path() {
        let recs = mk_records(100, 16, 37);
        let mut expect = recs.clone();
        expect.sort();
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(recs, 16));
        let mut sort = ExternalSort::new(src, asc(), Arc::clone(&disk) as _, SortBudget::pages(10))
            .with_threads(4);
        let out = collect(&mut sort).unwrap();
        assert_eq!(out, expect);
        assert_eq!(sort.runs_written(), 0, "fitting input must not spill");
        assert_eq!(disk.allocated_pages(), 0);
    }

    #[test]
    fn parallel_sort_with_prefix_keys_and_many_merge_passes() {
        // exercises parallel intermediate merge passes (fan-in 2) under
        // the decorate-sort-undecorate path
        struct FirstByte;
        impl RecordComparator for FirstByte {
            fn cmp(&self, a: &[u8], b: &[u8]) -> Ordering {
                a.cmp(b)
            }
            fn prefix_key(&self, r: &[u8]) -> Option<u64> {
                Some(u64::from(r[0]))
            }
        }
        let recs = mk_records(3000, 64, 41);
        let mut expect = recs.clone();
        expect.sort();
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(recs, 64));
        let mut sort = ExternalSort::new(
            src,
            Arc::new(FirstByte),
            Arc::clone(&disk) as _,
            SortBudget::pages(3),
        )
        .with_threads(3);
        let out = collect(&mut sort).unwrap();
        assert_eq!(out, expect);
        assert!(sort.merge_passes() >= 2, "must take intermediate passes");
        sort.close();
        assert_eq!(disk.allocated_pages(), 0);
    }

    #[test]
    fn parallel_cancelled_sort_returns_typed_error_and_cleans_up() {
        let recs = mk_records(2000, 64, 43);
        let disk = MemDisk::shared();
        let src = Box::new(MemSource::new(recs, 64));
        let token = CancelToken::new();
        token.cancel();
        let mut sort = ExternalSort::new(src, asc(), Arc::clone(&disk) as _, SortBudget::pages(3))
            .with_threads(4)
            .with_cancel(token);
        match sort.open() {
            Err(ExecError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        sort.close();
        assert_eq!(disk.allocated_pages(), 0, "no leaked run files");
    }

    #[test]
    fn sort_io_is_counted() {
        let recs = mk_records(2000, 64, 19);
        let disk = MemDisk::shared();
        let before = disk.stats().snapshot();
        let src = Box::new(MemSource::new(recs, 64));
        let mut sort = ExternalSort::new(src, asc(), Arc::clone(&disk) as _, SortBudget::pages(3));
        let _ = collect(&mut sort).unwrap();
        let delta = disk.stats().snapshot().since(&before);
        assert!(
            delta.writes > 30,
            "run + merge writes expected, got {}",
            delta.writes
        );
        assert!(delta.reads > 30);
    }
}
