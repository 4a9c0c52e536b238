//! Host-side persistent worker pool.
//!
//! The iPrune server-side work (training, sensitivity probes, annealing
//! sweeps, fault campaigns) is embarrassingly parallel at several
//! granularities: samples within a batch, independent per-layer probes,
//! whole app pipelines, forked fault runs. This module provides the one
//! parallel primitive they all share: fan a fixed index range out over pool
//! workers and collect per-index results **in index order**, so every
//! reduction downstream is a fixed-order (and therefore bit-deterministic)
//! fold, regardless of the thread count or scheduling.
//!
//! Design rules:
//!
//! - **Host only.** The device simulator (`iprune-device`, `iprune-hawaii`)
//!   never uses this pool; intermittent execution stays single-threaded and
//!   cycle-deterministic. (Fault campaigns parallelize across *independent*
//!   simulators, each one still serial inside.)
//! - **No nesting.** A parallel region entered from inside a worker runs
//!   serially (same closures, same order), so parallelism applies at the
//!   outermost profitable level and thread counts stay bounded.
//! - **No oversubscription.** The effective worker count of a region is
//!   capped at [`host_cores`]: requesting `IPRUNE_THREADS=8` on a 1-core
//!   host runs serially instead of time-slicing eight workers over one core
//!   (which benchmarked *slower* than serial due to context-switch and
//!   spawn overhead).
//! - **Determinism.** Callers receive per-index results in index order and
//!   must reduce in that order. Under that contract, `IPRUNE_THREADS=1` and
//!   `IPRUNE_THREADS=64` produce bit-identical numbers.
//!
//! Worker threads are spawned once and persist for the process lifetime;
//! each region enqueues its chunks and the calling thread works on the
//! first chunk while pool workers drain the rest. This amortizes thread
//! spawn cost (~100 µs each) across the many short regions the prune loop
//! opens per epoch.
//!
//! The requested thread count comes from [`set_threads`] when set, else the
//! `IPRUNE_THREADS` environment variable, else
//! `std::thread::available_parallelism()`.

use iprune_obs::metrics::{self, Counter, Histogram};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Programmatic thread-count override (0 = not set).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Programmatic host-core override (0 = not set), for tests that need to
/// exercise real fan-out on small CI machines.
static CORE_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Sets the worker-thread count for subsequent parallel regions
/// (process-wide). `0` clears the override, falling back to
/// `IPRUNE_THREADS` / available parallelism.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The configured (requested) worker-thread count: the [`set_threads`]
/// override if set, else `IPRUNE_THREADS`, else the machine's available
/// parallelism. The *effective* count of a region is additionally capped at
/// [`host_cores`] — see [`workers_for`].
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("IPRUNE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    host_cores()
}

/// Overrides the detected core count (process-wide, `0` clears, bringing
/// back the probed value). Tests use this to exercise real fan-out on
/// single-core CI machines and to pin benchmark configurations.
pub fn set_host_cores(n: usize) {
    CORE_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Logical CPUs this process may use: the [`set_host_cores`] override if
/// set, else the value probed on the first call — `IPRUNE_HOST_CORES`,
/// else `std::thread::available_parallelism()`, else a `/proc/cpuinfo`
/// count, else 1. This is the oversubscription cap for every parallel
/// region.
///
/// The probe runs once per process: `available_parallelism` re-reads the
/// cgroup CPU quota on every call (tens of µs), and regions open per GEMM.
pub fn host_cores() -> usize {
    let o = CORE_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    static PROBED: OnceLock<usize> = OnceLock::new();
    *PROBED.get_or_init(probe_host_cores)
}

fn probe_host_cores() -> usize {
    if let Ok(v) = std::env::var("IPRUNE_HOST_CORES") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    if let Ok(n) = std::thread::available_parallelism() {
        return n.get();
    }
    if let Ok(body) = std::fs::read_to_string("/proc/cpuinfo") {
        let n = body.lines().filter(|l| l.starts_with("processor")).count();
        if n > 0 {
            return n;
        }
    }
    1
}

/// Whether the calling thread is inside a pool worker (nested parallel
/// regions run serially). Also true inside the closures of a region that
/// ran serially because of the core cap, so callers observe the same
/// environment either way.
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// Whether a parallel region opened here would actually fan out.
pub fn active() -> bool {
    num_threads().min(host_cores()) > 1 && !in_worker()
}

/// Effective worker count a region of `n` independent items would use:
/// the requested count capped at [`host_cores`] and at `n`.
pub fn workers_for(n: usize) -> usize {
    if in_worker() {
        1
    } else {
        num_threads().min(host_cores()).min(n).max(1)
    }
}

/// Records one parallel region in the host metrics registry: how many
/// fanned out vs ran serially, and the item/worker fan-out distributions
/// (pool-utilization signal for `metrics::snapshot()` reports).
fn record_region(items: usize, workers: usize) {
    static PARALLEL: OnceLock<Arc<Counter>> = OnceLock::new();
    static SERIAL: OnceLock<Arc<Counter>> = OnceLock::new();
    static ITEMS: OnceLock<Arc<Histogram>> = OnceLock::new();
    static WORKERS: OnceLock<Arc<Histogram>> = OnceLock::new();
    if workers > 1 {
        PARALLEL.get_or_init(|| metrics::counter("par.regions_parallel")).inc();
        ITEMS.get_or_init(|| metrics::histogram("par.region_items")).record(items as u64);
        WORKERS.get_or_init(|| metrics::histogram("par.region_workers")).record(workers as u64);
    } else {
        SERIAL.get_or_init(|| metrics::counter("par.regions_serial")).inc();
    }
}

/// Marks the current thread as executing region work. Saves and restores
/// the previous flag so regions nested through the serial path unwind
/// correctly.
struct WorkerGuard {
    prev: bool,
}

impl WorkerGuard {
    fn enter() -> Self {
        let prev = IN_WORKER.with(|w| w.replace(true));
        WorkerGuard { prev }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_WORKER.with(|w| w.set(prev));
    }
}

/// A queued unit of region work, lifetime-erased (see `region_execute` for
/// why that is sound).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    threads: usize,
}

/// The process-wide persistent worker pool.
struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // a panicking job never holds this lock, so poison is spurious
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Grows the pool to at least `n` worker threads.
    fn ensure_workers(&'static self, n: usize) {
        let mut st = self.lock();
        while st.threads < n {
            st.threads += 1;
            let name = format!("iprune-par-{}", st.threads);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || self.worker_loop())
                .expect("spawn pool worker");
        }
    }

    fn worker_loop(&'static self) {
        IN_WORKER.with(|w| w.set(true));
        let mut st = self.lock();
        loop {
            if let Some(job) = st.queue.pop_front() {
                drop(st);
                job(); // panics are caught inside the wrapper
                st = self.lock();
            } else {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { queue: VecDeque::new(), threads: 0 }),
        cv: Condvar::new(),
    })
}

/// Completion latch of one region: outstanding task count plus the first
/// captured panic payload.
struct RegionSync {
    m: Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    cv: Condvar,
}

/// Runs `tasks` on pool workers while the calling thread runs `leader`
/// (the region's first chunk) inline, then blocks until every task
/// finished. Panics from any task (or the leader) are re-raised here, after
/// the barrier, so no borrowed data outlives its frame.
///
/// Soundness of the lifetime erasure: the queued closures borrow stack data
/// of this call (`&f`, result slices). `region_execute` does not return —
/// and does not unwind, the leader chunk runs under `catch_unwind` — until
/// the latch counts every queued task as finished, so the borrows are dead
/// before the frame is.
fn region_execute<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>, leader: impl FnOnce()) {
    let sync = Arc::new(RegionSync { m: Mutex::new((tasks.len(), None)), cv: Condvar::new() });
    let pool = pool();
    pool.ensure_workers(tasks.len());
    {
        let mut st = pool.lock();
        for task in tasks {
            let sync = Arc::clone(&sync);
            let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                let mut g = sync.m.lock().unwrap_or_else(|e| e.into_inner());
                g.0 -= 1;
                if let Err(p) = result {
                    g.1.get_or_insert(p);
                }
                if g.0 == 0 {
                    sync.cv.notify_all();
                }
            });
            // lifetime erasure — sound per the barrier argument above
            let wrapped: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(wrapped) };
            st.queue.push_back(wrapped);
        }
        pool.cv.notify_all();
    }
    let leader_result = {
        let _guard = WorkerGuard::enter();
        catch_unwind(AssertUnwindSafe(leader))
    };
    let mut g = sync.m.lock().unwrap_or_else(|e| e.into_inner());
    while g.0 > 0 {
        g = sync.cv.wait(g).unwrap_or_else(|e| e.into_inner());
    }
    let worker_panic = g.1.take();
    drop(g);
    if let Err(p) = leader_result {
        resume_unwind(p);
    }
    if let Some(p) = worker_panic {
        resume_unwind(p);
    }
}

/// Maps `f` over `0..n`, returning the results in index order.
///
/// Indices are split into contiguous per-worker chunks; the calling thread
/// works on the first chunk while pool workers handle the rest. With one
/// effective worker (or inside a worker) this is exactly `(0..n).map(f)`.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let w = workers_for(n);
    record_region(n, w);
    if w <= 1 {
        let _guard = WorkerGuard::enter();
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(w);
    let mut results: Vec<Option<T>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    {
        let f = &f;
        let mut groups = results.chunks_mut(chunk).enumerate();
        let first = groups.next();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = groups
            .map(|(wi, group)| -> Box<dyn FnOnce() + Send + '_> {
                Box::new(move || {
                    for (j, slot) in group.iter_mut().enumerate() {
                        *slot = Some(f(wi * chunk + j));
                    }
                })
            })
            .collect();
        region_execute(tasks, move || {
            if let Some((_, group)) = first {
                for (j, slot) in group.iter_mut().enumerate() {
                    *slot = Some(f(j));
                }
            }
        });
    }
    results.into_iter().map(|o| o.expect("worker filled every slot")).collect()
}

/// Splits `data` into `data.len() / chunk` equal chunks, maps
/// `f(chunk_index, chunk)` over them in parallel, and returns the per-chunk
/// results in chunk order.
///
/// This is the mutable-output twin of [`par_map`]: each chunk is owned by
/// exactly one worker (e.g. one sample's slice of a batched tensor), so
/// workers write disjoint regions without synchronization.
///
/// # Panics
///
/// Panics if `chunk` is zero or does not divide `data.len()`.
pub fn par_chunks_map<T, R, F>(data: &mut [T], chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk > 0, "chunk must be positive");
    assert_eq!(data.len() % chunk, 0, "chunk must divide data length");
    let n = data.len() / chunk;
    let w = workers_for(n);
    record_region(n, w);
    if w <= 1 {
        let _guard = WorkerGuard::enter();
        return data.chunks_mut(chunk).enumerate().map(|(i, c)| f(i, c)).collect();
    }
    let per = n.div_ceil(w);
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    {
        let f = &f;
        let data_groups = data.chunks_mut(per * chunk);
        let res_groups = results.chunks_mut(per);
        let mut groups = data_groups.zip(res_groups).enumerate();
        let first = groups.next();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = groups
            .map(|(wi, (dgroup, rgroup))| -> Box<dyn FnOnce() + Send + '_> {
                Box::new(move || {
                    for (j, (d, slot)) in
                        dgroup.chunks_mut(chunk).zip(rgroup.iter_mut()).enumerate()
                    {
                        *slot = Some(f(wi * per + j, d));
                    }
                })
            })
            .collect();
        region_execute(tasks, move || {
            if let Some((_, (dgroup, rgroup))) = first {
                for (j, (d, slot)) in dgroup.chunks_mut(chunk).zip(rgroup.iter_mut()).enumerate() {
                    *slot = Some(f(j, d));
                }
            }
        });
    }
    results.into_iter().map(|o| o.expect("worker filled every slot")).collect()
}

/// Splits `data` into contiguous blocks of `block` elements (the final
/// block may be shorter) and runs `f(block_index, block)` on each, one
/// worker per block. Unlike [`par_chunks_map`] the block size need not
/// divide the data length, and no per-block results are collected — the
/// caller sizes `block` so the number of blocks is at most the worker
/// count (e.g. `rows_per_worker * row_stride` for a row-major matrix).
///
/// # Panics
///
/// Panics if `block` is zero and `data` is non-empty.
pub fn par_blocks<T, F>(data: &mut [T], block: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(block > 0, "block must be positive");
    let nblocks = data.len().div_ceil(block);
    record_region(nblocks, workers_for(nblocks));
    if nblocks == 1 || workers_for(nblocks) <= 1 {
        let _guard = WorkerGuard::enter();
        for (i, ch) in data.chunks_mut(block).enumerate() {
            f(i, ch);
        }
        return;
    }
    {
        let f = &f;
        let mut it = data.chunks_mut(block).enumerate();
        let first = it.next();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = it
            .map(|(i, ch)| -> Box<dyn FnOnce() + Send + '_> {
                Box::new(move || {
                    f(i, ch);
                })
            })
            .collect();
        region_execute(tasks, move || {
            if let Some((i, ch)) = first {
                f(i, ch);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The overrides are process-wide; tests that touch them serialize here
    /// so exact-count assertions don't race each other.
    fn overrides_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn par_map_returns_in_index_order() {
        let _l = overrides_lock();
        set_host_cores(4);
        set_threads(4);
        let v = par_map(23, |i| i * i);
        set_threads(0);
        set_host_cores(0);
        assert_eq!(v, (0..23).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_for_any_thread_count() {
        let _l = overrides_lock();
        set_host_cores(8);
        let serial: Vec<u64> = (0..37).map(|i| (i as u64).wrapping_mul(0x9E37) >> 3).collect();
        for t in [1, 2, 3, 8, 64] {
            set_threads(t);
            let par = par_map(37, |i| (i as u64).wrapping_mul(0x9E37) >> 3);
            assert_eq!(par, serial, "threads={t}");
        }
        set_threads(0);
        set_host_cores(0);
    }

    #[test]
    fn par_chunks_map_writes_disjoint_chunks() {
        let _l = overrides_lock();
        set_host_cores(3);
        set_threads(3);
        let mut data = vec![0u32; 40];
        let sums = par_chunks_map(&mut data, 8, |i, c| {
            for (j, v) in c.iter_mut().enumerate() {
                *v = (i * 100 + j) as u32;
            }
            c.iter().sum::<u32>()
        });
        set_threads(0);
        set_host_cores(0);
        for (i, c) in data.chunks(8).enumerate() {
            for (j, &v) in c.iter().enumerate() {
                assert_eq!(v, (i * 100 + j) as u32);
            }
        }
        assert_eq!(sums.len(), 5);
        assert_eq!(sums[2], (0..8).map(|j| 200 + j as u32).sum::<u32>());
    }

    #[test]
    fn nested_regions_run_serially() {
        let _l = overrides_lock();
        set_host_cores(4);
        set_threads(4);
        let out = par_map(4, |i| {
            assert!(in_worker());
            assert!(!active(), "nested region must not fan out");
            // nested call still works, just serial
            par_map(3, move |j| i * 10 + j)
        });
        set_threads(0);
        set_host_cores(0);
        assert_eq!(out[1], vec![10, 11, 12]);
        assert_eq!(out[3], vec![30, 31, 32]);
    }

    #[test]
    fn workers_for_respects_limits() {
        let _l = overrides_lock();
        set_host_cores(8);
        set_threads(8);
        assert_eq!(workers_for(3), 3);
        assert_eq!(workers_for(100), 8);
        assert_eq!(workers_for(0), 1);
        set_threads(1);
        assert_eq!(workers_for(100), 1);
        // oversubscription: requested threads are capped at the host cores
        set_threads(8);
        set_host_cores(2);
        assert_eq!(workers_for(100), 2);
        set_host_cores(1);
        assert_eq!(workers_for(100), 1);
        assert!(!active());
        set_threads(0);
        set_host_cores(0);
    }

    #[test]
    fn host_cores_is_probed_once_and_overrides_still_win() {
        let _l = overrides_lock();
        set_host_cores(0);
        let probed = host_cores();
        assert!(probed >= 1);
        for _ in 0..3 {
            assert_eq!(host_cores(), probed, "the probe is cached");
        }
        set_host_cores(probed + 5);
        assert_eq!(host_cores(), probed + 5, "an override wins after the probe");
        set_host_cores(0);
        assert_eq!(host_cores(), probed, "clearing the override restores the probe");
    }

    #[test]
    fn capped_serial_regions_still_run_inside_a_worker_context() {
        let _l = overrides_lock();
        set_threads(8);
        set_host_cores(1); // 1-core host: the region must not fan out
        let v = par_map(5, |i| {
            assert!(in_worker(), "serial regions still mark worker context");
            i + 1
        });
        set_threads(0);
        set_host_cores(0);
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pool_workers_persist_across_regions() {
        let _l = overrides_lock();
        set_host_cores(4);
        set_threads(4);
        // many small regions re-use the same pool threads; results stay
        // index-ordered every time
        for round in 0..50usize {
            let v = par_map(16, |i| i * 3 + round);
            assert_eq!(v, (0..16).map(|i| i * 3 + round).collect::<Vec<_>>(), "round {round}");
        }
        set_threads(0);
        set_host_cores(0);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let _l = overrides_lock();
        set_host_cores(4);
        set_threads(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            par_map(8, |i| {
                if i == 6 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        set_threads(0);
        set_host_cores(0);
        let payload = r.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
    }

    #[test]
    #[should_panic(expected = "chunk must divide")]
    fn par_chunks_map_rejects_ragged() {
        let mut d = vec![0u8; 10];
        par_chunks_map(&mut d, 3, |_, _| ());
    }
}
