//! Persistent worker pool for the hot kernels.
//!
//! Workers are spawned once (on the first parallel dispatch) and then
//! parked on a condvar; a dispatch publishes a job, wakes them, and the
//! *calling thread participates* by claiming tasks alongside them, so a
//! dispatch costs a mutex round trip and a wake — microseconds, not the
//! tens of microseconds a `std::thread::scope` spawn cost. That is why
//! [`parallel_worthwhile`]'s threshold ([`PAR_FLOPS_MIN`]) sits ~16x below
//! the spawn-era value: mid-size GEMMs (the batched-attention and
//! skinny-RHS shapes serving actually emits) now clear it.
//!
//! The worker count comes from the `NT_THREADS` environment variable
//! (`0`/`1` disables parallelism entirely); unset, it defaults to the
//! machine's available parallelism. The variable is parsed once per
//! process (cached in a `OnceLock`), so the hot path never re-reads the
//! environment and mid-run env mutation cannot change band splits.
//!
//! Parallel and serial execution are bit-identical for every kernel in
//! this crate: work is split across *disjoint output row blocks*, so the
//! per-element accumulation order never changes. [`for_each_block_mut`]
//! keeps the exact contiguous band-split math of the old scoped pool
//! (`blocks_per_thread = n_blocks.div_ceil(threads)`), and hands each
//! band to a task through a `Mutex<Option<&mut [T]>>` slot — no `unsafe`
//! is needed to move the borrows. The only `unsafe` in this module is
//! the lifetime erasure in `dispatch`, a small audited scope documented
//! in place (the crate's one other scope is `simd::dispatch`).
//!
//! Panic safety: a panicking task is caught on the worker, recorded, and
//! re-thrown on the dispatching thread once the whole job has drained —
//! the pool itself never dies, so later dispatches keep working
//! (stress-tested in `tests/pool_stress.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static CONFIGURED: OnceLock<usize> = OnceLock::new();

/// Parallel dispatches since process start (see [`stats`]).
static DISPATCHES: AtomicU64 = AtomicU64::new(0);
/// Tasks fanned out across all dispatches (see [`stats`]).
static TASKS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// True on threads owned by this pool (or registered via
    /// [`enter_worker`]): nested kernels on such threads stay serial, so
    /// parallelism never composes into `NT_THREADS^2` fan-out.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Mark the current thread as a pool worker for the duration of the
/// returned guard. Higher-level parallelism (serving bands, shard
/// fan-out) runs its tasks under this flag so the kernels they call do
/// not dispatch a second layer of workers.
pub fn enter_worker() -> WorkerGuard {
    let was = IN_WORKER.with(|w| w.replace(true));
    WorkerGuard { was }
}

/// Resets the worker flag when dropped (see [`enter_worker`]).
pub struct WorkerGuard {
    was: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.was));
    }
}

/// Worker threads the kernels may use (>= 1). `NT_THREADS` overrides;
/// unset defaults to `std::thread::available_parallelism()`. Parsed once
/// per process — the cached value is what every subsequent call returns,
/// so band splits are stable for the process lifetime.
pub fn num_threads() -> usize {
    *CONFIGURED.get_or_init(|| {
        match std::env::var("NT_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(0) => 1,
            Some(n) => n.min(256),
            None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    })
}

/// True on a pool worker thread (owned by this pool or registered via
/// [`enter_worker`]). Higher-level parallelism — serving bands, shard
/// fan-out — checks this before fanning out itself, so nested parallel
/// layers never oversubscribe the machine.
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// Minimum multiply-accumulates before a kernel dispatches to the pool.
///
/// Measured with the persistent pool on this workspace's kernels: a
/// dispatch round trip (publish + wake + participate + join) costs on the
/// order of a microsecond, and the serial register-tile kernel reads
/// ~14 GMAC/s in its baseline instantiation, ~26 in the AVX2 one and
/// ~37 in the AVX-512 one on the reference box (`perf`'s
/// `tensor.matmul_gmacs.dense`), so 256 Ki MACs are ~19 µs of serial work
/// on the first, ~10 µs on the second and ~7 µs on the third — still
/// several dispatches' worth at the fastest. The constant has not moved
/// with the kernels; re-tuning it wants the `NT_THREADS` scaling curve
/// ROADMAP item 2 asks for. The spawn-era pool needed `4 << 20` (tens of
/// microseconds per `std::thread::scope` spawn).
pub const PAR_FLOPS_MIN: usize = 1 << 18;

/// Whether a kernel of roughly `flops` multiply-accumulates is worth a
/// pool dispatch (see [`PAR_FLOPS_MIN`]). Always false on a pool worker
/// thread (no nested fan-out).
pub fn parallel_worthwhile(flops: usize) -> bool {
    num_threads() > 1 && flops >= PAR_FLOPS_MIN && !IN_WORKER.with(|w| w.get())
}

/// Cumulative dispatch counters since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Parallel dispatches (jobs published to the persistent pool).
    pub dispatches: u64,
    /// Tasks fanned out across those dispatches.
    pub tasks: u64,
}

/// Snapshot of the pool's cumulative dispatch counters. Callers that want
/// a per-phase count (the bench harness) diff two snapshots.
pub fn stats() -> DispatchStats {
    DispatchStats {
        dispatches: DISPATCHES.load(Ordering::Relaxed),
        tasks: TASKS.load(Ordering::Relaxed),
    }
}

/// Run `f(0..n_tasks)` with the tasks spread over the persistent pool
/// (the calling thread participates). Falls back to a plain serial loop
/// when one thread is configured, on a pool worker thread (no nested
/// fan-out), or for a single task. Tasks run under the
/// [`in_worker`] flag, so kernels inside them stay serial.
///
/// A panic inside `f` is re-thrown on the calling thread after the whole
/// job has drained; the pool survives and later dispatches keep working.
pub fn run_tasks<F: Fn(usize) + Sync>(n_tasks: usize, f: F) {
    if n_tasks == 0 {
        return;
    }
    if n_tasks == 1 || num_threads() <= 1 || in_worker() {
        for i in 0..n_tasks {
            f(i);
        }
        return;
    }
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    TASKS.fetch_add(n_tasks as u64, Ordering::Relaxed);
    dispatch::run_job(n_tasks, &f);
}

/// Split `data` into `chunk_len`-sized output blocks and run
/// `f(block_index, block)` over all of them, on up to [`num_threads`]
/// pool workers. Blocks are distributed as contiguous per-thread bands,
/// so block `i` is always the `i`-th chunk of `data` regardless of thread
/// count — callers can derive offsets from the index alone, and the split
/// math is unchanged from the scoped-spawn pool, so results stay
/// bit-identical to it. Falls back to a plain serial loop when one thread
/// is configured or on a pool worker thread.
///
/// Three layers fan out through here, and nothing else hands `&mut`
/// bands to the pool: the kernels (GEMM row bands in `Tensor::matmul`,
/// the batched matmul in `graph`), `netllm::ServingEngine::step` (one
/// block per band of slots) and `netllm::ShardedServer::tick` (one block
/// per busy shard). The outer two run their blocks as pool tasks, so the
/// kernels underneath see [`in_worker`] and stay serial.
pub fn for_each_block_mut<T: Send, F>(data: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_blocks = data.len().div_ceil(chunk_len);
    let threads = if in_worker() { 1 } else { num_threads().min(n_blocks) };
    if threads <= 1 {
        for (i, block) in data.chunks_mut(chunk_len).enumerate() {
            f(i, block);
        }
        return;
    }
    // Contiguous bands of whole blocks per task keep the split
    // deterministic and the per-task work balanced for uniform blocks.
    // Each band travels to its task through a take-once Mutex slot — the
    // borrow moves without `unsafe`, and every task runs exactly once.
    let blocks_per_thread = n_blocks.div_ceil(threads);
    let band_len = blocks_per_thread * chunk_len;
    let bands: Vec<Mutex<Option<&mut [T]>>> =
        data.chunks_mut(band_len).map(|b| Mutex::new(Some(b))).collect();
    run_tasks(bands.len(), |band_idx| {
        let band = bands[band_idx].lock().unwrap().take().expect("band dispatched twice");
        for (j, block) in band.chunks_mut(chunk_len).enumerate() {
            f(band_idx * blocks_per_thread + j, block);
        }
    });
}

/// The dispatch core: persistent parked workers plus this module's one
/// audited `unsafe` scope (lifetime erasure of the job closure).
///
/// Protocol: [`run_job`] publishes a [`Job`] under the slot mutex, wakes
/// the workers, claims tasks itself alongside them, and only returns
/// once `outstanding == 0` — i.e. after every claimed task has finished
/// running. Workers touch the erased closure pointer exclusively between
/// claiming a task (under the mutex) and decrementing `outstanding`
/// (under the mutex), so the happens-before chain through the mutex
/// guarantees no worker can observe the pointer after `run_job` returns
/// and the borrow it erased ends. Panics inside a task are caught on the
/// running thread, recorded in the job, and re-thrown by `run_job` after
/// the drain — the workers themselves never unwind out of their loop.
#[allow(unsafe_code)]
mod dispatch {
    use super::IN_WORKER;
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex, OnceLock};

    /// A borrowed `Fn(usize) + Sync` with its lifetime erased so the
    /// `'static` worker threads can call it.
    ///
    /// Safety contract (upheld by [`run_job`], the only constructor
    /// call site): the referent must outlive every [`TaskRef::call`],
    /// which `run_job` guarantees by joining the whole job — even on
    /// unwind paths — before its borrow of the closure ends.
    #[derive(Clone, Copy)]
    struct TaskRef {
        ptr: *const (),
        call: unsafe fn(*const (), usize),
    }

    // SAFETY: the pointee is `Sync` (bound on `run_job`) and the pointer
    // is only dereferenced during the job's lifetime (see contract above),
    // so sharing the pointer across the worker threads is sound.
    unsafe impl Send for TaskRef {}
    unsafe impl Sync for TaskRef {}

    impl TaskRef {
        fn new<F: Fn(usize) + Sync>(f: &F) -> Self {
            unsafe fn call_impl<F: Fn(usize) + Sync>(ptr: *const (), idx: usize) {
                // SAFETY: `ptr` was derived from `&F` in `new` and, per
                // the type-level contract, the referent is still alive.
                let f = unsafe { &*(ptr as *const F) };
                f(idx);
            }
            TaskRef { ptr: f as *const F as *const (), call: call_impl::<F> }
        }

        /// # Safety
        /// The closure `self` was erased from must still be alive.
        unsafe fn call(&self, idx: usize) {
            // SAFETY: forwarded contract.
            unsafe { (self.call)(self.ptr, idx) }
        }
    }

    /// One published fan-out: tasks `0..n_tasks`, claimed one at a time.
    struct Job {
        task: TaskRef,
        n_tasks: usize,
        /// Next unclaimed task index.
        next: usize,
        /// Claimed-or-unclaimed tasks not yet finished; the job is done
        /// (and the closure borrow may end) when this reaches zero.
        outstanding: usize,
        /// First captured panic payload, re-thrown by the dispatcher.
        panic: Option<Box<dyn Any + Send>>,
    }

    struct Shared {
        /// The published job, if any. One job at a time (see `gate`).
        slot: Mutex<Option<Job>>,
        /// Workers park here waiting for a job with unclaimed tasks.
        work: Condvar,
        /// The dispatcher parks here waiting for `outstanding == 0`.
        done: Condvar,
        /// Serializes dispatchers: a second top-level thread dispatching
        /// concurrently waits its turn instead of corrupting `slot`.
        gate: Mutex<()>,
    }

    static SHARED: OnceLock<&'static Shared> = OnceLock::new();

    /// The shared pool state; spawns the persistent workers on first use.
    fn shared() -> &'static Shared {
        SHARED.get_or_init(|| {
            let s: &'static Shared = Box::leak(Box::new(Shared {
                slot: Mutex::new(None),
                work: Condvar::new(),
                done: Condvar::new(),
                gate: Mutex::new(()),
            }));
            // The dispatcher participates, so N-1 parked workers give N
            // threads of compute per job.
            for w in 0..super::num_threads().saturating_sub(1) {
                std::thread::Builder::new()
                    .name(format!("nt-pool-{w}"))
                    .spawn(move || worker_loop(s))
                    .expect("failed to spawn pool worker");
            }
            s
        })
    }

    fn worker_loop(s: &'static Shared) {
        // Permanently a pool worker: kernels inside tasks stay serial.
        IN_WORKER.with(|w| w.set(true));
        let mut g = s.slot.lock().unwrap();
        loop {
            let claimed = match g.as_mut() {
                Some(job) if job.next < job.n_tasks => {
                    let idx = job.next;
                    job.next += 1;
                    Some((job.task, idx))
                }
                _ => None,
            };
            match claimed {
                Some((task, idx)) => {
                    drop(g);
                    // SAFETY: the closure is alive until `outstanding`
                    // hits zero, which cannot happen before the
                    // decrement below.
                    let r = catch_unwind(AssertUnwindSafe(|| unsafe { task.call(idx) }));
                    g = s.slot.lock().unwrap();
                    let job = g.as_mut().expect("job vanished with tasks outstanding");
                    if let Err(p) = r {
                        job.panic.get_or_insert(p);
                    }
                    job.outstanding -= 1;
                    if job.outstanding == 0 {
                        s.done.notify_all();
                    }
                }
                None => g = s.work.wait(g).unwrap(),
            }
        }
    }

    /// Fan `f(0..n_tasks)` out over the persistent workers; the calling
    /// thread claims tasks too. Returns only after every task finished
    /// (the safety anchor for the lifetime erasure above). Re-throws the
    /// first captured task panic.
    pub(super) fn run_job<F: Fn(usize) + Sync>(n_tasks: usize, f: &F) {
        let s = shared();
        let task = TaskRef::new(f);
        let gate = s.gate.lock().unwrap();
        {
            let mut g = s.slot.lock().unwrap();
            debug_assert!(g.is_none(), "dispatch gate must serialize jobs");
            *g = Some(Job { task, n_tasks, next: 0, outstanding: n_tasks, panic: None });
            s.work.notify_all();
        }
        let mut g = s.slot.lock().unwrap();
        loop {
            let job = g.as_mut().expect("dispatcher's job vanished");
            if job.next < job.n_tasks {
                let idx = job.next;
                job.next += 1;
                drop(g);
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let _w = super::enter_worker();
                    // SAFETY: `f` outlives this call — `run_job` joins
                    // the job below before returning.
                    unsafe { task.call(idx) }
                }));
                g = s.slot.lock().unwrap();
                let job = g.as_mut().expect("dispatcher's job vanished");
                if let Err(p) = r {
                    job.panic.get_or_insert(p);
                }
                job.outstanding -= 1;
            } else if job.outstanding > 0 {
                g = s.done.wait(g).unwrap();
            } else {
                break;
            }
        }
        let job = g.take().expect("job drained twice");
        drop(g);
        drop(gate);
        if let Some(p) = job.panic {
            resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn block_indices_cover_everything_once() {
        let mut data = vec![0u32; 103];
        for_each_block_mut(&mut data, 10, |i, block| {
            for v in block.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 10) as u32, "element {i} touched wrongly");
        }
    }

    #[test]
    fn single_block_runs_inline() {
        let mut data = vec![1.0f32; 7];
        for_each_block_mut(&mut data, 100, |i, block| {
            assert_eq!(i, 0);
            for v in block.iter_mut() {
                *v *= 2.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn run_tasks_runs_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
        run_tasks(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} ran a wrong number of times");
        }
    }

    #[test]
    fn nested_run_tasks_stays_serial() {
        // A task is flagged in_worker for its whole body, so a nested
        // fan-out must run inline on the same thread.
        run_tasks(2, |_| {
            if num_threads() > 1 {
                assert!(in_worker(), "tasks must carry the worker flag");
            }
            let outer = std::thread::current().id();
            run_tasks(4, |_| {
                assert_eq!(std::thread::current().id(), outer, "nested fan-out escaped");
            });
        });
    }
}
