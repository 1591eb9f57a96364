//! Persistent-pool stress: nested-dispatch guard, panic recovery, and
//! concurrent dispatchers. Lives in its own test binary so `NT_THREADS`
//! can be set before the pool's `OnceLock` is first read, and shares one
//! `#[test]` body so every sub-check runs after the env var is set.

use nt_tensor::pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[test]
fn pool_survives_nesting_panics_and_concurrent_dispatch() {
    std::env::set_var("NT_THREADS", "4");
    assert_eq!(pool::num_threads(), 4);

    // 1. The in_worker guard prevents NT_THREADS^2 fan-out: a kernel
    // dispatched from inside a pool task must run inline on that same
    // task's thread.
    pool::run_tasks(4, |_| {
        assert!(pool::in_worker(), "pool tasks must carry the worker flag");
        let me = std::thread::current().id();
        let mut data = vec![0u8; 64];
        pool::for_each_block_mut(&mut data, 4, |_, block| {
            assert_eq!(std::thread::current().id(), me, "nested dispatch escaped its worker");
            block.fill(1);
        });
        assert!(data.iter().all(|&v| v == 1));
    });

    // 2. A panicking task closure propagates to the dispatcher with its
    // payload intact...
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool::run_tasks(4, |i| {
            if i == 2 {
                panic!("boom in task");
            }
        });
    }));
    let payload = caught.expect_err("task panic must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "boom in task", "panic payload must survive the pool");

    // ...and a panicking band closure in for_each_block_mut does too.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut data = vec![0u32; 1000];
        pool::for_each_block_mut(&mut data, 10, |i, _| {
            if i == 57 {
                panic!("boom in band");
            }
        });
    }));
    assert!(caught.is_err(), "band panic must propagate");

    // 3. The pool is not deadlocked or poisoned by the panics: hundreds
    // of later dispatches still cover every block exactly once.
    for round in 0..200 {
        let mut data = vec![0u32; 403];
        pool::for_each_block_mut(&mut data, 10, |i, block| {
            for v in block.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 10) as u32, "round {round}: element {i} wrong");
        }
    }

    // 4. Concurrent top-level dispatchers serialize through the gate
    // instead of corrupting each other's jobs (panics mixed in).
    let total = AtomicUsize::new(0);
    let panics = Mutex::new(0usize);
    std::thread::scope(|sc| {
        for t in 0..4 {
            let total = &total;
            let panics = &panics;
            sc.spawn(move || {
                for round in 0..50 {
                    if t == 0 && round % 10 == 3 {
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            pool::run_tasks(3, |_| panic!("interleaved boom"));
                        }));
                        assert!(r.is_err());
                        *panics.lock().unwrap() += 1;
                    } else {
                        pool::run_tasks(5, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                }
            });
        }
    });
    assert_eq!(*panics.lock().unwrap(), 5);
    assert_eq!(total.load(Ordering::Relaxed), (4 * 50 - 5) * 5, "a dispatch lost tasks");

    // 5. Dispatch counters moved (monotonic totals for the metrics
    // registry / `perf`'s `tensor.pool.*`).
    let stats = pool::stats();
    assert!(stats.dispatches > 0, "parallel dispatches must be counted");
    assert!(stats.tasks >= stats.dispatches, "tasks count fan-out, not jobs");
}
