//! The persistent worker pool behind [`super::par_row_chunks_scratch_mut`].
//!
//! Spawning scoped threads per kernel call costs tens of microseconds
//! (thread creation, stack mapping, join), as much as a whole batch-1
//! request. This pool starts `max_threads() − 1` workers once, on first
//! use, and keeps them for the life of the process:
//!
//! * **Static partition.** A job is a task index range `0..tasks`; the
//!   caller runs task 0 itself and worker `i` always runs task `i + 1`.
//!   There is no work stealing, so a worker that runs the same kernel on
//!   the same weights every request keeps its slice hot in its core's
//!   cache.
//! * **Bounded spin, then park.** An idle worker spins on its post counter
//!   for [`SPIN_BUDGET`], then parks, so back-to-back calls (layer after
//!   layer, request after request) never pay a wake-up and an idle process
//!   costs no CPU. A caller waiting for its workers does the same. Spinning
//!   is skipped when the pool has more threads than the host has cores,
//!   where it would only steal time from the thread being waited for.
//! * **Inline fallback.** A call that finds the pool busy — another
//!   thread's job, or a nested call from inside a task, such as a conv
//!   chunk's inner matrix product — gets `false` back and runs its work
//!   inline. Nothing ever waits for the pool, so it cannot deadlock or
//!   oversubscribe the cores.
//! * **Panics.** A panicking task is caught on its worker; the caller
//!   waits for every task, then re-raises it.
//! * **No allocation** once the pool has started: jobs are borrowed
//!   closures whose lifetime is erased for the duration of one call, the
//!   hand-off is a few atomics, and a wake-up is `Thread::unpark`.
//!
//! The workers are detached: they live as long as the process and never
//! return, so there is nothing to join. A task's panic never escapes a
//! worker (it is caught and handed to the caller), so no panic is lost.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker, or a caller waiting for its workers, spins
/// before it parks. It covers the gap between two kernel calls of one
/// request and between closed-loop requests, and is well under the time a
/// parked thread takes to wake.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Spin-loop hints between two reads of the clock.
const SPINS_PER_CHECK: u32 = 64;

/// One job: task `t` of `0..tasks` is `task(t)`.
type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// A worker's mailbox.
struct Slot {
    /// Number of jobs posted to this worker so far.
    posted: AtomicUsize,
    /// Set while the worker is parked or about to park.
    sleeping: AtomicBool,
    /// The worker thread, for `unpark`.
    thread: OnceLock<Thread>,
}

/// The process's workers and the job they share.
struct WorkerPool {
    slots: Box<[Slot]>,
    /// Workers that started; slots past this count have no thread.
    live: AtomicUsize,
    /// How long waiting threads spin before they park: [`SPIN_BUDGET`], or
    /// zero when the pool has as many workers as the host has cores.
    spin_budget: Duration,
    /// Held by the one caller whose job is in flight.
    busy: AtomicBool,
    /// The job in flight, with its borrow's lifetime erased.
    job: UnsafeCell<Option<&'static Task<'static>>>,
    /// Workers that have not yet finished the job in flight.
    pending: AtomicUsize,
    /// Set while the caller is parked waiting for `pending` to reach 0.
    caller_sleeping: AtomicBool,
    /// The parked caller, for `unpark`.
    caller: Mutex<Option<Thread>>,
    /// The first panic a task of the job in flight raised on a worker.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: every field but `job` is `Sync` on its own. `job` is written only
// by the thread holding `busy`, and only while no worker reads it: before
// the job's posts (which publish it, `SeqCst`) and after `pending` has
// reached 0 (each worker's last read of it precedes its `SeqCst` decrement).
// Workers read it only between those two points. The `&Task` it holds is
// shareable because `Task<'_>: Sync`.
unsafe impl Sync for WorkerPool {}

/// Spin until `ready` yields a value, for at most `budget`.
fn spin<T>(budget: Duration, mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    if let Some(v) = ready() {
        return Some(v);
    }
    if budget.is_zero() {
        return None;
    }
    let start = Instant::now();
    loop {
        for _ in 0..SPINS_PER_CHECK {
            std::hint::spin_loop();
            if let Some(v) = ready() {
                return Some(v);
            }
        }
        if start.elapsed() >= budget {
            return None;
        }
    }
}

impl WorkerPool {
    /// Start `workers` threads on a leaked pool. Allocates the pool and
    /// each thread (once per process).
    fn new(workers: usize) -> &'static WorkerPool {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool {
            slots: (0..workers)
                .map(|_| Slot {
                    posted: AtomicUsize::new(0),
                    sleeping: AtomicBool::new(false),
                    thread: OnceLock::new(),
                })
                .collect(),
            live: AtomicUsize::new(0),
            spin_budget: if workers < cores {
                SPIN_BUDGET
            } else {
                Duration::ZERO
            },
            busy: AtomicBool::new(false),
            job: UnsafeCell::new(None),
            pending: AtomicUsize::new(0),
            caller_sleeping: AtomicBool::new(false),
            caller: Mutex::new(None),
            panic: Mutex::new(None),
        }));
        for (i, slot) in pool.slots.iter().enumerate() {
            let spawned = thread::Builder::new()
                .name(format!("tensor-pool-{}", i + 1))
                .spawn(move || pool.work(i));
            match spawned {
                Ok(handle) => {
                    let _ = slot.thread.set(handle.thread().clone());
                    pool.live.store(i + 1, Ordering::Release);
                }
                // Run with the workers that did start; jobs that need more
                // run inline.
                Err(_) => break,
            }
        }
        pool
    }

    /// Post `task` to workers `0..tasks - 1` (tasks `1..tasks`).
    /// Allocation-free.
    ///
    /// # Safety
    /// The caller must hold `busy`, have `tasks - 1` live workers, and call
    /// [`WorkerPool::wait`] before `task`'s borrow ends, on every path.
    unsafe fn submit(&self, tasks: usize, task: &Task<'_>) {
        // SAFETY: only the lifetime changes. The caller calls `wait` before
        // the borrow ends (this fn's contract), and `wait` returns only once
        // no worker will read `job` again.
        let task = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
        // SAFETY: this thread holds `busy` and the previous job's `wait`
        // saw `pending == 0`, so no worker reads `job` now (see the `Sync`
        // impl).
        unsafe { *self.job.get() = Some(task) };
        self.pending.store(tasks - 1, Ordering::SeqCst);
        for slot in &self.slots[..tasks - 1] {
            slot.posted.fetch_add(1, Ordering::SeqCst);
            if slot.sleeping.load(Ordering::SeqCst) {
                if let Some(t) = slot.thread.get() {
                    t.unpark();
                }
            }
        }
    }

    /// Wait until every worker has finished the job in flight, then retire
    /// it; returns the panic a worker's task raised, if any.
    /// Allocation-free.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let done = || (self.pending.load(Ordering::SeqCst) == 0).then_some(());
        if spin(self.spin_budget, done).is_none() {
            if let Ok(mut caller) = self.caller.lock() {
                *caller = Some(thread::current());
            }
            self.caller_sleeping.store(true, Ordering::SeqCst);
            while done().is_none() {
                thread::park();
            }
            self.caller_sleeping.store(false, Ordering::SeqCst);
        }
        // SAFETY: `pending == 0`, so no worker reads `job` (see the `Sync`
        // impl).
        unsafe { *self.job.get() = None };
        self.panic.lock().ok().and_then(|mut p| p.take())
    }

    /// Worker `i`'s loop: wait for a post, run task `i + 1`, report done.
    fn work(&self, i: usize) {
        let slot = &self.slots[i];
        let mut seen = 0;
        loop {
            seen = self.await_post(slot, seen);
            // SAFETY: the post this worker just saw was made after `job`
            // was written, and `job` stays unchanged until `pending` reaches
            // 0, which needs this worker's decrement below.
            let job = unsafe { *self.job.get() };
            if let Some(task) = job {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(i + 1))) {
                    if let Ok(mut first) = self.panic.lock() {
                        first.get_or_insert(payload);
                    }
                }
            }
            if self.pending.fetch_sub(1, Ordering::SeqCst) == 1
                && self.caller_sleeping.load(Ordering::SeqCst)
            {
                if let Ok(caller) = self.caller.lock() {
                    if let Some(t) = caller.as_ref() {
                        t.unpark();
                    }
                }
            }
        }
    }

    /// Spin, then park, until `slot` has a post past `seen`; returns the
    /// new post count.
    fn await_post(&self, slot: &Slot, seen: usize) -> usize {
        let posted = || {
            let p = slot.posted.load(Ordering::SeqCst);
            (p != seen).then_some(p)
        };
        if let Some(p) = spin(self.spin_budget, posted) {
            return p;
        }
        // `sleeping` is stored before `posted` is read again, and `submit`
        // bumps `posted` before it reads `sleeping` (all `SeqCst`), so
        // either this read sees the post or `submit` sees `sleeping` and
        // unparks.
        slot.sleeping.store(true, Ordering::SeqCst);
        let p = loop {
            if let Some(p) = posted() {
                break p;
            }
            thread::park();
        };
        slot.sleeping.store(false, Ordering::SeqCst);
        p
    }
}

/// The process's pool, started on first use; `None` when the thread budget
/// is one.
fn pool() -> Option<&'static WorkerPool> {
    static POOL: OnceLock<Option<&'static WorkerPool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let workers = super::max_threads() - 1;
        (workers > 0).then(|| WorkerPool::new(workers))
    })
}

/// Run `task(t)` for every `t` in `0..tasks` — task 0 on the calling
/// thread, task `t` on worker `t − 1` — and return once all have finished.
/// Returns `false`, having run nothing, when the pool cannot take the job:
/// fewer than two tasks, more tasks than threads, or the pool busy with
/// another job (including a call from inside a task).
///
/// # Panics
/// Re-raises a panic of any task, after every task has finished.
fn try_run(tasks: usize, task: &Task<'_>) -> bool {
    let Some(pool) = pool() else {
        return false;
    };
    if tasks < 2 || tasks - 1 > pool.live.load(Ordering::Acquire) {
        return false;
    }
    if pool
        .busy
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return false;
    }
    // SAFETY: this thread holds `busy`, `tasks - 1 <= live` was checked
    // above, and `wait` runs below before `task`'s borrow ends: the caller's
    // own task cannot unwind past it.
    unsafe { pool.submit(tasks, task) };
    let mine = panic::catch_unwind(AssertUnwindSafe(|| task(0)));
    let theirs = pool.wait();
    pool.busy.store(false, Ordering::Release);
    if let Err(payload) = mine {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = theirs {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        // lint:allow(panic-in-lib, reason = "a worker panic must surface on the caller; swallowing it would return half-computed output silently")
        panic!("parallel worker panicked: {msg}");
    }
    true
}

/// A raw pointer the tasks of one job share; each task derives a disjoint
/// slice from it.
struct SharedPtr<T>(*mut T);

impl<T> SharedPtr<T> {
    /// The pointer. A method, so closures capture the whole `SharedPtr`
    /// (which is `Sync`) rather than the bare pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only turned into slices that are disjoint across
// tasks (see `try_for_each_chunk`), and moving a `&mut [T]` to another
// thread needs exactly `T: Send`.
unsafe impl<T: Send> Sync for SharedPtr<T> {}

/// Run `f(t, chunk_t, scratch_t)` on the pool for `t` in `0..tasks`, where
/// `chunk_t` is `data[t·chunk_len ..]` up to the next chunk (the last chunk
/// runs to the end of `data`) and `scratch_t` is the `t`-th block of
/// `scratch_len` elements of `scratch`. Returns `false`, having run nothing,
/// when the pool cannot take the job (see [`try_run`]).
///
/// # Panics
/// When the chunks or scratch blocks do not fit their slices, or re-raising
/// a task's panic.
pub(super) fn try_for_each_chunk<T: Send, S: Send, F>(
    data: &mut [T],
    tasks: usize,
    chunk_len: usize,
    scratch: &mut [S],
    scratch_len: usize,
    f: F,
) -> bool
where
    F: Fn(usize, &mut [T], &mut [S]) + Sync,
{
    let len = data.len();
    assert!(
        tasks > 0 && (tasks - 1) * chunk_len <= len,
        "chunks exceed data"
    );
    assert!(tasks * scratch_len <= scratch.len(), "scratch too short");
    let data_ptr = SharedPtr(data.as_mut_ptr());
    let scratch_ptr = SharedPtr(scratch.as_mut_ptr());
    let task = |t: usize| {
        let start = t * chunk_len;
        let end = if t + 1 == tasks {
            len
        } else {
            start + chunk_len
        };
        // SAFETY: `t < tasks`, so by the asserts above `start <= end <= len`
        // and the scratch block lies within `scratch`. Chunks and blocks of
        // distinct tasks are disjoint, `try_run` runs each task at most once
        // and returns only after all have finished, and both slices stay
        // exclusively borrowed by this call until then.
        let (chunk, block) = unsafe {
            (
                std::slice::from_raw_parts_mut(data_ptr.get().add(start), end - start),
                std::slice::from_raw_parts_mut(scratch_ptr.get().add(t * scratch_len), scratch_len),
            )
        };
        f(t, chunk, block);
    };
    try_run(tasks, &task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_task_runs_once_or_the_job_is_refused() {
        let tasks = super::super::max_threads();
        let hits: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
        for _ in 0..100 {
            // A refused job runs no task, so counts stay equal either way.
            try_run(tasks, &|t| {
                hits[t].fetch_add(1, Ordering::SeqCst);
            });
        }
        let counts: Vec<u32> = hits.iter().map(|h| h.load(Ordering::SeqCst)).collect();
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }

    #[test]
    fn nested_call_is_refused_and_runs_inline() {
        let tasks = super::super::max_threads();
        if tasks < 2 {
            return;
        }
        let nested_refused = AtomicU32::new(0);
        let ran = try_run(tasks, &|_| {
            if !try_run(tasks, &|_| {}) {
                nested_refused.fetch_add(1, Ordering::SeqCst);
            }
        });
        if ran {
            assert_eq!(nested_refused.load(Ordering::SeqCst), tasks as u32);
        }
    }
}
