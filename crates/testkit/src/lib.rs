//! Test-only instrumentation for the workspace's runtime contracts.
//!
//! The headline export is [`CountingAlloc`], a `#[global_allocator]`
//! wrapper around the system allocator that counts every allocation on a
//! **per-thread** ledger. `tests/alloc_guard.rs` at the workspace root
//! installs it and asserts that steady-state `ForwardPlan::run` and
//! `Optimizer::step_with` calls perform **zero** heap allocations — the
//! zero-alloc claim from the planned-forward PR, turned into a regression
//! test instead of a code-review convention.
//!
//! Counters are thread-local so concurrently running `#[test]` functions
//! can't pollute each other's measurements. The flip side: allocations a
//! measured region performs on *other* threads (e.g. the tensor worker
//! pool's workers) are invisible to [`count_allocs`]. For those, a
//! process-wide counter backs [`count_process_allocs`] and
//! [`assert_no_process_alloc`]; it sees every thread, so a test binary
//! using it must not run anything else concurrently.
//!
//! This crate needs `unsafe` for the one thing that cannot be expressed
//! without it — implementing [`GlobalAlloc`] — so unlike the rest of the
//! workspace it carries `deny(unsafe_code)` with a single audited
//! exemption instead of `forbid`.
#![deny(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations on every thread of the process. A statistic that publishes
/// no other data, so `Relaxed` suffices.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocation counters for the current thread since it started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `alloc`/`alloc_zeroed`/growing-`realloc` calls.
    pub allocs: u64,
    /// Number of `dealloc` calls.
    pub deallocs: u64,
    /// Total bytes requested by counted allocation calls.
    pub bytes: u64,
}

impl AllocStats {
    /// Counter deltas `self - earlier` (counters are monotonic).
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs - earlier.allocs,
            deallocs: self.deallocs - earlier.deallocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Snapshot the current thread's allocation counters.
pub fn current_thread_stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.with(Cell::get),
        deallocs: DEALLOCS.with(Cell::get),
        bytes: ALLOC_BYTES.with(Cell::get),
    }
}

/// Run `f` and report how many heap allocations it performed **on this
/// thread** (see the module docs for the threading caveat).
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (AllocStats, R) {
    let before = current_thread_stats();
    let result = f();
    let after = current_thread_stats();
    (after.since(&before), result)
}

/// Assert that `f` performs zero heap allocations on this thread.
///
/// `what` names the contract in the failure message. Returns `f`'s result
/// so guards can keep using (and thus keep alive) the measured values.
///
/// # Panics
/// Panics when `f` allocated.
#[track_caller]
pub fn assert_no_alloc<R>(what: &str, f: impl FnOnce() -> R) -> R {
    let (stats, result) = count_allocs(f);
    assert_eq!(
        stats.allocs, 0,
        "{what}: expected zero heap allocations, got {} ({} bytes)",
        stats.allocs, stats.bytes
    );
    result
}

/// Run `f` and report how many heap allocations the **whole process**
/// performed meanwhile, on any thread — including worker threads `f`
/// hands work to. Other threads' unrelated allocations count too.
pub fn count_process_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = PROCESS_ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (PROCESS_ALLOCS.load(Ordering::Relaxed) - before, result)
}

/// Assert that the whole process performs zero heap allocations while `f`
/// runs (see [`count_process_allocs`]).
///
/// # Panics
/// Panics when any thread allocated.
#[track_caller]
pub fn assert_no_process_alloc<R>(what: &str, f: impl FnOnce() -> R) -> R {
    let (allocs, result) = count_process_allocs(f);
    assert_eq!(
        allocs, 0,
        "{what}: expected zero heap allocations on any thread, got {allocs}"
    );
    result
}

/// A `#[global_allocator]` that counts per-thread allocations and defers
/// the actual memory management to [`System`].
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: testkit::CountingAlloc = testkit::CountingAlloc::new();
/// ```
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A counting allocator (const, so it can initialize a `static`).
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

fn record_alloc(bytes: usize) {
    // `try_with` because allocation can happen during TLS teardown, when
    // the counters are already destroyed — those events go uncounted
    // rather than aborting the process.
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

fn record_dealloc() {
    let _ = DEALLOCS.try_with(|c| c.set(c.get() + 1));
}

// The one unsafe surface of the workspace: forwarding the GlobalAlloc
// contract to `System`. Safety rests entirely on passing the caller's
// layout/pointer through unchanged, which is audited to be all this does.
#[allow(unsafe_code)]
mod forward {
    use super::*;

    // SAFETY: every method forwards the caller's layout/pointer unchanged to
    // `System` (itself a conforming GlobalAlloc); counting touches only
    // thread-local integers and never the allocation itself.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record_alloc(layout.size());
            // SAFETY: same `layout` the caller handed us.
            unsafe { System.alloc(layout) }
        }

        // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record_alloc(layout.size());
            // SAFETY: same `layout` the caller handed us.
            unsafe { System.alloc_zeroed(layout) }
        }

        // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            record_dealloc();
            // SAFETY: same `ptr`/`layout` pair the caller handed us, which
            // the contract says came from this allocator.
            unsafe { System.dealloc(ptr, layout) }
        }

        // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A realloc is a fresh allocation from the contract's point of
            // view: growing a Vec in a "zero-alloc" region is a violation.
            record_alloc(new_size);
            // SAFETY: same `ptr`/`layout`/`new_size` the caller handed us.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Installing the allocator here exercises the counting path for this
    // test binary; the workspace-level guard installs its own.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc::new();

    #[test]
    fn counts_vec_allocation() {
        let (stats, v) = count_allocs(|| vec![1u8; 4096]);
        assert!(stats.allocs >= 1, "vec! must allocate");
        assert!(stats.bytes >= 4096);
        drop(v);
    }

    #[test]
    fn pure_arithmetic_is_alloc_free() {
        let mut acc = 0u64;
        let (stats, ()) = count_allocs(|| {
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
        });
        assert_eq!(stats.allocs, 0, "arithmetic must not allocate");
        assert!(acc != 0);
    }

    #[test]
    fn assert_no_alloc_passes_through_result() {
        let x = assert_no_alloc("sum", || (0..100u32).sum::<u32>());
        assert_eq!(x, 4950);
    }

    #[test]
    fn process_counter_sees_other_threads() {
        let (allocs, ()) = count_process_allocs(|| {
            std::thread::scope(|s| {
                s.spawn(|| drop(std::hint::black_box(vec![1u8; 64])));
            });
        });
        assert!(allocs >= 1, "the child thread's vec! must count");
    }

    #[test]
    #[should_panic(expected = "expected zero heap allocations")]
    fn assert_no_alloc_catches_allocation() {
        let _ = assert_no_alloc("boxing", || Box::new(17u64));
    }

    #[test]
    fn in_place_mutation_of_preallocated_buffer_is_free() {
        let mut buf = vec![0.0f32; 1024];
        let (stats, ()) = count_allocs(|| {
            for (i, v) in buf.iter_mut().enumerate() {
                *v = i as f32;
            }
        });
        assert_eq!(stats.allocs, 0);
        assert_eq!(stats.deallocs, 0);
    }
}
