//! Data parallelism over a persistent worker pool.
//!
//! We deliberately do not depend on `rayon` (it is not in the approved
//! dependency set for this reproduction). The one parallel pattern the
//! kernels need — split a `&mut [T]` into disjoint row-aligned chunks and
//! process each on its own thread — is [`par_row_chunks_mut`] (and a
//! crate-internal twin that also hands each chunk its own scratch block),
//! run on a process-wide worker pool: `max_threads() − 1` workers started on
//! first use, a static chunk-to-worker assignment, bounded spinning then
//! parking, and an inline fallback when the pool is busy.
//!
//! Threading is governed by [`max_threads`], which honours the
//! `TENSOR_NUM_THREADS` environment variable and otherwise uses available
//! parallelism. With a budget of one thread no pool starts and every call
//! runs inline.

mod pool;

use std::sync::OnceLock;

/// The number of worker threads parallel helpers may use.
///
/// Resolution order: `TENSOR_NUM_THREADS` env var (if parseable and ≥ 1),
/// then [`std::thread::available_parallelism`], then 1. Cached after first
/// call.
pub fn max_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        if let Ok(s) = std::env::var("TENSOR_NUM_THREADS") {
            if let Ok(n) = s.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Process disjoint *row-aligned* chunks of `data` in parallel.
///
/// `data` is split into at most [`max_threads`] chunks of whole rows of
/// `row_len` elements, and `f(first_row, chunk)` runs once per chunk on the
/// worker pool: chunk 0 on the calling thread, chunk `i` always on
/// worker `i`. `data.len()` need not be a multiple of `row_len`: the
/// trailing partial row rides with the last chunk, so elementwise callers
/// pass a fixed granule as `row_len`. The split depends only on the lengths
/// and the thread budget, so a kernel whose per-row arithmetic does not
/// depend on the chunk gives bit-identical output at every thread count.
/// When the pool is busy (another caller, or a call from inside a chunk) or
/// there is one chunk, `f(0, data)` runs inline instead.
pub fn par_row_chunks_mut<T: Send, F>(data: &mut [T], row_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    par_row_chunks_scratch_mut(data, row_len, &mut [(); 0], 0, |row0, chunk, _| {
        f(row0, chunk)
    });
}

/// [`par_row_chunks_mut`] with per-chunk scratch: chunk `i` also receives
/// block `i` of `scratch_len` elements of `scratch`, which must hold one
/// block per chunk (at least `max_threads().min(rows)` blocks). The inline
/// fallback receives block 0.
///
/// # Panics
/// When `scratch` is shorter than the chunks need, or re-raising a panic of
/// `f` on any thread.
pub(crate) fn par_row_chunks_scratch_mut<T: Send, S: Send, F>(
    data: &mut [T],
    row_len: usize,
    scratch: &mut [S],
    scratch_len: usize,
    f: F,
) where
    F: Fn(usize, &mut [T], &mut [S]) + Sync,
{
    let row_len = row_len.max(1);
    let rows = data.len() / row_len;
    let threads = max_threads().min(rows).max(1);
    if threads > 1 {
        let rows_per = rows.div_ceil(threads);
        let tasks = rows.div_ceil(rows_per);
        let chunk = |t: usize, c: &mut [T], s: &mut [S]| f(t * rows_per, c, s);
        if pool::try_for_each_chunk(data, tasks, rows_per * row_len, scratch, scratch_len, chunk) {
            return;
        }
    }
    if !data.is_empty() {
        f(0, data, &mut scratch[..scratch_len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn max_threads_is_at_least_one() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn row_chunks_touch_every_element_once_and_stay_row_aligned() {
        // 1001 rows of 7 plus a partial row of 3: every chunk but the last
        // holds whole rows, and the tail rides with the last one.
        let row_len = 7;
        let mut data = vec![0u32; 1001 * row_len + 3];
        par_row_chunks_mut(&mut data, row_len, |row0, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v += (row0 * row_len + k) as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn empty_slice_is_noop_and_short_slice_is_one_call() {
        let mut empty: Vec<u8> = vec![];
        par_row_chunks_mut(&mut empty, 1, |_, _| panic!("must not be called"));
        let calls = AtomicUsize::new(0);
        let mut short = vec![1u8; 3];
        par_row_chunks_mut(&mut short, 100, |row0, chunk| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!((row0, chunk.len()), (0, 3));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scratch_blocks_are_disjoint_per_chunk() {
        let rows = 64;
        let mut data = vec![0u64; rows * 4];
        let mut scratch = vec![0u64; max_threads().min(rows) * 2];
        let blocks = std::sync::Mutex::new(Vec::new());
        par_row_chunks_scratch_mut(&mut data, 4, &mut scratch, 2, |row0, chunk, s| {
            assert_eq!(s.len(), 2);
            blocks.lock().unwrap().push(s.as_ptr() as usize);
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (row0 * 4 + k) as u64;
            }
        });
        let mut blocks = blocks.into_inner().unwrap();
        blocks.sort_unstable();
        let block_bytes = 2 * std::mem::size_of::<u64>();
        assert!(blocks.windows(2).all(|w| w[1] - w[0] >= block_bytes));
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn worker_panic_is_reraised_on_the_caller() {
        if max_threads() < 2 {
            return;
        }
        // The pool may be busy with another test's job, in which case the
        // call runs inline as one chunk starting at row 0 and does not
        // panic; retry until a split run reaches a worker.
        for _ in 0..10_000 {
            let mut data = vec![0u8; 64];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_row_chunks_mut(&mut data, 1, |row0, _| {
                    assert!(row0 == 0, "chunk at row {row0}");
                });
            }));
            if let Err(payload) = result {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(msg.contains("parallel worker panicked"), "{msg}");
                assert!(msg.contains("chunk at row"), "{msg}");
                // The pool serves the next job normally.
                let mut again = vec![1u32; 64];
                par_row_chunks_mut(&mut again, 1, |_, c| c.fill(2));
                assert!(again.iter().all(|&v| v == 2));
                return;
            }
        }
        panic!("no split run reached a worker");
    }
}
