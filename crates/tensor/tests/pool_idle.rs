//! An idle worker pool costs no CPU: after a pooled call its workers spin
//! for a bounded time, then park. The paper's claim is about energy at the
//! edge, so a core left spinning between requests is a regression.
//!
//! Process CPU time comes from `/proc/self/stat` (Linux); elsewhere the
//! test has nothing to read and passes vacuously. The binary holds one
//! test so no other test's work lands in the process's CPU time.

use tensor::parallel::{max_threads, par_row_chunks_mut};

/// User plus system CPU seconds of the whole process, all threads.
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in clock ticks (100 per second on
    // Linux's default `USER_HZ`).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

#[test]
fn idle_pool_parks_and_costs_no_cpu() {
    std::env::set_var("TENSOR_NUM_THREADS", "2");
    assert_eq!(max_threads(), 2);
    let mut data = vec![0.0f32; 1 << 16];
    let pooled_call = |data: &mut [f32]| {
        par_row_chunks_mut(data, 1024, |row0, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (row0 * 1024 + k) as f32;
            }
        })
    };
    // Start the pool and leave its worker freshly done with a job, i.e.
    // at the start of its spin.
    pooled_call(&mut data);
    pooled_call(&mut data);
    let Some(before) = process_cpu_seconds() else {
        return;
    };
    let sleep = std::time::Duration::from_millis(200);
    std::thread::sleep(sleep);
    let after = process_cpu_seconds().expect("read /proc/self/stat twice");
    let used = after - before;
    // A worker that never parked would burn the whole 0.2 s; a parked one
    // burns its spin budget (well under a millisecond) plus clock-tick
    // rounding.
    assert!(
        used < sleep.as_secs_f64() / 4.0,
        "process used {used:.3} s of CPU while idle for {:.3} s",
        sleep.as_secs_f64()
    );
    assert_eq!(data[(1 << 16) - 1], ((1 << 16) - 1) as f32);
}
