//! The traced benchmark binary: the same runs as `perfbench`, with a
//! counting global allocator so traced runs can report allocations per
//! request. Untraced runs use `perfbench`, whose allocator is the system's.

#[global_allocator]
static ALLOC: testkit::CountingAlloc = testkit::CountingAlloc::new();

fn main() {
    std::process::exit(perfbench::run(true))
}
