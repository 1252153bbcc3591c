//! The untraced benchmark binary (system allocator). See `perfbench/README.md`.

fn main() {
    std::process::exit(perfbench::run(false))
}
