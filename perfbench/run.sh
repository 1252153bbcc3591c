#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it. Untraced runs use the
# `perfbench` binary; `--trace 1` runs use `perfbench_traced`, which counts
# allocations. Arguments are passed through:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
bin=perfbench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=perfbench_traced
    fi
    prev="$arg"
done
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
