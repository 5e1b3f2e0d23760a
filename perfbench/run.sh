#!/usr/bin/env bash
# Builds the benchmark against the repository's crates and runs it.
#
#   bash perfbench/run.sh --workload <batch-deep|batch-words|serve-stream> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Cargo output goes to stderr; the last line
# of stdout is the result. Build products go to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dod_perfbench" "$@"
