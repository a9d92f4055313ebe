#!/usr/bin/env bash
# Build the host-time benchmark from source and run it from the repository
# root. Every argument is passed to `hostbench` (see benchmark/README.md):
#
#   bash benchmark/run.sh                  # all workloads, timed then traced
#   bash benchmark/run.sh --quick          # smoke run, under 20 s
#   bash benchmark/run.sh --workload md_balanced --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."

# The engine reads ANTON_* knobs (shards, lookahead, observers) from the
# environment; the benchmark measures the defaults.
unset "${!ANTON_@}"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hostbench" "$@"
