#!/usr/bin/env bash
# CI gates, split into stages so the PR fast-gate stays under ~10 min:
#
#   scripts/ci.sh fast     # fmt, no env reads in library crates, build, tests, clippy, doc warnings
#   scripts/ci.sh full     # smokes + determinism + result emitters + drift check + host benchmark smoke
#   scripts/ci.sh nightly  # extended chaos sweep + 24^3 scale probe + drift check
#   scripts/ci.sh          # fast + full (the complete tier-1 gate)
#
# Every committed result (BENCH_pr*.json, LEDGER.json, specs/) is the
# byte-exact output of one emitter that `full` runs; check_drift, the
# last step of `full` and `nightly`, fails on any changed byte.
#
# The GitHub workflow runs `fast` and `full` as separate jobs with
# per-job caches on every PR, and `nightly` on a schedule.
set -euo pipefail
cd "$(dirname "$0")/.."

check_drift() {
  git diff --exit-code -- 'BENCH_pr*.json' LEDGER.json specs/ || {
    echo "ci: a committed result drifted from its emitter's output" >&2
    exit 1
  }
}

fast_gate() {
  cargo fmt --all -- --check

  # No hidden knobs: a run is configured by its RunConfig alone, so the
  # library crates read no environment. Only the bench binaries read
  # ANTON_* variables, through anton_bench::knobs.
  if grep -rn 'env::var' crates/{des,net,core,collectives,obs}/src; then
    echo "ci: a library crate reads the environment; pass the value through RunConfig" >&2
    exit 1
  fi

  cargo build --release
  cargo test --workspace -q
  cargo clippy --workspace --all-targets -- -D warnings
  RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace
}

full_gate() {
  # Observability smoke: the trace exporter must produce well-formed,
  # Perfetto-loadable JSON (it validates its own output before writing).
  cargo run -q --release -p anton-bench --bin trace_export
  test -s target/obs/trace.json
  test -s target/obs/summary.csv
  test -s target/obs/metrics.json

  # Congestion telemetry smoke: exports must materialize and the map must
  # agree with the activity tracer (asserted inside the binary).
  cargo run -q --release -p anton-bench --bin congestion_heatmap > /dev/null
  test -s target/obs/congestion.csv
  test -s target/obs/congestion_trace.json

  # Parallel-engine determinism cross-check: the same workload mix run
  # sequentially and with 4 worker threads must fingerprint identically,
  # byte for byte — and the adaptive per-pair lookahead must fingerprint
  # identically to the uniform global bound. The binary names the window
  # mode its runs used, so the last stanza also proves the knob reached
  # them (an adaptive-vs-adaptive comparison would pass vacuously).
  ANTON_THREADS=1 cargo run -q --release -p anton-bench --bin par_determinism
  cp target/obs/par_fingerprint.txt target/obs/par_fingerprint_t1.txt
  ANTON_THREADS=4 cargo run -q --release -p anton-bench --bin par_determinism
  if ! diff -u target/obs/par_fingerprint_t1.txt target/obs/par_fingerprint.txt; then
    echo "ci: parallel engine is not thread-count deterministic" >&2
    exit 1
  fi
  ANTON_THREADS=4 ANTON_LOOKAHEAD=global \
    cargo run -q --release -p anton-bench --bin par_determinism \
    | tee target/obs/par_determinism_global.txt
  grep -q "lookahead=global" target/obs/par_determinism_global.txt || {
    echo "ci: ANTON_LOOKAHEAD=global did not reach par_determinism's runs" >&2
    exit 1
  }
  if ! diff -u target/obs/par_fingerprint_t1.txt target/obs/par_fingerprint.txt; then
    echo "ci: adaptive lookahead changed the simulation vs the global bound" >&2
    exit 1
  fi

  # Speedup harness: asserts bit-identity at 1/2/4/8 threads plus the
  # adaptive-vs-global A/B inside the binary (adaptive may never need
  # more windows than the global bound and must strictly win on the
  # skewed workload; wall-clock bars only arm on >= 8-core hosts), and
  # regenerates BENCH_pr4.json and BENCH_pr9.json — deterministic
  # event-level metrics only.
  cargo run -q --release -p anton-bench --bin par_speedup

  # Runtime-observatory smoke: profiling must be invisible (fingerprints
  # bit-identical on/off and across 1 vs 4 threads, asserted inside the
  # binary), the speedup attribution must telescope, and BENCH_pr5.json
  # is regenerated — deterministic event-level metrics only, never wall
  # clock.
  cargo run -q --release -p anton-bench --bin par_profile
  test -s target/obs/par_runtime_trace.json

  # Chaos smoke: 3 seeds x 2 fault levels of the recovering all-reduce,
  # every recovery invariant asserted inside the binary (no lost
  # completions, bounded degradation, bit-identical replay across
  # plans). Then the full campaign regenerates BENCH_pr6.json — the
  # degradation curve — and sweeps 40 seeds x 4 levels, each cell on
  # one slab, two slabs and the auto plan at 1 and 2 threads, which must
  # all give one fingerprint.
  cargo run -q --release -p anton-bench --bin chaos_campaign -- --smoke
  cargo run -q --release -p anton-bench --bin chaos_campaign

  # Observatory gate: the attribution-aware check triages a fresh
  # collection component by component against the committed
  # BENCH_pr7.json (failing on a gated regression), archives the full
  # report, and regenerates BENCH_pr7.json.
  cargo run -q --release -p anton-bench --bin bench_observatory -- check
  test -s target/obs/observatory.json

  # Scale-observatory gate: the streaming bounded-memory probe proves the
  # streamed fold exact on the 512-node reference (breakdown, census,
  # heavy hitters, shard-merge bit-identity; sketch quantiles within one
  # log-bucket), then runs the 4,096-node probe under the instrumented
  # allocator asserting the per-node observer-memory budget — all inside
  # the binary. Regenerates BENCH_pr8.json (reference + 16^3 metrics,
  # byte-identical in quick and full modes).
  cargo run -q --release -p anton-bench --features obs-alloc --bin scale_probe -- --quick
  test -s target/obs/scale_report.json
  test -s target/obs/scale_trace.json
  test -s target/obs/scale_lifecycles.csv

  # Canonical suite: regenerates BENCH_pr3.json, DHFR step included.
  # Release only: a debug build's fixed-point overflow check fires on
  # the DHFR system (ROADMAP.md).
  cargo run -q --release -p anton-bench --bin canonical_suite

  # Scenario-provenance gate: re-run both committed specs through the
  # scenario CLI (each executes at 1 and 4 threads and refuses to ledger
  # on any fingerprint divergence), replay-verify every LEDGER.json
  # entry from its committed spec file, and prove the cross-run diff
  # still names the shifted component. A spec edit without a `scenario
  # run` (or a run that changed a fingerprint) fails the drift check.
  cargo run -q --release -p anton-bench --bin scenario -- \
    run specs/md_balanced.toml --index LEDGER.json --note "baseline MD exchange"
  cargo run -q --release -p anton-bench --bin scenario -- \
    run specs/md_skewed.toml --index LEDGER.json --note "40ns compute skew variant"
  cargo run -q --release -p anton-bench --bin scenario -- \
    verify --all --index LEDGER.json
  cargo run -q --release -p anton-bench --bin scenario -- \
    diff md_balanced md_skewed --index LEDGER.json > target/obs/scenario_diff.txt
  grep -q "critical path moved\|leader moved" target/obs/scenario_diff.txt || {
    echo "ci: scenario diff lost its component attribution" >&2
    exit 1
  }

  # Host-time benchmark smoke: its unit tests, then a quick run of every
  # workload that fails on a fingerprint mismatch or a missing metric.
  # No timing threshold: shared runners are too noisy for one.
  cargo test --manifest-path benchmark/Cargo.toml
  bash benchmark/run.sh --quick --check

  check_drift
}

nightly_gate() {
  # Deep chaos sweep: 10 extra seeds per fault level plus a 4-thread
  # bit-identity check per cell.
  ANTON_CHAOS_EXTENDED=1 cargo run -q --release -p anton-bench --bin chaos_campaign

  # The 24^3 (13,824-node) scale probe under the instrumented allocator
  # (the --quick PR gate stops at 16^3). BENCH_pr8.json records only the
  # reference + 16^3 metrics and is byte-identical in quick and full
  # modes, so the drift check stays meaningful here too.
  cargo run -q --release -p anton-bench --features obs-alloc --bin scale_probe

  check_drift
}

case "${1:-all}" in
  fast) fast_gate ;;
  full) full_gate ;;
  nightly) nightly_gate ;;
  all)
    fast_gate
    full_gate
    ;;
  *)
    echo "usage: scripts/ci.sh [fast|full|nightly]" >&2
    exit 2
    ;;
esac
