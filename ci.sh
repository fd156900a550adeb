#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the workspace root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Open-dispatch invariant: the serving layer resolves methods through the
# registry; a `match` on `ExplainMethod::` variants creeping back into the
# worker/registry dispatch path (outside #[cfg(test)]) re-closes it.
echo "==> open-dispatch check (no ExplainMethod:: match arms in serve dispatch)"
for f in crates/nfv-serve/src/worker.rs crates/nfv-serve/src/registry.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'ExplainMethod::'; then
    echo "FAIL: $f dispatches on ExplainMethod variants; use MethodRegistry"
    exit 1
  fi
done

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> bench smoke (serve_throughput + explain_latency + soa_kernels --test)"
cargo bench -p nfv-bench --bench serve_throughput -- --test
cargo bench -p nfv-bench --bench explain_latency -- --test
cargo bench -p nfv-bench --bench soa_kernels -- --test

# Multi-process wire smoke: three real nfv-shard processes on loopback, a
# short mixed replay checked bit-for-bit against an in-process engine,
# then a pipelined storm (64 concurrent connections, depth 8 per socket)
# against the event-driven server — zero protocol errors, clean drain.
# Exits non-zero on any violation.
echo "==> nfv-net multi-process smoke (3 shard processes, 64-conn pipelined storm)"
# The smoke spawns target/release/nfv-shard; `cargo run --bin nfv-net-smoke`
# alone would not rebuild it, and a stale shard binary fails bit-identity.
cargo build -q --release -p nfv-net --bins
cargo run -q --release -p nfv-net --bin nfv-net-smoke

# Perf-regression gate: rerun the timed benches and diff the fresh medians
# (BENCH_*.json at the workspace root) against the blessed baselines/.
# Fails if any median regressed by more than 25%. Set NFV_BENCH_GATE=off to
# skip on machines whose perf envelope differs from the blessed one.
if [ "${NFV_BENCH_GATE:-on}" = "off" ]; then
  echo "==> bench gate: SKIPPED (NFV_BENCH_GATE=off)"
else
  echo "==> bench gate (timed run vs baselines/, tolerance 25%)"
  cargo bench -p nfv-bench --bench serve_throughput
  cargo bench -p nfv-bench --bench explain_latency
  cargo bench -p nfv-bench --bench soa_kernels
  cargo run -q --release -p nfv-bench --bin bench_gate -- \
    baselines/BENCH_serve_throughput.json BENCH_serve_throughput.json
  cargo run -q --release -p nfv-bench --bin bench_gate -- \
    baselines/BENCH_explain_latency.json BENCH_explain_latency.json
  cargo run -q --release -p nfv-bench --bin bench_gate -- \
    baselines/BENCH_soa_kernels.json BENCH_soa_kernels.json
  # To re-bless after an intentional perf change:
  #   cargo run --release -p nfv-bench --bin bench_gate -- --bless
  # (wire_replay stays unblessed by contract: it is in the gate's built-in
  # GATE_EXEMPT_GROUPS list — reported informationally, never gated, never
  # blessed — because this container's single core cannot measure the
  # multi-process wire tier honestly; see EXPERIMENTS.md §S4.1.)
  # The ≥3× 4-shard scaling gate now lives inside the serve_throughput
  # bench binary (cluster scaling gate; self-skips on hosts with < 5
  # cores and in --test smoke mode), so the timed run above covers it.
fi

echo "==> CI OK"
