#!/usr/bin/env bash
# Offline CI gate: build, test, lint. The workspace vendors its only
# external dev-dependencies (vendor/proptest, vendor/criterion), so
# everything here runs without network access.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

cargo build --release --offline
cargo test -q --workspace --offline
# The serving layer again in release: its timing (metrics publish
# throttling, batch windows) only shows under optimized evaluation.
cargo test --release -q -p evolve-serve --offline
# The core suites again in release: overflowing lag sums panic in debug
# builds and wrap in release, and the benchmark runs the compiled sweep's
# shape-specialized slot arms only as optimized code.
cargo test --release -q -p evolve-core --offline

# Benchmark correctness: both perfbench workloads, short and untraced. It
# is the only check of bitwise answers under open-loop load, with batched,
# scalar and delta lanes interleaved; every answer is compared with its
# reference, and the final line must report all correct and none failed.
bench_result="$(python3 perfbench/run.py --workload all --seed 4242 --seconds 2 --trace 0 | tail -n 1)"
python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$bench_result" \
    || { echo "ci: perfbench check failed: $bench_result" >&2; exit 1; }

cargo clippy --all-targets --offline -- -D warnings

# API docs of the evolve crates: broken or private intra-doc links fail the
# build, so deleting an item cannot leave a dangling link behind. The
# vendored proptest and criterion shims are not ours to document.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace \
    --exclude proptest --exclude criterion

# Batched-lane conformance: the lockstep engine must stay bitwise
# identical to the scalar backends across widths, lane mixes, and the
# ejection path (also part of the workspace run above; kept explicit so a
# batched regression is named in the CI log).
cargo test -q -p evolve-core --test batch_conformance --offline

# Periodic fast-forward conformance: worklist, compiled, compiled+replay,
# and batched+replay must agree bitwise across periodic, aperiodic, and
# period-breaking traces (also part of the workspace run above; kept
# explicit so a fast-forward regression is named in the CI log).
cargo test -q -p evolve-core --test periodic_conformance --offline

# Delta conformance: sibling scenarios evaluated as a delta against a
# captured base must stay bitwise identical to the full compiled sweep
# (record order and all counters included) and multiset-identical to the
# worklist, across perturbation families and the typed negative paths
# (also part of the workspace run above; kept explicit so a delta
# regression is named in the CI log).
cargo test -q -p evolve-core --test delta_conformance --offline

# Observer conformance: telemetry attachment must be bitwise invisible
# across worklist/compiled/compiled+replay/batched paths, and streaming
# usage plus exported Perfetto intervals must match ResourceTrace exactly
# on promoted scenarios (also part of the workspace run above; kept
# explicit so a telemetry regression is named in the CI log).
cargo test -q -p evolve-core --test observer_conformance --offline

# Partition conformance: the intra-graph partitioned sweep at 2, 3 and 4
# workers, including fast-forward and delta composition and the threads=1
# degenerate, must stay bitwise identical to the serial compiled sweep
# (also part of the workspace run above; kept explicit so a partition
# regression is named in the CI log).
cargo test -q -p evolve-core --test partition_conformance --offline

# Bench smoke: the compiled backend must beat the worklist reference, the
# batched engine must beat one-lane evaluation, periodic fast-forward
# must beat the plain sweep on a 1000-node synthetic graph, and delta
# replay of an identical sibling must beat the full compiled sweep
# (bounded iterations; asserts the ratios > 1 and checksum conformance).
# The quick run also re-evaluates the default 256-scenario sweep grid
# with delta chaining on and off and asserts checksum-identical outputs.
# Also the disabled-observer overhead gate: the compiled hot path — which
# carries the (detached) observer hooks — must keep its compiled/worklist
# cost ratio within EVOLVE_OVERHEAD_TOLERANCE (default 10%) of the
# committed results/bench_engine.json baseline's ratio, the width-8
# batching gain must stay within EVOLVE_BATCH_TOLERANCE (default 10%) of
# the committed grid's gain (ratios measured within one run, so uniform
# host wall-clock drift cancels), and a width-8 batch must dispatch to
# the lane-chunked fold kernels. The quick run also smokes the partition
# grid: a 2-worker partitioned sweep must match the serial checksum (the
# speed gate applies only on multi-core hosts — partition workers on one
# core merely take turns).
cargo run --release -q -p evolve-bench --bin fig5 --offline -- --quick

# Daemon smoke: boot the real `evolved` binary on a loopback unix socket
# with a live /metrics listener, drive it with serve-bench --quick (which
# asserts lanes-per-batch > 1, a parsable serve /metrics exposition, an
# affinity-vs-naive scenarios/second ratio > 1, and a flight-recorder
# overhead ratio — attached/detached, measured within this run, never
# against an absolute baseline), request a flight-recorder Dump (the
# bench asserts the trace parses as JSON with at least one span per
# lifecycle phase before writing it), then SIGTERM the daemon and
# require a clean drain to exit 0.
serve_dir="$(mktemp -d)"
trap 'kill "${serve_pid:-}" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
cargo run --release -q -p evolve-serve --bin evolved --offline -- \
    --unix "$serve_dir/evolved.sock" --metrics 127.0.0.1:0 \
    --state-file "$serve_dir/evolved.state" &
serve_pid=$!
for _ in $(seq 1 200); do
    grep -q '^pid=' "$serve_dir/evolved.state" 2>/dev/null && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "ci: evolved died at startup" >&2; exit 1; }
    sleep 0.05
done
grep -q '^pid=' "$serve_dir/evolved.state" || { echo "ci: evolved never published its state file" >&2; exit 1; }
metrics_addr="$(sed -n 's/^metrics=//p' "$serve_dir/evolved.state")"
cargo run --release -q -p evolve-bench --bin serve-bench --offline -- \
    --quick --connect "unix:$serve_dir/evolved.sock" --metrics "$metrics_addr" \
    --dump-trace "$serve_dir/trace.json"
for phase in queue_wait batch_form eval; do
    grep -q "\"name\":\"$phase\"" "$serve_dir/trace.json" \
        || { echo "ci: trace dump is missing $phase spans" >&2; exit 1; }
done
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "ci: evolved did not exit 0 on SIGTERM" >&2; exit 1; }
serve_pid=""

# Informational, no gate: non-comment source lines per crate
# (tools/loc.py skips blank lines, `//` comments and `#[cfg(test)]` items).
python3 tools/loc.py | grep -E '\(total\)$| all$'

echo "ci: build, tests, clippy, conformance suites, bench smoke, and daemon smoke all green"
