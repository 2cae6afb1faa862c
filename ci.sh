#!/usr/bin/env bash
# Offline CI gate: build, test, lint. The workspace vendors its only
# external dev-dependency (vendor/proptest), so everything here runs
# without network access.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Committed results must come out of this run unchanged: a step that
# rewrites one (say, a full harness run writing a gate's baseline) would
# otherwise re-baseline silently. Checksummed here, compared after the
# daemon smoke. The gitignored *_smoke.json files are the steps' own
# outputs and are left out.
mapfile -t results_files < <(find results -type f ! -name '*_smoke.json' | sort)
results_sums="$(sha256sum "${results_files[@]}")"

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
# is the only check of bitwise answers under open-loop load, with batched
# and scalar lanes interleaved; every answer is compared with its
# reference, and the final line must report all correct and none failed.
bench_result="$(python3 perfbench/run.py --workload all --seed 4242 --seconds 2 --trace 0 | tail -n 1)"
python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$bench_result" \
    || { echo "ci: perfbench check failed: $bench_result" >&2; exit 1; }
# The traced paper-des run adds the benchmark's design-space sweep: batched
# lanes (width 8, fast-forward requested, which lockstep lanes do not do)
# on two workers, every scenario checked against the plain scalar sweep.
# It is the only benchmark check of batched lanes.
traced_result="$(python3 perfbench/run.py --workload paper-des --seed 4242 --seconds 2 --trace 1 | tail -n 1)"
python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$traced_result" \
    || { echo "ci: traced perfbench check failed: $traced_result" >&2; exit 1; }

cargo clippy --all-targets --offline -- -D warnings

# API docs of the evolve crates: broken or private intra-doc links fail the
# build, so deleting an item cannot leave a dangling link behind. The
# vendored proptest shim is not ours to document.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --exclude proptest

# Batched-lane conformance: the lockstep engine must stay bitwise
# identical to the scalar backends across widths, lane mixes, and the
# ejection path (also part of the workspace run above; kept explicit so a
# batched regression is named in the CI log).
cargo test -q -p evolve-core --test batch_conformance --offline

# Periodic fast-forward conformance: worklist, compiled, compiled+replay,
# and batched lanes (which never replay) must agree bitwise across
# periodic, aperiodic, and period-breaking traces (also part of the
# workspace run above; kept explicit so a fast-forward regression is named
# in the CI log).
cargo test -q -p evolve-core --test periodic_conformance --offline

# Telemetry-fold exactness: the metrics folded from a drive's records and
# the exported Perfetto intervals must match ResourceTrace exactly on
# promoted scenarios, and a reused engine's drives must fold on their own
# time axes (also part of the workspace run above; kept explicit so a
# telemetry regression is named in the CI log).
cargo test -q -p evolve-core --test telemetry_fold --offline

# Table I smoke: the four chained didactic examples, conventional and
# equivalent model both on the native DES kernel (2000 tokens each). The
# harness exits 1 when any row's boundary instants are not exact.
cargo run --release -q -p evolve-bench --bin table1 --offline -- 2000 0

# LTE smokes: Fig. 6's GOPS series for one frame on one worker, and the
# Section V rows (observing and boundary-only graphs, 2000 symbols, native
# kernel). Each harness exits 1 when a series or row is not exact, so a
# change to the derived LTE graph is checked against its conventional
# model here too.
cargo run --release -q -p evolve-bench --bin fig6 --offline -- 1 1
cargo run --release -q -p evolve-bench --bin lte_speedup --offline -- 2000 0

# Cost-split smoke: a cross-path check of the scalar compiled sweep on
# Table I example 4 (20 alternating pairs per comparison). The engine
# driven without the kernel must reproduce the kernel-driven equivalent
# run's outputs and its record count, and a one-lane BatchedEngine must
# answer as the scalar engine; the harness panics (exit 101) when any of
# the three does not hold.
cargo run --release -q -p evolve-bench --bin cost_split --offline -- 20

# Bench smoke on a 1000-node synthetic graph (bounded iterations, each
# comparison timed in 20 alternating pairs on thread CPU time): the
# compiled backend must beat the worklist reference, the width-8 batch one
# lane on the lane-chunked fold kernels, and periodic fast-forward the
# plain sweep, with checksum conformance throughout. Then the gates against
# results/fig5_gates.json: the compiled sweep's cost relative to the
# worklist may rise at most 10% over the baseline, and the width-8
# batching gain may fall at most 10% under it. A missing baseline fails
# the gates.
cargo run --release -q -p evolve-bench --bin fig5 --offline -- --quick

# Daemon smoke: boot the real `evolved` binary on a loopback unix socket
# with a live /metrics listener, drive it with serve-bench --quick (which
# asserts lanes-per-batch > 1, a parsable serve /metrics exposition, and
# two within-run ratios of scenarios/second, each the median of client
# phases alternated in pairs: affinity over naive > 1, and flight recorder
# attached over detached >= 0.90), request a flight-recorder Dump (the
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

if ! changed="$(sha256sum --quiet -c <<<"$results_sums" 2>&1)"; then
    echo "ci: a step rewrote committed results:" >&2
    echo "$changed" >&2
    exit 1
fi

# Informational, no gate: non-comment source lines per crate
# (tools/loc.py skips blank lines, `//` comments and `#[cfg(test)]` items).
python3 tools/loc.py | grep -E '\(total\)$| all$'

echo "ci: build, tests, clippy, conformance suites, Table I and bench smokes, daemon smoke, and unchanged results all green"
