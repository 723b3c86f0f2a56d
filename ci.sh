#!/usr/bin/env bash
# Repo CI gate: build, test (serial and parallel pool), lint, bench smoke.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# Every test invocation runs under a wall-clock cap (seconds): a hung test
# fails the gate loudly (exit 124) instead of stalling it. The warm
# workspace pass takes well under a minute, so 15 minutes leaves room for
# a cold build on 2 cores.
TEST_TIMEOUT="${TEST_TIMEOUT:-900}"
cargo_test() { timeout "$TEST_TIMEOUT" cargo test "$@"; }

# Scratch directory for everything the smoke runs write (reports, traces),
# so a CI run never dirties the checked-in full-mode BENCH_*.json files.
trace_dir="$(mktemp -d)"

# Step timing: `step <label>` closes the running step and opens the next.
# At exit — a failed step included — the trap closes the last step and
# prints the five slowest, then removes the scratch directory.
step_secs=()
step_names=()
step_label=""
step_start=$SECONDS
step() {
    if [ -n "$step_label" ]; then
        step_secs+=($(( SECONDS - step_start )))
        step_names+=("$step_label")
    fi
    step_label="$1"
    step_start=$SECONDS
}
on_exit() {
    local status=$?
    if [ "$status" -ne 0 ] && [ -n "$step_label" ]; then
        step_label="$step_label (failed, exit $status)"
    fi
    step ""
    rm -rf "$trace_dir"
    echo "ci.sh: five slowest steps of ${#step_secs[@]} (${SECONDS}s in all):" >&2
    for i in "${!step_secs[@]}"; do
        printf '%6ds  %s\n' "${step_secs[$i]}" "${step_names[$i]}"
    done | sort -rn | head -n 5 >&2 || true
    exit "$status"
}
trap on_exit EXIT

step "cargo build --release"
cargo build --release

step "layering gate"
# Layering gate: the serving crate stays off the training path. (grep -c,
# not -q: an early exit would SIGPIPE cargo under pipefail.)
[ "$(cargo tree --offline -p egeria-core -e normal | grep -c egeria-serve)" = 0 ] \
    || { echo "egeria-core depends on egeria-serve" >&2; exit 1; }

step "std-only runtime gate"
# A std-only runtime (DESIGN §2 "Dependency justification"): every package
# in the normal dependency graph is a workspace member — the root package or
# one under crates/. Vendored stand-ins (proptest, criterion) may appear on
# dev edges only.
outside="$(cargo tree --offline --workspace -e normal --prefix none \
    | grep -v '^$' | grep -vF -e "($PWD)" -e "($PWD/crates/" || true)"
[ -z "$outside" ] \
    || { echo "non-workspace packages in the runtime graph:" >&2; echo "$outside" >&2; exit 1; }

step "wire-layer gate"
# One wire layer under every on-disk format (DESIGN "On-disk formats"):
# little-endian decoding lives only in egeria_tensor::wire (plus the LZSS
# token kernel) — so a sixth hand-rolled cursor cannot come back unnoticed.
stray_cursors="$(grep -rln "from_le_bytes" crates/{tensor,core,store}/src \
    | grep -vxE 'crates/tensor/src/wire\.rs|crates/store/src/lz\.rs' || true)"
[ -z "$stray_cursors" ] \
    || { echo "from_le_bytes outside the wire module: $stray_cursors" >&2; exit 1; }

step "egeria-lint"
# Workspace contract lint: the line-local rules (unsafe/SAFETY audit,
# kernel panic ban, float exact-eq, determinism, vendored-deps) plus the
# graph rules (panic/wallclock/entropy reachability from kernel and
# serialize entries, lock-order cycles, unjoined spawns — DESIGN.md §5h)
# — hard gate before any test runs: any finding fails it (a false
# positive takes an inline `allow(<rule>)` pragma). The gate doubles as
# the lint's own perf smoke: parsing and resolving the whole workspace
# must stay under 5 seconds. The root build
# above covers only the façade package, so build the lint first: the
# timed window holds its run, never its compilation.
cargo build --release -p egeria-lint
lint_start=$SECONDS
cargo run --release -p egeria-lint -- --workspace
lint_elapsed=$(( SECONDS - lint_start ))
if [ "$lint_elapsed" -ge 5 ]; then
    echo "egeria-lint took ${lint_elapsed}s — over the 5s self-perf budget" >&2
    exit 1
fi

# The parallel compute backend must be bit-identical at every pool size
# and well-behaved at every ISA: run the suite pinned to 1 thread with the
# SIMD layer forced to the scalar fallback, and again at the machine
# default (auto-detected vector ISA, default pool). The two axes cross:
# scalar+1-thread is the reference corner, auto+default the fastest one.
# The second pass also runs every crate's own unit and integration tests
# (`--workspace`): the layer contracts, the allocation oracles and the
# kernel proptests live there, not under the root package's tests/.
step "test: 1 thread, scalar"
EGERIA_THREADS=1 EGERIA_SIMD=scalar cargo_test -q
step "test: workspace"
cargo_test -q --workspace

step "hostile_bytes --release"
# Hostile bytes on decode (DESIGN §5n) must hold in both profiles: in
# release an overflowing value wraps instead of panicking, which the two
# debug passes above cannot see.
cargo_test -q --release --test hostile_bytes

step "scenario_ab"
# Freezing-policy A/B matrix (DESIGN §5i): the release-built harness runs
# every policy over every model family on fixed seeds, verifies each cell
# against its checked-in golden fingerprint (tests/golden/policies/),
# checks the per-family traces stay pairwise distinct, and rewrites the
# A/B report under results/. Hard gate; regenerate goldens after an
# intentional policy change with `cargo run --release -p egeria-scenarios
# --bin scenario_ab -- --bless`.
cargo run --release -p egeria-scenarios --bin scenario_ab
for key in model policy final_loss tta_epochs compute_saved comm_skipped; do
    grep -q "\"$key\"" results/scenario_ab_report.json
done
grep -q '^model,policy,final_loss' results/scenario_ab_report.csv

step "golden_run at 8 threads"
# The golden-run fingerprint must be pool-size invariant: the full suite
# above already pins EGERIA_THREADS=1; re-pin the golden run at 8 threads.
EGERIA_THREADS=8 cargo_test -q --test golden_run

step "clippy"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc"
# Rustdoc gate: every intra-doc link must resolve, unambiguously and to a
# public item — so a doc that names a deleted item fails here instead of
# rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "bench_ops smoke"
# Kernel perf smoke: times the hot paths against the reference oracle and
# under the SIMD microkernel layer, emitting a machine-readable report
# (BENCH_ops.json, written into the scratch dir — the checked-in one holds
# full-mode numbers). Asserts the determinism contract; the <2%
# disabled-telemetry overhead contract (DESIGN §5d) is reported here and
# asserted by the full-mode run only. The report must carry the SIMD
# entries (§5g).
(cd "$trace_dir" && cargo run --release -p egeria-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin bench_ops -- --smoke)
for key in simd_isa conv2d_resnet56 qmatmul softmax permute_heads bias_add adam_update pool1_ns_per_iter train_step_pool_jobs dispatch; do
    grep -q "\"$key\"" "$trace_dir/BENCH_ops.json"
done

step "telemetry smoke"
# Telemetry smoke: a traced quickstart must emit schema-valid JSONL that
# trace_report can validate and summarize (trace_report exits non-zero on
# any schema violation).
EGERIA_TRACE="$trace_dir/quickstart" cargo run --release --example quickstart >/dev/null
test -s "$trace_dir/quickstart.jsonl"
test -s "$trace_dir/quickstart.chrome.json"
# (no pipe: grep -q would SIGPIPE trace_report under pipefail)
cargo run --release -p egeria-bench --bin trace_report -- "$trace_dir/quickstart.jsonl" \
    > "$trace_dir/report.txt"
grep -q "freeze timeline" "$trace_dir/report.txt"

step "serving smoke"
# Serving smoke (DESIGN §5e; the standalone library, off the training
# path): a traced serving run must emit schema-valid JSONL whose
# trace_report summary includes the serve-batch section, and bench_serve
# must emit a well-formed BENCH_serve.json with both load shapes.
EGERIA_TRACE="$trace_dir/serving" cargo run --release --example reference_serving >/dev/null
test -s "$trace_dir/serving.jsonl"
cargo run --release -p egeria-bench --bin trace_report -- "$trace_dir/serving.jsonl" \
    > "$trace_dir/serving_report.txt"
grep -q "serve batches" "$trace_dir/serving_report.txt"
(cd "$trace_dir" && cargo run --release -p egeria-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin bench_serve -- --smoke >/dev/null)
grep -q '"open_loop"' "$trace_dir/BENCH_serve.json"
grep -q '"closed_loop"' "$trace_dir/BENCH_serve.json"

step "chaos soak"
# Chaos-soak smoke (DESIGN §5f): bounded e2e training under a fixed-seed
# fault schedule. Hard gate: fallback-covered faults must leave the loss
# curve bit-identical, degradation-only faults must never abort, and
# teardown must leak no threads. (~30-40s; seeds are pinned so a failure
# reproduces exactly with the same command.)
EGERIA_CHAOS_SEED=1337 cargo_test -q --test chaos_soak

step "cache store gate"
# Cache store gate (DESIGN §5j): the cache benchmark must emit a
# well-formed BENCH_cache.json carrying the acceptance ratios
# (flat-vs-chunked footprint and file count). That the flat backend holds
# the chunked golden-run fingerprint is a test in both passes above
# (golden_run, cache_store_differential).
(cd "$trace_dir" && cargo run --release -p egeria-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin bench_cache -- --smoke >/dev/null)
grep -q '"footprint_ratio"' "$trace_dir/BENCH_cache.json"
grep -q '"file_ratio"' "$trace_dir/BENCH_cache.json"
grep -q '"chunked_int8"' "$trace_dir/BENCH_cache.json"

step "benchmark smoke"
# End-to-end benchmark smoke (benchmark/README.md): builds the benchmark
# package as checked in against the workspace crates and trains every
# workload once at reduced size through the real trainer (~30 s). Hard
# gate: no workload may report a failed operation.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    run --smoke --out "$trace_dir/smoke.json" >/dev/null
grep -q '"failed"' "$trace_dir/smoke.json"
if grep -Eq '"failed": *[1-9]' "$trace_dir/smoke.json"; then
    echo "benchmark smoke reported failed operations" >&2
    exit 1
fi
