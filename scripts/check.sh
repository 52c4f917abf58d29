#!/usr/bin/env bash
# The one-stop pre-merge gate: static checks, then the release, TSan,
# ASan and UBSan test suites. Everything a CI job needs, runnable
# locally:
#
#   scripts/check.sh            # full gate
#   scripts/check.sh --static   # static checks only (no builds)
#   scripts/check.sh --sarif    # also write build/frugal_analyze.sarif
#
# --sarif makes the frugal_analyze stage additionally emit a SARIF
# 2.1.0 report for code-scanning upload; it composes with --static.
#
# clang-format / clang-tidy steps are skipped (with a notice) when the
# binaries are not installed — the configs (.clang-format, .clang-tidy)
# still define the contract for environments that have them.
set -euo pipefail

cd "$(dirname "$0")/.."

STATIC_ONLY=0
SARIF_OUT=0
for arg in "$@"; do
    case "$arg" in
        --static) STATIC_ONLY=1 ;;
        --sarif)  SARIF_OUT=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

failures=0

note()  { printf '\n== %s ==\n' "$*"; }
skip()  { printf -- '-- skipped: %s\n' "$*"; }

# baseline_diff BENCH JSON: compares build/JSON, written by a fresh
# `BENCH --smoke` run, against the committed baseline JSON. The diff is
# WARN-ONLY: absolute numbers vary by host; the point is to notice a
# vanished metric or an order-of-magnitude regression, not to gate on
# machine noise.
baseline_diff() {
    python3 - "$1" "$2" <<'EOF' || true
import json
import sys

bench, name = sys.argv[1], sys.argv[2]

def load(path):
    with open(path) as fh:
        return {m["metric"]: m for m in json.load(fh)}

try:
    baseline = load(name)
except OSError:
    print(f"WARN: no committed {name} baseline")
    raise SystemExit(0)
fresh = load(f"build/{name}")

for metric in sorted(set(baseline) | set(fresh)):
    if metric not in fresh:
        print(f"WARN: metric '{metric}' in baseline but not produced")
    elif metric not in baseline:
        print(f"WARN: new metric '{metric}' missing from the baseline")
    elif baseline[metric]["unit"] != fresh[metric]["unit"]:
        print(f"WARN: metric '{metric}' changed unit "
              f"{baseline[metric]['unit']} -> {fresh[metric]['unit']}")
    else:
        old, new = baseline[metric]["value"], fresh[metric]["value"]
        if old > 0 and new < old / 10:
            print(f"WARN: metric '{metric}' collapsed {old:.3g} -> "
                  f"{new:.3g} (>10x below baseline; smoke sizes, "
                  f"but worth a look)")
print(f"{bench} baseline diff done (warnings are non-fatal)")
EOF
}

# --- 1. formatting -----------------------------------------------------
note "clang-format (dry run)"
if command -v clang-format >/dev/null 2>&1; then
    mapfile -t sources < <(git ls-files \
        'src/**/*.h' 'src/**/*.cc' 'tests/*.cc' 'bench/*.cc' \
        'examples/*.cpp')
    if ! clang-format --dry-run --Werror "${sources[@]}"; then
        failures=$((failures + 1))
    fi
else
    skip "clang-format not installed"
fi

# --- 2. clang-tidy -----------------------------------------------------
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
    cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    mapfile -t tidy_sources < <(git ls-files 'src/**/*.cc')
    if ! clang-tidy -p build --quiet "${tidy_sources[@]}"; then
        failures=$((failures + 1))
    fi
else
    skip "clang-tidy not installed"
fi

# --- 3b. Clang thread-safety analysis ----------------------------------
# Compile-only gate: -Werror=thread-safety over the annotated lock
# discipline (DESIGN.md §10.1). Clang-only — the attributes are no-ops
# elsewhere, so skipping on a GCC-only host loses coverage, not
# correctness.
note "thread-safety analysis (preset: tsa)"
if command -v clang++ >/dev/null 2>&1; then
    cmake --preset tsa >/dev/null
    if ! cmake --build --preset tsa -j "$(nproc)"; then
        failures=$((failures + 1))
    fi
else
    skip "clang++ not installed (-Werror=thread-safety needs Clang)"
fi

# --- 3c. frugal_analyze ------------------------------------------------
# Project-specific static analysis (DESIGN.md §11): module layering,
# static lock ranks, annotation coverage, atomics discipline, hot-path
# allocation freedom. `python3 scripts/frugal_analyze --explain
# <check-id>` describes any finding. Two runs: every check over src/,
# and the memory_order_relaxed justification rule over the tests,
# benches and examples (the fixture corpus under tests/analyze/ is
# deliberately bad and is exercised by its own ctest suite). The second
# run overlaps the first; both gate.
note "frugal_analyze (static architecture checks)"
mapfile -t outside_src < <(git ls-files 'tests/*.cc' 'tests/*.h' \
    'bench/*.cc' 'bench/*.h' 'examples/*.cpp' \
    ':!tests/analyze/fixtures/*')
python3 scripts/frugal_analyze -q --checks atomics-relaxed \
    "${outside_src[@]}" &
relaxed_pid=$!
if ! python3 scripts/frugal_analyze -q; then
    failures=$((failures + 1))
fi
if ! wait "$relaxed_pid"; then
    failures=$((failures + 1))
fi
if [[ "$SARIF_OUT" == 1 ]]; then
    mkdir -p build
    # Exit code already accounted for above; the SARIF pass is for the
    # report artifact (code-scanning upload), not a second gate.
    python3 scripts/frugal_analyze --format=sarif \
        > build/frugal_analyze.sarif || true
    echo "-- wrote build/frugal_analyze.sarif"
fi

if [[ "$STATIC_ONLY" == 1 ]]; then
    note "static-only run done ($failures failure(s))"
    exit $((failures > 0))
fi

# --- 4. release build + tests ------------------------------------------
note "release build + ctest (preset: default)"
cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc)"
if ! ctest --preset default; then
    failures=$((failures + 1))
fi

# --- 4a. native-ISA kernels -------------------------------------------
# The bit-exact SIMD kernels (row kernels, the MLP's lane kernel sets)
# again under the release-lto preset: -O3, LTO and -march=native, where
# the compiler may use FMA and every vector extension of the host. The
# MLP's lanes must still match its scalar reference byte for byte.
# Only the two `kernels` binaries are built.
note "native-ISA kernels (preset: release-lto, ctest -L kernels)"
cmake --preset release-lto >/dev/null
cmake --build --preset release-lto -j "$(nproc)" \
    --target models_test table_row_kernels_test
if ! ctest --test-dir build-release-lto -L kernels; then
    failures=$((failures + 1))
fi

# --- 4c2. oracular-prefetch ablation smoke + baseline diff ---------------
# A smoke run of bench_prefetch drives the real engine with oracular
# warming/eviction on and off across capacities and skews, and exits
# non-zero if any cell's trained table is not bit-equal to the oracle
# (hard gate). The diff against the committed BENCH_prefetch.json stays
# warn-only (see baseline_diff) — smoke sizes make throughput cells
# noisy by design.
note "bench_prefetch smoke + baseline diff (warn-only)"
if ./build/bench/bench_prefetch --smoke --out build/BENCH_prefetch.json; then
    baseline_diff bench_prefetch BENCH_prefetch.json
else
    failures=$((failures + 1))
fi

# --- 4c3. cache-policy replay smoke + baseline diff ----------------------
# Same contract as 4c2 for bench_cache_policy: a bare-GpuCache trace
# replay scores LRU vs TinyLFU admission vs tiered vs tiered+oracular
# hints across capacities and skews. The binary exits non-zero if the
# tiered policy fails to beat pure LRU on hit rate in the thrashing
# Zipf-0.99 cells — hit rates are deterministic, so that part is a hard
# gate. The diff against the committed BENCH_cache_policy.json stays
# warn-only.
note "bench_cache_policy smoke + baseline diff (warn-only)"
if ./build/bench/bench_cache_policy --smoke \
        --out build/BENCH_cache_policy.json; then
    baseline_diff bench_cache_policy BENCH_cache_policy.json
else
    failures=$((failures + 1))
fi

# --- 4d. chaos/overload smoke -------------------------------------------
# A shrunken seeded chaos campaign against the real engine: flusher
# deaths, flaky writes, step-boundary pauses, a trainer death (degraded
# mode), and a mid-run memory-budget squeeze. The binary is its own hard
# gate — it exits non-zero if the degraded run diverges from the
# fault-free oracle, stalls, or never reaches kCritical (DESIGN.md §12.4).
note "bench_chaos smoke (degradation hard gate)"
if ! ./build/bench/bench_chaos --smoke --out build/BENCH_chaos.json; then
    failures=$((failures + 1))
fi

# --- 4d2. repository benchmark self-test --------------------------------
# perfbench/test_perfbench.py trains every benchmark workload (BENCHMARK.json)
# on the real engine, untraced and traced, checks each run bit-for-bit
# against the oracle, and runs the --tamper negative control, which the
# verification must catch. It builds the benchmark into .bench_build/ on
# first use. Hard gate.
note "perfbench self-test (oracle-verified workloads, hard gate)"
if ! python3 perfbench/test_perfbench.py; then
    failures=$((failures + 1))
fi

# --- 4e. deterministic interleaving explorer ----------------------------
# Rebuilds the flush-path core with the model_atomic shims live and
# exhausts/samples schedules per scenario (DESIGN.md §10.2). Complements
# TSan: this finds sequentially-consistent interleaving bugs
# deterministically; TSan finds weak-memory races probabilistically.
note "model check build + ctest -L modelcheck (preset: modelcheck)"
cmake --preset modelcheck >/dev/null
cmake --build --preset modelcheck -j "$(nproc)"
if ! ctest --preset modelcheck; then
    failures=$((failures + 1))
fi

# --- 5. ThreadSanitizer build + tests ----------------------------------
note "TSan build + ctest (preset: tsan)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$(nproc)"
if ! ctest --preset tsan; then
    failures=$((failures + 1))
fi

# --- 6. AddressSanitizer pass over the fault-tolerance and kernel suites -
# Recovery paths (claim reclamation, flusher respawn, checkpoint staging)
# juggle raw buffers and thread lifetimes, and the SIMD kernels (row
# kernels, batched MLP) index raw buffers in fixed-width blocks with
# tails; run them under ASan too.
note "ASan build + ctest -L 'faulttol|kernels' (preset: asan)"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$(nproc)"
if ! ctest --preset asan -L 'faulttol|kernels'; then
    failures=$((failures + 1))
fi

# --- 7. UndefinedBehaviorSanitizer pass over hostile-input suites ------
# The engine, trace I/O, checkpoint and fault-tolerance suites feed the
# runtime adversarial batches, invalid configs, corrupt or truncated
# traces and checkpoints, and injected faults. The preset builds with
# -fno-sanitize-recover=undefined, so any UB report fails its test.
# Only these six binaries are built.
note "UBSan build + ctest (preset: ubsan, hostile-input suites)"
ubsan_tests=(engine_test trace_io_test checkpoint_test
    fault_tolerance_test fault_injection_test chaos_soak_test)
ubsan_filter="^($(IFS='|'; echo "${ubsan_tests[*]}"))\$"
cmake --preset ubsan >/dev/null
cmake --build --preset ubsan -j "$(nproc)" --target "${ubsan_tests[@]}"
if ! ctest --preset ubsan -R "$ubsan_filter"; then
    failures=$((failures + 1))
fi

note "done"
if [[ "$failures" -gt 0 ]]; then
    echo "check.sh: $failures stage(s) FAILED"
    exit 1
fi
echo "check.sh: all stages passed"
