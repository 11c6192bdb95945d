#!/usr/bin/env bash
# CI entry point.
#
# Stages, in order:
#   lint   — scripts/dpc_lint.py twice: a regex-tier smoke pass before the
#            build, then the authoritative AST pass (libclang over the
#            exported compile_commands.json) plus clang-tidy and the
#            clang-format check after it. Missing clang tooling FAILS the
#            run unless DPC_CI_ALLOW_MISSING_CLANG=1 explicitly accepts the
#            reduced regex-only pipeline.
#   plain  — RelWithDebInfo build + full test suite (lock-rank detector
#            compiled out; NDEBUG).
#   check  — deterministic model checker (src/check/dpc_check): the
#            exhaustive tier fully enumerates the small bounded scenarios,
#            and the mutation sweep arms each DPC_CHECK_MUTATE fence drop
#            and requires the checker to catch it with a replayable
#            schedule. The tsan leg adds an 8-seed PCT sweep.
#   regress— bench/regress: pinned micro-benches + figure-bench transport
#            counters gated against bench/baselines/. Runs looser than the
#            10% default because CI shares a single-core VM (see
#            EXPERIMENTS.md "Refreshing perf baselines").
#   bench-smoke — perfbench/run.py, exactly as BENCHMARK.json declares it:
#            builds dpc_perfbench from this checkout and runs every declared
#            workload for 2 s (seed 1, tracing off). Each run must exit 0
#            (its build, oracle and fsck passed) and print a JSON object as
#            its last stdout line. Catches a src/ change that breaks the
#            benchmark before anyone measures with it.
#   tsan   — ThreadSanitizer build + full test suite. DPC_LOCKRANK defaults
#            on under TSan, so this leg also runs the runtime lock-order
#            detector across every test.
#   ubsan  — UndefinedBehaviorSanitizer build + full test suite.
#   asan   — AddressSanitizer + UBSan build + full test suite: catches
#            out-of-bounds and use-after-free the other legs cannot, e.g.
#            in the unaligned 32-byte loads and scalar tails of the vector
#            GF(2^8) kernels.
#   chaos  — fault-injection tests swept over several seeds (plain + tsan),
#            including ChaosIntegration.LateCompletionsNeverServeStaleBytes-
#            WorkerMode: a 1 ms NVMe deadline under DPU workers, so aborted
#            commands complete late on reused queue slots (the CID
#            generation fence); its TSan leg is the race check on that path.
#   crash  — crash-point chaos over a wider seed set (plain + tsan), plus
#            the crash-restart recovery bench (BENCH_crash_recovery.json).
#   scrub  — data-corruption sweep: the integrity-envelope chaos tests and
#            scrubber tests over several seeds (plain + tsan), plus the
#            corruption-recovery bench (BENCH_scrub_recovery.json with its
#            detected == repaired + unrecoverable invariant).
#   qos    — overload robustness: the per-tenant QoS tests (plain + tsan)
#            and the antagonist bench (BENCH_qos.json), which asserts the
#            isolation SLO internally: victim p99 ≤ 2× solo with isolation
#            on, ≥ 5× degradation with it off.
#   nvm    — NVM write-ahead durability tier: the WAL unit + system tests
#            (plain + tsan; the CrashChaosWal sweeps already ride the crash
#            stage) and the nvmlog bench (BENCH_nvmlog.json), which asserts
#            fsync p99(WAL off) ≥ 5× p99(WAL on) and graceful ring-full
#            degradation internally.
#   tail   — gray-failure tolerance tier: the fail-slow / per-peer health
#            (PeerHealth: open/half-open and quarantine) / hedged-read
#            tests swept over several seeds (plain + tsan) and
#            the tail_tolerance bench (BENCH_tail.json), which asserts the
#            tail SLO internally: limping-peer p99 ≤ 2× healthy with the
#            scoreboard on, ≥ 10× with it off.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
CHAOS_SEEDS=(1 7 1337)
CRASH_SEEDS=(1 2 3 5 7 11 13 1337)
SCRUB_SEEDS=(1 7 42 1337 90210)
TAIL_SEEDS=(1 7 1337)

# Fail fast when the clang toolchain is missing. Silently skipping the AST
# lint + tidy/format gates turns them into checks that only ever ran on the
# machines that happened to have clang — set DPC_CI_ALLOW_MISSING_CLANG=1 to
# opt a known-minimal container into the reduced (regex-lint-only) pipeline.
CLANG_MISSING=()
command -v clang-tidy >/dev/null 2>&1 || CLANG_MISSING+=(clang-tidy)
command -v clang-format >/dev/null 2>&1 || CLANG_MISSING+=(clang-format)
python3 -c 'import clang.cindex' >/dev/null 2>&1 \
  || CLANG_MISSING+=(python3-libclang)
if ((${#CLANG_MISSING[@]})); then
  if [[ "${DPC_CI_ALLOW_MISSING_CLANG:-0}" != 1 ]]; then
    echo "ci: missing clang tooling: ${CLANG_MISSING[*]}" >&2
    echo "ci: install clang-tidy, clang-format and the python3 libclang" >&2
    echo "ci: bindings, or set DPC_CI_ALLOW_MISSING_CLANG=1 to accept the" >&2
    echo "ci: reduced pipeline (regex dpc_lint; no tidy/format/AST lint)." >&2
    exit 2
  fi
  AST_MODE=auto   # reduced pipeline, explicitly opted into above
else
  AST_MODE=on     # clang present: the AST lint engine is required, not luck
fi

echo "=== lint stage (regex tier) ==="
# Pre-build smoke pass: the regex tier needs no compile db, so style/protocol
# slips fail before the ~full-build wait. The authoritative AST pass runs
# right after the plain configure exports compile_commands.json.
python3 scripts/dpc_lint.py --ast off --selftest
python3 scripts/dpc_lint.py --ast off

echo "=== plain build ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== lint stage (AST tier) ==="
# Full compile-db pass: every rule, including the AST-only ones
# (wall-clock-reachable), over exactly what the build compiled. The fixture
# selftest re-runs too so the expect-ast annotations are exercised.
python3 scripts/dpc_lint.py --ast "$AST_MODE" --compile-db build --selftest
python3 scripts/dpc_lint.py --ast "$AST_MODE" --compile-db build

# clang-tidy wants compile_commands.json, which the plain configure exports.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "--- clang-tidy ---"
  mapfile -t TIDY_SRCS < <(find src -name '*.cpp' | sort)
  clang-tidy -p build --quiet "${TIDY_SRCS[@]}"
else
  echo "--- clang-tidy not installed; skipping (config: .clang-tidy) ---"
fi
if command -v clang-format >/dev/null 2>&1; then
  echo "--- clang-format check (src/sim + lint-era files) ---"
  clang-format --dry-run --Werror \
    src/sim/thread_annotations.hpp src/sim/lockrank.hpp \
    src/sim/lockrank.cpp tests/test_lockrank.cpp
else
  echo "--- clang-format not installed; skipping (config: .clang-format) ---"
fi

echo "=== check stage ==="
# Deterministic model checker (src/check). The exhaustive tier fully
# enumerates the small bounded scenarios on every build; the mutation sweep
# proves each scenario still CATCHES its paired protocol mutation — a
# passing checker that couldn't flag a broken fence would be worthless.
echo "--- dpc_check exhaustive tier ---"
./build/src/check/dpc_check --tier exhaustive
echo "--- dpc_check mutation sweep ---"
./build/src/check/dpc_check --mutate all

echo "=== regress stage ==="
# The CI box is a shared single-core VM with a wall-clock noise floor of
# roughly 25% even on best-of-repetitions, so the micro suites gate at 35%
# here instead of bench/regress's 10% default (which is meant for dedicated
# hardware). A deliberate 2x slowdown lands at +100% and still fails; the
# figure-suite counters are deterministic and unaffected by the threshold.
./bench/regress --threshold 0.35 --retries 2

echo "=== bench-smoke stage ==="
mapfile -t BENCH_WORKLOADS < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
if ((${#BENCH_WORKLOADS[@]} == 0)); then
  echo "ci: BENCHMARK.json declares no workloads" >&2
  exit 1
fi
for w in "${BENCH_WORKLOADS[@]}"; do
  echo "--- perfbench $w ---"
  out="$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 \
    --trace 0)"
  printf '%s\n' "$out" | tail -n 1 | python3 -c 'import json, sys
assert isinstance(json.loads(sys.stdin.read()), dict), "not a JSON object"'
done

echo "=== tsan build ==="
cmake -B build-tsan -S . -DDPC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
echo "--- dpc_check PCT sweep (tsan) ---"
# The randomized-priority tier under TSan: eight seeds per PCT scenario, so
# the big-bound scenarios get fresh schedules on every CI run with the data
# race detector watching the same interleavings the checker drives.
./build-tsan/src/check/dpc_check --tier pct --seeds 8

echo "=== ubsan build ==="
cmake -B build-ubsan -S . -DDPC_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$JOBS"
ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"

echo "=== asan+ubsan build ==="
cmake -B build-asan -S . -DDPC_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "=== chaos stage ==="
for seed in "${CHAOS_SEEDS[@]}"; do
  echo "--- chaos seed $seed (plain) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build --output-on-failure \
    -j "$JOBS" -R 'Chaos|Fault'
  echo "--- chaos seed $seed (tsan) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build-tsan --output-on-failure \
    -j "$JOBS" -R 'Chaos|Fault'
done

echo "=== crash stage ==="
for seed in "${CRASH_SEEDS[@]}"; do
  echo "--- crash seed $seed (plain) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build --output-on-failure \
    -j "$JOBS" -R 'CrashChaos'
  echo "--- crash seed $seed (tsan) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build-tsan --output-on-failure \
    -j "$JOBS" -R 'CrashChaos'
done
echo "--- crash-restart recovery bench ---"
(cd build && ./bench/chaos_recovery --csv >/dev/null)
test -f build/BENCH_crash_recovery.json

echo "=== scrub stage ==="
for seed in "${SCRUB_SEEDS[@]}"; do
  echo "--- scrub seed $seed (plain) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build --output-on-failure \
    -j "$JOBS" -R 'Scrub|SilentCorruption'
  echo "--- scrub seed $seed (tsan) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build-tsan --output-on-failure \
    -j "$JOBS" -R 'Scrub|SilentCorruption'
done
test -f build/BENCH_scrub_recovery.json  # emitted by chaos_recovery above

echo "=== qos stage ==="
echo "--- qos tests (plain) ---"
ctest --test-dir build --output-on-failure -j "$JOBS" -R 'Qos'
echo "--- qos tests (tsan) ---"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R 'Qos'
echo "--- qos antagonist bench ---"
# The bench DPC_CHECKs its own isolation SLO (victim p99 ≤ 2× solo with
# QoS on, ≥ 5× degradation with it off) and aborts non-zero on violation.
(cd build && ./bench/qos_antagonist --csv >/dev/null)
test -f build/BENCH_qos.json

echo "=== nvm stage ==="
echo "--- nvm wal tests (plain) ---"
ctest --test-dir build --output-on-failure -j "$JOBS" -R 'NvmWal'
echo "--- nvm wal tests (tsan) ---"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R 'NvmWal'
echo "--- nvm log bench ---"
# The bench DPC_CHECKs its own durability SLO (fsync p99 ≥ 5× faster with
# the log on, ring-full pressure degrades without dropping an ack) and
# aborts non-zero on violation.
(cd build && ./bench/nvmlog --csv >/dev/null)
test -f build/BENCH_nvmlog.json

echo "=== tail stage ==="
for seed in "${TAIL_SEEDS[@]}"; do
  echo "--- tail seed $seed (plain) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build --output-on-failure \
    -j "$JOBS" -R 'Tail|Hedge|PeerHealth'
  echo "--- tail seed $seed (tsan) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build-tsan --output-on-failure \
    -j "$JOBS" -R 'Tail|Hedge|PeerHealth'
done
echo "--- tail tolerance bench ---"
# The bench DPC_CHECKs its own tail SLO (limping-peer p99 ≤ 2× healthy with
# the health scoreboard + hedging on, ≥ 10× with them off; hedge budget
# respected; quarantine round-trips) and aborts non-zero on violation.
(cd build && ./bench/tail_tolerance --csv >/dev/null)
test -f build/BENCH_tail.json

echo "=== ci OK ==="
